// Self-test of the load generator and the reported statistics: one seed
// must always give one arrival schedule and one prompt sequence (down to
// the request bytes), another seed another, and every percentile must carry
// its sample count.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

#include "workloads.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool same_refs(const std::vector<PromptRef>& a, const std::vector<PromptRef>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].base != b[i].base || a[i].unique != b[i].unique) return false;
  }
  return true;
}

bool same_request(const netllm::serve::VpRequest& a, const netllm::serve::VpRequest& b) {
  return a.horizon == b.horizon && a.history.size() == b.history.size() &&
         std::memcmp(a.history.data(), b.history.data(),
                     a.history.size() * sizeof(netllm::vp::Viewport)) == 0 &&
         a.saliency.data().size() == b.saliency.data().size() &&
         std::memcmp(a.saliency.data().data(), b.saliency.data().data(),
                     a.saliency.data().size() * sizeof(float)) == 0;
}

}  // namespace

int selftest() {
  g_failures = 0;

  // Arrival schedules.
  const auto s1 = poisson_schedule(42, 200.0, 5.0);
  const auto s2 = poisson_schedule(42, 200.0, 5.0);
  const auto s3 = poisson_schedule(43, 200.0, 5.0);
  expect(s1 == s2, "same seed gives the same arrival schedule");
  expect(s1 != s3, "another seed gives another arrival schedule");
  expect(s1.size() > 800 && s1.size() < 1200, "arrival count near rate x duration");
  bool sorted = true;
  for (std::size_t i = 1; i < s1.size(); ++i) sorted = sorted && s1[i] > s1[i - 1];
  expect(sorted && !s1.empty() && s1.front() >= 0.0 && s1.back() < 5.0,
         "arrivals ascend inside the phase");

  // Prompt sequences.
  const auto p1 = prompt_sequence(7, 2000, 0.25, 4, 48, 1);
  const auto p2 = prompt_sequence(7, 2000, 0.25, 4, 48, 1);
  const auto p3 = prompt_sequence(8, 2000, 0.25, 4, 48, 1);
  expect(same_refs(p1, p2), "same seed gives the same prompt sequence");
  expect(!same_refs(p1, p3), "another seed gives another prompt sequence");
  std::size_t hot = 0;
  std::set<std::uint32_t> uniques;
  for (const auto& r : p1) {
    if (r.unique == 0) {
      ++hot;
      expect(r.base < 4, "hot prompts come from the hot pool");
    } else {
      uniques.insert(r.unique);
      expect(r.base >= 4 && r.base < 48, "unique prompts come from the cold pool");
    }
  }
  expect(std::fabs(static_cast<double>(hot) / p1.size() - 0.25) < 0.05, "hot share near 0.25");
  expect(uniques.size() == p1.size() - hot, "every unique prompt id is distinct");

  // The requests built from a sequence: byte-identical for one seed.
  const auto base1 = vp_base_samples(3), base2 = vp_base_samples(3), base3 = vp_base_samples(4);
  bool same = base1.size() == base2.size() && !base1.empty();
  for (std::size_t i = 0; same && i < 64; ++i) {
    same = same_request(vp_request(base1, p1[i], 20), vp_request(base2, p2[i], 20));
  }
  expect(same, "same seed gives byte-identical VP requests");
  expect(!same_request(vp_request(base1, p1[0], 20), vp_request(base3, p1[0], 20)),
         "another seed gives other VP requests");
  const PromptRef a{5, 1}, b{5, 2};
  expect(!same_request(vp_request(base1, a, 20), vp_request(base1, b, 20)),
         "unique ids give distinct prompts");

  // Percentiles carry their sample count.
  std::vector<double> xs;
  for (int i = 1; i <= 10; ++i) xs.push_back(i);
  const auto med = percentile(xs, 50.0);
  expect(med.n == 10 && std::fabs(med.value - 5.5) < 1e-12, "p50 of 1..10 is 5.5 with n=10");
  expect(percentile(xs, 99.0).n == 10, "p99 reports its sample count");
  expect(percentile({}, 50.0).n == 0, "empty input reports n=0");
  expect(derive_seed(1, 10) != derive_seed(1, 11), "phase streams differ");

  std::printf("selftest: %s (%d failures)\n", g_failures == 0 ? "ok" : "FAILED", g_failures);
  return g_failures;
}

}  // namespace perfbench
