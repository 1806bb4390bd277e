#include "loadgen.hpp"

#include <algorithm>

#include "core/rng.hpp"
#include "core/stats.hpp"

namespace perfbench {

Percentile percentile(const std::vector<double>& xs, double p) {
  if (xs.empty()) return {};
  return {netllm::core::percentile(xs, std::clamp(p, 0.0, 100.0)), xs.size()};
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s, double duration_s) {
  std::vector<double> due;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return due;
  due.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.2) + 16);
  netllm::core::Rng rng(seed);
  for (double t = 0.0;;) {
    t += rng.exponential(rate_per_s);
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

std::vector<PromptRef> prompt_sequence(std::uint64_t seed, std::size_t count, double hot_share,
                                       std::uint32_t n_hot, std::uint32_t n_base,
                                       std::uint32_t first_unique) {
  std::vector<PromptRef> out;
  out.reserve(count);
  netllm::core::Rng rng(seed);
  std::uint32_t next_unique = std::max<std::uint32_t>(first_unique, 1);
  for (std::size_t i = 0; i < count; ++i) {
    if (n_hot > 0 && rng.uniform() < hot_share) {
      out.push_back({static_cast<std::uint32_t>(rng.randint(0, n_hot - 1)), 0});
    } else {
      out.push_back({static_cast<std::uint32_t>(rng.randint(n_hot, n_base - 1)), next_unique++});
    }
  }
  return out;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace perfbench
