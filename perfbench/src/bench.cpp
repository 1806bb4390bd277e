#include "bench.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/threadpool.hpp"
#include "tensor/isa.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace serve = netllm::serve;

void Server::submit(serve::VpRequest req, Answer* answer) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto ticket = engine_.submit(std::move(req));
  tracked_.push_back({ticket, answer});
  work_cv_.notify_one();
}

void Server::close() {
  std::lock_guard<std::mutex> lk(mu_);
  closing_ = true;
  work_cv_.notify_all();
}

void Server::loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    resolve_locked();
    if (tracked_.empty()) {
      if (closing_) {
        closing_ = false;  // the next phase serves through the same engine
        return;
      }
      work_cv_.wait(lk, [&] { return closing_ || !tracked_.empty(); });
      continue;
    }
    lk.unlock();
    const auto report = engine_.run();
    lk.lock();
    ++runs_;
    if (report.requests > 0) drain_sizes_.push_back(static_cast<double>(report.requests));
  }
}

void Server::resolve_locked() {
  while (!tracked_.empty() && tracked_.front().ticket.epoch <= runs_) {
    const Tracked t = tracked_.front();
    tracked_.pop_front();
    // Only the latest generation is readable; an older one means a drain
    // was missed and its answers are gone.
    if (t.ticket.epoch != runs_) {
      throw std::logic_error("perfbench: ticket of batch " + std::to_string(t.ticket.epoch) +
                             " read after batch " + std::to_string(runs_));
    }
    fill(t);
  }
}

void Server::fill(const Tracked& t) {
  Answer& a = *t.answer;
  const auto& r = engine_.vp_response(t.ticket);
  a.valid = valid_rollout(r.viewports, horizon_);
  if (a.keep_output) a.viewports = r.viewports;
  a.record(r.meta);
}

bool valid_rollout(const std::vector<netllm::vp::Viewport>& viewports, int horizon) {
  if (viewports.size() != static_cast<std::size_t>(horizon)) return false;
  for (const auto& v : viewports) {
    if (!std::isfinite(v.roll) || !std::isfinite(v.pitch) || !std::isfinite(v.yaw)) return false;
  }
  return true;
}

void Tally::add(const Answer& a, double deadline_ms) {
  ++n;
  if (!a.valid) ++invalid;
  if (a.source == serve::Source::kShed) ++shed;
  if (a.source == serve::Source::kFallback) ++fallback;
  if (!a.primary()) return;
  ++primary;
  if (!a.valid) return;
  ++ok;
  e2e_ms.push_back(a.e2e_ms());
  if (a.e2e_ms() <= deadline_ms) ++in_slo;
}

std::string Tally::summary(const std::string& what) const {
  return what + ": attempted=" + std::to_string(n) + " primary=" + std::to_string(primary) +
         " shed=" + std::to_string(shed) + " fallback=" + std::to_string(fallback) +
         " invalid=" + std::to_string(invalid) + " within_deadline=" + std::to_string(in_slo);
}

void report_blocks(Report& report, const std::vector<Tally>& latency,
                   const std::vector<Tally>& throughput) {
  std::vector<double> p50, p90, answered, slo, goodput, decisions;
  std::string p99s;
  for (const auto& b : latency) {
    const double n = static_cast<double>(std::max<std::uint64_t>(b.n, 1));
    const auto tail = percentile(b.e2e_ms, 99.0);
    p50.push_back(percentile(b.e2e_ms, 50.0).value);
    p90.push_back(percentile(b.e2e_ms, 90.0).value);
    answered.push_back(static_cast<double>(b.ok) / n);
    slo.push_back(static_cast<double>(b.in_slo) / n);
    char buf[48];
    std::snprintf(buf, sizeof(buf), " %.2f(n=%zu)", tail.value, tail.n);
    p99s += buf;
  }
  for (const auto& b : throughput) {
    goodput.push_back(b.wall_s > 0.0 ? static_cast<double>(b.in_slo) / b.wall_s : 0.0);
    decisions.push_back(b.wall_s > 0.0 ? static_cast<double>(b.ok) / b.wall_s : 0.0);
  }
  const auto median = [](const std::vector<double>& xs) { return percentile(xs, 50.0).value; };
  report.note("p99_ms per block:" + p99s);
  std::string p50s, rates;
  for (std::size_t i = 0; i < p50.size(); ++i) p50s += " " + std::to_string(p50[i]);
  for (const double g : decisions) rates += " " + std::to_string(g);
  report.note("p50_ms per block:" + p50s);
  report.note("decisions_per_s per block:" + rates);
  report.note("error_ratio = " + std::to_string(1.0 - median(answered)) +
              " share (1 - answered_ratio)");
  report.set("p50_ms", median(p50), "ms");
  report.set("p90_ms", median(p90), "ms");
  report.set("answered_ratio", median(answered), "share");
  report.set("slo_attainment", median(slo), "share");
  report.set("goodput_rps", median(goodput), "1/s");
  report.set("decisions_per_s", median(decisions), "1/s");
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

namespace {

int host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

}  // namespace

int configure_lanes(int wanted, int generator_threads, Report& report) {
  const int cores = host_cores();
  const int lanes = std::max(1, std::min(wanted, cores - generator_threads));
  setenv("NETLLM_THREADS", std::to_string(lanes).c_str(), 1);
  netllm::core::set_global_threads(lanes);
  if (netllm::core::global_threads() != lanes) {
    throw std::runtime_error("perfbench: could not size the pool to " + std::to_string(lanes));
  }
  if (generator_threads + lanes > cores) {
    report.note("WARNING: " + std::to_string(generator_threads) + " generator threads + " +
                std::to_string(lanes) + " lanes exceed " + std::to_string(cores) + " cores");
  }
  return lanes;
}

void fingerprint(Report& report, const std::string& dtype, int generator_threads) {
  namespace isa = netllm::tensor::isa;
  std::ostringstream os;
  os << "host: nproc=" << host_cores() << " NETLLM_THREADS=" << netllm::core::global_threads()
     << " generator_threads=" << generator_threads
     << " isa.active=" << isa::isa_name(isa::active_isa())
     << " isa.best=" << isa::isa_name(isa::best_isa()) << " backbone_dtype=" << dtype
     << " build=" << PERFBENCH_BUILD_TYPE << " compiler=" << __VERSION__;
  report.note(os.str());
}

std::int64_t Registry::counter(const std::string& name) const {
  for (const auto& [n, v] : snap_.counters) {
    if (n == name) return v;
  }
  return 0;
}

netllm::core::metrics::HistogramSnapshot Registry::histogram(const std::string& name) const {
  for (const auto& [n, h] : snap_.histograms) {
    if (n == name) return h;
  }
  return {};
}

void start_trace_window() {
  netllm::core::metrics::reset();
  netllm::core::metrics::set_enabled(true);
  alloc::set_counting(true);
}

void check_count(Report& report, const std::string& what, std::int64_t got, std::uint64_t want) {
  report.note("registry check " + what + ": " + std::to_string(got) + " vs " + std::to_string(want));
  if (got != static_cast<std::int64_t>(want)) {
    report.fail_check("registry count " + what + " disagrees with the benchmark");
  }
}

PeakSampler::PeakSampler(std::function<double()> probe) : probe_(std::move(probe)) {
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lk(mu_);
    while (!stopping_) {
      peak_ = std::max(peak_, probe_());
      cv_.wait_for(lk, std::chrono::milliseconds(1), [this] { return stopping_; });
    }
  });
}

double PeakSampler::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  return peak_;
}

std::string fmt_pct(const std::string& name, const Percentile& p, const std::string& unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s = %.4f %s (n=%zu)", name.c_str(), p.value, unit.c_str(),
                p.n);
  return buf;
}

void ledger(Report& report, const Registry& reg, const LedgerInputs& in) {
  // Counts and sums grow with the work a fixed-length run gets through, so
  // they are reported per primary decision (or per request), never raw.
  const double d = static_cast<double>(std::max<std::uint64_t>(in.decisions, 1));
  const double requests = static_cast<double>(std::max<std::size_t>(in.admission_ms.size(), 1));
  const auto sum3 = [&](const char* leaf) {
    return static_cast<double>(reg.counter(std::string("serve.vp.") + leaf) +
                               reg.counter(std::string("serve.abr.") + leaf) +
                               reg.counter(std::string("serve.cjs.") + leaf));
  };
  const auto phase = [&](const char* name) { return reg.histogram(std::string("trace.") + name); };

  // serve: admission, batching, the engine's own share of a scheduler step.
  report.set("serve.admission_wait_ms.p50", percentile(in.admission_ms, 50.0).value, "ms");
  report.set("serve.admission_wait_ms.p99", percentile(in.admission_ms, 99.0).value, "ms");
  const auto& ds = in.drain_sizes;
  report.set("serve.drain_size.mean",
             ds.empty() ? 0.0 : std::accumulate(ds.begin(), ds.end(), 0.0) / ds.size(), "count");
  report.set("serve.compute_ms.p50", percentile(in.compute_ms, 50.0).value, "ms");
  report.set("serve.policy_wait_ms.p99", percentile(in.policy_wait_ms, 99.0).value, "ms");
  report.set("serve.shed.share", sum3("shed") / requests, "share");
  report.set("serve.fallback.share", sum3("fallback") / requests, "share");
  const double step_sum = phase("sched.step").sum;
  double children = 0.0;
  for (const char* c : {"encode", "prefill", "decode_step", "head", "guard"}) {
    children += phase(c).sum;
  }
  report.set("serve.sched_self.share", step_sum > 0.0 ? (step_sum - children) / step_sum : 0.0,
             "share");

  // netllm: encoders and heads.
  report.set("netllm.encode_ms.per_decision", phase("encode").sum / d, "ms");
  report.set("netllm.head_ms.per_decision", phase("head").sum / d, "ms");

  // llm: backbone passes in the engine, and the same shapes in isolation.
  report.set("llm.prefill.per_decision", static_cast<double>(phase("prefill").count) / d, "count");
  report.set("llm.prefill_ms.per_decision", phase("prefill").sum / d, "ms");
  report.set("llm.decode_step.per_decision", static_cast<double>(phase("decode_step").count) / d,
             "count");
  report.set("llm.decode_step_ms.p50", phase("decode_step").p50, "ms");
  report.set("llm.rows_per_decision", in.rows_per_decision, "rows");
  report.set("llm.step_isolated_ms", in.step_isolated_ms, "ms");
  report.set("llm.window_isolated_ms", in.window_isolated_ms, "ms");

  // nn: the KV arena.
  const double hits = static_cast<double>(reg.counter("kv.prefix.hits"));
  const double misses = static_cast<double>(reg.counter("kv.prefix.misses"));
  report.set("kv.prefix_hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "share");
  report.set("kv.pages_in_use.peak", in.kv_pages_peak, "pages");
  report.set("kv.evictions.per_decision", static_cast<double>(reg.counter("kv.arena.evictions")) / d,
             "count");

  // tensor: kernel work per decision; bytes are computed from tensor shapes
  // by the kernels' own counters, not measured on the memory bus.
  double bytes = 0.0;
  for (const char* k : {"matmul", "qmatmul"}) {
    const std::string base = std::string("kernels.") + k + ".";
    for (const char* leaf : {"calls", "flops", "bytes"}) {
      const double v = static_cast<double>(reg.counter(base + leaf));
      report.set(base + leaf + ".per_decision", v / d,
                 std::string(leaf) == "calls" ? "count" : std::string(leaf) == "flops" ? "flop" : "B");
      if (std::string(leaf) == "bytes") bytes += v;
    }
  }
  report.set("kernels.bytes_per_s", in.wall_s > 0.0 ? bytes / in.wall_s : 0.0, "B/s");

  // core: heap allocations and pool waits.
  report.set("core.allocs_per_decision", static_cast<double>(in.allocations) / d, "count");
  report.set("core.pool_wait_ms.per_decision", phase("pool.wait").sum / d, "ms");

  // Validity guards on the numbers above.
  report.set("client.sim.share", in.client_busy_share, "share");
  report.set("generator.lag_ms.p99", in.generator_lag_p99_ms, "ms");
  report.set("trace.overhead_ratio", in.trace_overhead_ratio, "share");
}

}  // namespace perfbench
