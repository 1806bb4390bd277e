// Shared harness for the serving benchmark: run options, the result record
// every workload fills, the single server loop that drives
// `serve::InferenceEngine::run()`, and the readers for the counters and
// trace histograms the program exports.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.hpp"
#include "core/metrics.hpp"
#include "envs/cjs/simulator.hpp"
#include "envs/vp/viewport.hpp"
#include "loadgen.hpp"
#include "netllm/serve.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Blocks per run: the end-to-end figures are medians over this many.
inline constexpr int kBlocks = 5;
/// Stack builds per set-up probe process; the probe reports their median.
inline constexpr int kSetupReps = 3;
/// Decision deadline: the 5 Hz VP frame budget, also applied to ABR/CJS.
inline constexpr double kDeadlineMs = 200.0;

/// Seconds since `t0`.
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_probe = false;  // only time the workload's set-up (see time_setup)
};

/// Everything one run reports. `metrics` holds the figures of the run's
/// mode (end-to-end without tracing, per-layer with it); `info` holds the
/// extra lines printed above the JSON result (fingerprint, per-task
/// breakdowns, sample counts).
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::vector<std::string> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(const std::string& line) { info.push_back(line); }
  /// Records a correctness failure; the run then exits non-zero.
  void fail_check(const std::string& why) {
    correct = false;
    info.push_back("CHECK FAILED: " + why);
  }
};

/// What the server thread stores for one answered request.
struct Answer {
  netllm::serve::Source source = netllm::serve::Source::kFallback;
  double submit_s = 0.0;  // when the client called submit(), from the run's t0
  double due_s = 0.0;     // when the request was due (open loop) or submitted
  double admission_ms = 0.0;
  double latency_ms = 0.0;    // engine serve time: policy wait + compute
  double policy_wait_ms = 0.0;
  bool valid = false;         // output passed the benchmark's own validity check
  bool keep_output = false;   // copy the VP viewports for the correctness check
  std::vector<netllm::vp::Viewport> viewports;
  int level = 0;
  netllm::cjs::SchedAction action;

  /// Copies the engine's bookkeeping for this request.
  void record(const netllm::serve::ResponseMeta& meta) {
    source = meta.source;
    admission_ms = meta.admission_wait_ms;
    latency_ms = meta.latency_ms;
    policy_wait_ms = meta.queue_wait_ms;
  }
  bool primary() const {
    return source == netllm::serve::Source::kLlm || source == netllm::serve::Source::kRetried;
  }
  /// Response time measured from the due time.
  double e2e_ms() const { return (submit_s - due_s) * 1e3 + admission_ms + latency_ms; }
};

/// The benchmark's own validity check of a VP answer: `horizon` finite
/// viewports.
bool valid_rollout(const std::vector<netllm::vp::Viewport>& viewports, int horizon);

/// Counts over a set of answers: one block of a run, or a whole phase.
struct Tally {
  std::uint64_t n = 0, primary = 0, ok = 0, in_slo = 0, invalid = 0, shed = 0, fallback = 0;
  std::vector<double> e2e_ms;  // primary, valid answers
  double wall_s = 0.0;         // time the block took to answer

  void add(const Answer& a, double deadline_ms);
  std::string summary(const std::string& what) const;
};

/// Reports the end-to-end figures as medians over blocks, so a burst of
/// outside load on the host spoils one block, not the run: p50_ms, p90_ms,
/// answered_ratio and slo_attainment from `latency`, goodput_rps and
/// decisions_per_s from `throughput`. Also notes the per-block p99s.
void report_blocks(Report& report, const std::vector<Tally>& latency,
                   const std::vector<Tally>& throughput);

/// The one thread that calls `engine.run()` for an open-loop VP generator.
/// The generator submits through it; after each drain the server copies
/// every answered ticket into its `Answer`. The engine numbers batch
/// generations 1, 2, ... one per `run()` call, so a ticket is answered once
/// the server has made `ticket.epoch` runs.
class Server {
 public:
  Server(netllm::serve::InferenceEngine& engine, int horizon) : engine_(engine), horizon_(horizon) {}

  /// Submit `req` and track its ticket. Submission and tracking happen
  /// under one lock, so no drain can answer a ticket the server does not
  /// know yet. `answer` must stay alive until answered. Rethrows the
  /// engine's `Overloaded`.
  void submit(netllm::serve::VpRequest req, Answer* answer);
  /// Serve until `close()` was called and nothing is left to answer; the
  /// server can then serve another phase.
  void loop();
  void close();

  /// Requests drained per run() call that had work.
  const std::vector<double>& drain_sizes() const { return drain_sizes_; }

 private:
  struct Tracked {
    netllm::serve::Ticket ticket;
    Answer* answer = nullptr;
  };
  /// Answer every tracked ticket the completed runs drained. Caller holds mu_.
  void resolve_locked();
  void fill(const Tracked& t);

  netllm::serve::InferenceEngine& engine_;
  const int horizon_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // a ticket was tracked, or close()
  std::deque<Tracked> tracked_;
  std::uint64_t runs_ = 0;
  bool closing_ = false;
  std::vector<double> drain_sizes_;
};

/// VmHWM of this process in MB (peak resident set).
double peak_rss_mb();

/// Lane count for the pool: the workload's wish, capped so generator
/// threads plus pool lanes stay within the host's cores. Sets
/// NETLLM_THREADS and sizes the global pool to it.
int configure_lanes(int wanted, int generator_threads, Report& report);

/// Host fingerprint lines: cores, pool lanes, ISA tiers, dtype, build type.
void fingerprint(Report& report, const std::string& dtype, int generator_threads);

/// Read-only view of one registry snapshot.
class Registry {
 public:
  Registry() : snap_(netllm::core::metrics::snapshot()) {}
  std::int64_t counter(const std::string& name) const;
  netllm::core::metrics::HistogramSnapshot histogram(const std::string& name) const;

 private:
  netllm::core::metrics::Snapshot snap_;
};

/// Inputs to the per-layer ledger that only the workload knows.
struct LedgerInputs {
  std::uint64_t decisions = 0;       // primary answers in the traced window
  double wall_s = 0.0;               // traced window length
  std::vector<double> admission_ms;  // per answered request (also counts them)
  std::vector<double> compute_ms;    // per answered request
  std::vector<double> policy_wait_ms;  // per answered request
  std::vector<double> drain_sizes;
  std::uint64_t allocations = 0;     // counted heap allocations in the window
  double client_busy_share = 0.0;    // client/generator time not spent waiting
  double generator_lag_p99_ms = 0.0;
  double kv_pages_peak = 0.0;
  double rows_per_decision = 0.0;
  double step_isolated_ms = 0.0;
  double window_isolated_ms = 0.0;
  double trace_overhead_ratio = 0.0;
};

/// Polls `probe` every millisecond on a thread of its own, from construction
/// until `stop()`, and keeps the largest value. The traced runs use it for
/// the KV pages that in-flight requests lease while `run()` drains.
class PeakSampler {
 public:
  explicit PeakSampler(std::function<double()> probe);
  ~PeakSampler() { stop(); }
  PeakSampler(const PeakSampler&) = delete;
  PeakSampler& operator=(const PeakSampler&) = delete;
  /// Stops and joins the polling thread; returns the peak.
  double stop();

 private:
  std::function<double()> probe_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  double peak_ = 0.0;
  std::thread thread_;
};

/// Fill the per-layer metrics from the registry snapshot plus `in`.
void ledger(Report& report, const Registry& reg, const LedgerInputs& in);

/// "name = value unit (n=...)" for an info line.
std::string fmt_pct(const std::string& name, const Percentile& p, const std::string& unit);

/// Set-up probe: times kSetupReps builds of a serving stack (each freed
/// before the next) in a fresh process and reports their median as setup_s.
/// On the reference host the same build takes 1.6x longer in some spells
/// than in others (no page faults, 1.6x the CPU time: the host core is shared),
/// and a spell lasts seconds to minutes, so run.py starts several probes
/// before and after the workload and reports their median.
template <typename Build>
void time_setup(Report& report, Build&& build) {
  std::vector<double> secs;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = Clock::now();
    const auto stack = build();
    secs.push_back(seconds_since(t0));
  }
  report.set("setup_s", percentile(secs, 50.0).value, "s");
  for (auto& x : secs) x *= 1e3;
  report.note(fmt_pct("setup min", percentile(secs, 0.0), "ms"));
  report.note(fmt_pct("setup max", percentile(secs, 100.0), "ms"));
}

/// Starts the traced window: zeroes the registry, so nothing recorded before
/// (set-up, warmup) can reach the ledger, and turns the registry and the
/// allocation counter on.
void start_trace_window();

/// Registry cross-check: the program's own count must equal the benchmark's.
void check_count(Report& report, const std::string& what, std::int64_t got, std::uint64_t want);

/// Time `fn` `reps` times and return the median milliseconds.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return percentile(ms, 50.0).value;
}

/// Tracing overhead of one decision call: interleaved pairs with the metrics
/// registry (and the allocation counter) off and on; median(on)/median(off)-1.
template <typename Fn>
double trace_overhead(int pairs, Fn&& fn) {
  std::vector<double> off, on;
  for (int i = 0; i < pairs; ++i) {
    for (int leg = 0; leg < 2; ++leg) {
      // Alternate which leg runs first so drift hits both equally.
      const bool traced = (leg == 0) == (i % 2 == 0);
      netllm::core::metrics::set_enabled(traced);
      alloc::set_counting(traced);
      const auto t0 = Clock::now();
      fn();
      (traced ? on : off).push_back(seconds_since(t0));
    }
  }
  netllm::core::metrics::set_enabled(true);
  alloc::set_counting(true);
  const double base = percentile(off, 50.0).value;
  return base > 0.0 ? percentile(on, 50.0).value / base - 1.0 : 0.0;
}

}  // namespace perfbench
