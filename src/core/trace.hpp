// Scoped trace spans (DESIGN.md §11): attribute wall time to the fixed
// phase taxonomy of the serving/adaptation stack —
//
//   encode      multimodal encoder building the token-like sequence
//   prefill     backbone forward over a full sequence (prompt prefill, the
//               embedding-path forward, and each re-forward of the uncached
//               Fig. 2 generate loop's first step)
//   decode_step one-token incremental forward (KV-cached; the uncached
//               loop's per-token re-forwards are attributed here too, which
//               is exactly the Fig. 2 right phenomenon made visible)
//   head        networking-head readout (regression / action logits)
//   guard       guard-state bookkeeping incl. waiting on the guard mutex
//   checkpoint  durable-session checkpoint writes
//   pool.wait   caller-side wait for ThreadPool workers to drain a
//               parallel_for
//   sched.step  one scheduler slot serving one queued request end to end
//               (serve::InferenceEngine::run, DESIGN.md §13)
//
// A `Span` is RAII: it reads the clock on entry and on destruction records
// the elapsed milliseconds into the phase's `core::metrics` histogram
// (named trace.<phase>) and bumps trace.<phase>.count. With metrics
// disabled the constructor is one relaxed atomic load — no clock read, no
// record. Spans never touch RNG streams or float math, so they cannot
// perturb the bitwise determinism contracts. Nested spans each record their
// own wall time (attribution is per-phase, not exclusive/self time).
#pragma once

#include <chrono>

#include "core/metrics.hpp"

namespace netllm::core::trace {

enum class Phase : int {
  kEncode = 0,
  kPrefill,
  kDecodeStep,
  kHead,
  kGuard,
  kCheckpoint,
  kPoolWait,
  kSchedStep,  // one scheduler slot executing one queued request (§13)
  kCount,
};

/// Stable lowercase phase name ("encode", ..., "sched.step").
const char* phase_name(Phase p);

/// The histogram backing a phase (registered on first use).
metrics::Histogram& phase_histogram(Phase p);

/// Record `ms` against a phase without a Span (pre-measured intervals).
void record(Phase p, double ms);

class Span {
 public:
  explicit Span(Phase p) noexcept : active_(metrics::enabled()), phase_(p) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~Span() {
    if (!active_) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    record(phase_, static_cast<double>(ns) * 1e-6);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
  Phase phase_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace netllm::core::trace
