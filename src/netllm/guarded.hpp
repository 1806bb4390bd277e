// Guarded inference (serving hardening): wrap the NetLLM adapters with a
// per-decision latency budget, output-validity checks and a rule-based
// fallback — the paper's "always a valid answer in one forward pass" promise
// enforced even when the LLM path throws, emits non-finite values or blows
// its deadline. A small circuit breaker stops hammering a failing LLM: after
// `breaker_threshold` consecutive failures every decision is served by the
// fallback for `breaker_cooldown` decisions, then the LLM is probed again.
//
// `GuardEngine` is the one guard/breaker state machine: the three Guarded*
// wrappers below and the serving engine's three tasks (netllm/serve) all
// decide through it. Its counters are exported through core::metrics
// handles registered once (prefix + {llm_ok, fallback, fail.exception,
// fail.invalid, fail.latency, breaker.trips, retry, shed} and the
// prefix + health gauge) so benches can report fallback rates.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/timer.hpp"
#include "envs/abr/policy.hpp"
#include "envs/cjs/simulator.hpp"
#include "envs/vp/dataset.hpp"

namespace netllm::adapt {

struct GuardConfig {
  double latency_budget_ms = 0.0;  // 0 = no deadline
  int breaker_threshold = 3;       // consecutive failures that open the breaker
  int breaker_cooldown = 8;        // decisions served by fallback while open
  std::string counter_prefix;      // core::metrics namespace, e.g. "guard.abr."; empty = none
};

/// Coarse task health, exported as the <prefix>health gauge and derived
/// from the guard state: Healthy while the LLM path answers first try,
/// Degraded once failures or retries appear but the breaker is still
/// closed, Open while the breaker serves the fallback.
enum class Health : int { kHealthy = 0, kDegraded = 1, kOpen = 2 };

/// Stable lowercase name ("healthy" / "degraded" / "open").
inline const char* health_name(Health h) {
  switch (h) {
    case Health::kHealthy: return "healthy";
    case Health::kDegraded: return "degraded";
    default: return "open";
  }
}

/// Which path served a guarded decision.
enum class Source {
  kLlm,       // primary model, first attempt
  kFallback,  // rule-based fallback after failure or while the breaker is open
  kRetried,   // primary model, after >= 1 transient-failure retry
  kShed,      // fallback without touching the primary: queue overflow victim,
              // admission deadline already missed, KV budget exhausted, or
              // shutdown drain
};

/// Stable lowercase name ("llm" / "fallback" / "retried" / "shed").
const char* source_name(Source s);

/// What one guarded decision did.
struct Decision {
  Source source = Source::kFallback;
  int retries = 0;  // transient-failure retries actually spent
};

struct GuardCounters {
  std::int64_t llm_ok = 0;          // decisions served by the LLM path
  std::int64_t fallback = 0;        // decisions served by the fallback
  std::int64_t fail_exception = 0;  // LLM path threw
  std::int64_t fail_invalid = 0;    // LLM output failed validation
  std::int64_t fail_latency = 0;    // LLM answer arrived past the budget
  std::int64_t breaker_trips = 0;   // times the breaker opened
  std::int64_t retries = 0;         // extra primary attempts after transient failures
  std::int64_t shed = 0;            // decisions shed straight to the fallback
                                    // (overload / deadline / shutdown drain)

  std::int64_t decisions() const { return llm_ok + fallback + shed; }
  std::int64_t failures() const { return fail_exception + fail_invalid + fail_latency; }
  GuardCounters& operator+=(const GuardCounters& o);
  bool operator==(const GuardCounters&) const = default;
};

/// Output validity, shared by the guarded wrappers and the serving engine.
/// VP: exactly `horizon` viewports, every coordinate finite.
bool valid_viewports(const std::vector<vp::Viewport>& out, int horizon);
/// ABR: the level indexes the observation's bitrate ladder.
bool valid_level(int level, const abr::Observation& obs);
/// CJS: the action indexes the runnable-stage list and the executor-cap menu.
bool valid_action(const cjs::SchedAction& a, const cjs::SchedObservation& obs);

/// The fallback a guarded task serves when none is given: `fallback` itself
/// when set, else the task's rule-based baseline — LR for VP (paper §A.3),
/// BBA for ABR, FIFO for CJS. Shared by the Guarded* wrappers and the
/// serving engine.
std::shared_ptr<vp::VpPredictor> fallback_or_default(std::shared_ptr<vp::VpPredictor> fallback);
std::shared_ptr<abr::AbrPolicy> fallback_or_default(std::shared_ptr<abr::AbrPolicy> fallback);
std::shared_ptr<cjs::SchedPolicy> fallback_or_default(std::shared_ptr<cjs::SchedPolicy> fallback);

/// Thread-safe budget/validity/breaker engine. Its mutex covers the
/// bookkeeping transitions only: the primary and the fallback run outside
/// it, so a slow (or stateful, or throwing) call never serializes other
/// decisions' bookkeeping. Bookkeeping time, lock wait included, is traced
/// as the `guard` phase.
class GuardEngine {
 public:
  explicit GuardEngine(GuardConfig cfg);
  GuardEngine(const GuardEngine&) = delete;
  GuardEngine& operator=(const GuardEngine&) = delete;

  /// Runs one guarded decision: `primary` produces an action, `valid` vets
  /// it, `fallback` serves it when the LLM path fails or the breaker is open.
  /// The fallback itself is trusted — rule-based baselines are total.
  template <typename Action, typename Primary, typename Validate, typename Fallback>
  Action decide(Primary&& primary, Validate&& valid, Fallback&& fallback) {
    Decision decision;
    const auto no_retry = [](int) { return -1.0; };
    return decide<Action>(primary, valid, fallback, false, no_retry, decision);
  }

  /// The same decision with per-request inputs from a serving front end.
  /// `shed` serves the fallback without calling the primary — load, not a
  /// model failure, so the breaker and health stay untouched (a
  /// `nn::KvArena::Exhausted` thrown by the primary is shed the same way).
  /// After the n-th transient failure (a throw or invalid output; a latency
  /// overrun never retries) `retry(n)` returns the backoff in ms before the
  /// next attempt, or a negative value to serve the fallback instead.
  /// `out` reports the serving path and the retries spent.
  template <typename Action, typename Primary, typename Validate, typename Fallback,
            typename Retry>
  Action decide(Primary&& primary, Validate&& valid, Fallback&& fallback, bool shed,
                Retry&& retry, Decision& out) {
    if (!admit(shed, out)) return fallback();
    Action action{};
    Fail fail = Fail::kNone;
    for (;;) {
      const core::Timer timer;
      try {
        action = primary();
        fail = over_budget(timer) ? Fail::kLatency
               : valid(action)    ? Fail::kNone
                                  : Fail::kInvalid;
      } catch (...) {
        // Anything a plugged-in model throws, std::exception or not, degrades
        // this one decision instead of escaping into the caller's batch.
        fail = classify_current_exception();
      }
      if (fail != Fail::kException && fail != Fail::kInvalid) break;
      const double backoff_ms = retry(out.retries + 1);
      if (backoff_ms < 0.0) break;
      ++out.retries;
      record_retry(fail, backoff_ms);
    }
    if (settle(fail, out)) return action;
    return fallback();
  }

  GuardCounters counters() const;
  bool breaker_open() const;
  /// Healthy after a first-try success, Degraded while failures accumulate
  /// below the breaker threshold, Open while the breaker cools down.
  Health health() const;
  const GuardConfig& config() const { return cfg_; }

 private:
  enum class Fail { kNone, kException, kInvalid, kLatency, kShed };

  bool over_budget(const core::Timer& t) const {
    return cfg_.latency_budget_ms > 0.0 && t.elapsed_ms() > cfg_.latency_budget_ms;
  }
  /// Classifies the in-flight exception; call only inside a catch block.
  static Fail classify_current_exception();
  /// Shed or breaker cooldown: counts the fallback and returns false.
  bool admit(bool shed, Decision& out);
  /// Counts a failed attempt that will be retried, then sleeps the backoff.
  void record_retry(Fail fail, double backoff_ms);
  /// Final bookkeeping; true when the primary's action is served.
  bool settle(Fail fail, Decision& out);
  void count_failure(Fail fail);  // caller holds mu_
  void set_health(Health h);      // caller holds mu_

  GuardConfig cfg_;
  mutable std::mutex mu_;
  GuardCounters counters_;
  int consecutive_failures_ = 0;
  int cooldown_left_ = 0;
  Health health_ = Health::kHealthy;

  // Registered once from cfg_.counter_prefix; all null when it is empty.
  struct Handles {
    core::metrics::Counter* llm_ok = nullptr;
    core::metrics::Counter* fallback = nullptr;
    core::metrics::Counter* fail_exception = nullptr;
    core::metrics::Counter* fail_invalid = nullptr;
    core::metrics::Counter* fail_latency = nullptr;
    core::metrics::Counter* breaker_trips = nullptr;
    core::metrics::Counter* retries = nullptr;
    core::metrics::Counter* shed = nullptr;
    core::metrics::Gauge* health = nullptr;
  } m_;
};

/// VP: falls back to the LR baseline (paper §A.3) by default. A prediction
/// is valid when it has `horizon` entries, all coordinates finite.
class GuardedVpPredictor final : public vp::VpPredictor {
 public:
  explicit GuardedVpPredictor(std::shared_ptr<vp::VpPredictor> primary,
                              std::shared_ptr<vp::VpPredictor> fallback = nullptr,
                              GuardConfig cfg = {});

  std::string name() const override;
  std::vector<vp::Viewport> predict(std::span<const vp::Viewport> history,
                                    const tensor::Tensor& saliency, int horizon) override;

  GuardCounters counters() const { return engine_.counters(); }
  bool breaker_open() const { return engine_.breaker_open(); }
  Health health() const { return engine_.health(); }

 private:
  std::shared_ptr<vp::VpPredictor> primary_, fallback_;
  GuardEngine engine_;
};

/// ABR: falls back to the BBA baseline by default. A decision is valid when
/// the level indexes the observation's bitrate ladder.
class GuardedAbrPolicy final : public abr::AbrPolicy {
 public:
  explicit GuardedAbrPolicy(std::shared_ptr<abr::AbrPolicy> primary,
                            std::shared_ptr<abr::AbrPolicy> fallback = nullptr,
                            GuardConfig cfg = {});

  std::string name() const override;
  void begin_session() override;
  int choose_level(const abr::Observation& obs) override;
  void observe_result(const abr::ChunkResult& result, double chunk_qoe) override;

  GuardCounters counters() const { return engine_.counters(); }
  bool breaker_open() const { return engine_.breaker_open(); }
  Health health() const { return engine_.health(); }

 private:
  std::shared_ptr<abr::AbrPolicy> primary_, fallback_;
  GuardEngine engine_;
};

/// CJS: falls back to the FIFO scheduler by default. A decision is valid
/// when it indexes the runnable-stage list and the executor-cap menu.
class GuardedSchedPolicy final : public cjs::SchedPolicy {
 public:
  explicit GuardedSchedPolicy(std::shared_ptr<cjs::SchedPolicy> primary,
                              std::shared_ptr<cjs::SchedPolicy> fallback = nullptr,
                              GuardConfig cfg = {});

  std::string name() const override;
  void begin_episode() override;
  cjs::SchedAction choose(const cjs::SchedObservation& obs) override;
  void observe_reward(double reward) override;

  GuardCounters counters() const { return engine_.counters(); }
  bool breaker_open() const { return engine_.breaker_open(); }
  Health health() const { return engine_.health(); }

 private:
  std::shared_ptr<cjs::SchedPolicy> primary_, fallback_;
  GuardEngine engine_;
};

}  // namespace netllm::adapt
