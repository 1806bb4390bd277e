// Batched inference front end (DESIGN.md §10, §12): queue VP/ABR/CJS
// embedding-path requests, drain them concurrently over the shared
// `core::ThreadPool`, and guard every request individually through one
// `adapt::GuardEngine` per task (netllm/guarded: latency budget, validity,
// circuit breaker) plus a rule-based fallback (LR / BBA / FIFO) — one
// poisoned or faulted request degrades to its fallback without touching the
// rest of the batch.
//
// The engine-level overload layer (DESIGN.md §12) sits in front of that
// per-request guard: a bounded admission queue with a configurable full-queue
// policy (block / reject with the named `Overloaded` error / shed-oldest to
// the fallback), an admission deadline judged on queue wait PLUS compute,
// deterministic seeded retry/backoff for transient primary failures, a
// per-task Healthy → Degraded → Open health state exported as a gauge, and a
// graceful drain that honors the `core/signal` stop flag.
//
// Determinism: each request's tensor work runs inside a `parallel_for`
// worker, where nested parallel ops execute inline (DESIGN.md §8), so every
// response is bitwise identical to serving that request alone, at any
// `NETLLM_THREADS`. Only the interleaving of the shared counters varies.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "envs/abr/policy.hpp"
#include "envs/cjs/simulator.hpp"
#include "envs/vp/dataset.hpp"
#include "netllm/guarded.hpp"
#include "tensor/quants.hpp"

namespace netllm::nn {
class KvArena;
}

namespace netllm::serve {

/// Which path produced a response (see adapt::Source).
using adapt::Source;
using adapt::source_name;

struct ResponseMeta {
  Source source = Source::kFallback;
  double latency_ms = 0.0;     // serve wall time: queue_wait + compute
  double queue_wait_ms = 0.0;  // time blocked on the per-task policy mutex
  // Time inside the guarded decision itself. The engine's latency budget is
  // enforced against the primary model call in here — a request that waits
  // long on a contended policy mutex but computes fast does NOT trip the
  // budget; `queue_wait_ms` makes that contention visible separately.
  double compute_ms = 0.0;
  // Time from submit() to a drain worker picking the request up. The
  // admission deadline (EngineConfig::deadline_ms) is judged end-to-end:
  // admission_wait_ms + latency_ms, never compute alone.
  double admission_wait_ms = 0.0;
  int retries = 0;        // transient-failure retries actually spent
  bool slo_miss = false;  // deadline_ms > 0 and the end-to-end time blew it
};

struct VpRequest {
  std::vector<vp::Viewport> history;
  tensor::Tensor saliency;
  int horizon = 0;
};
struct VpResponse {
  std::vector<vp::Viewport> viewports;
  ResponseMeta meta;
};

struct AbrRequest {
  abr::Observation obs;
};
struct AbrResponse {
  int level = 0;
  ResponseMeta meta;
};

struct CjsRequest {
  cjs::SchedObservation obs;
};
struct CjsResponse {
  cjs::SchedAction action;
  ResponseMeta meta;
};

/// The three served tasks; each owns one lane of the engine.
enum class Task : std::uint8_t { kVp = 0, kAbr = 1, kCjs = 2 };

/// Handle returned by `submit`: identifies one response slot of one task in
/// the batch generation (`epoch`) that will serve it. Tickets from a
/// previous generation do not alias into the current one — looking them up
/// throws `StaleTicket` instead of silently returning another request's
/// answer — and a ticket presented to another task's lookup throws
/// `std::out_of_range`, even when that task has a response at its index.
struct Ticket {
  std::uint64_t epoch = 0;  // run() generation that serves this request
  std::size_t index = 0;    // slot in that generation's response vector
  Task task = Task::kVp;    // the lane whose queue issued this ticket
};

/// A ticket was presented to the wrong batch generation: either its batch
/// has not been drained by `run()` yet, or a later `run()` already replaced
/// those responses. The message names the presented {epoch, index} and the
/// engine's current completed epoch.
class StaleTicket : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// Admission was refused: the bounded queue is full under the Reject policy,
/// or the engine stopped admitting because a shutdown was requested. The
/// caller holds no ticket — nothing was queued.
class Overloaded : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// What `submit` does when the admission queue is at `max_queue`.
enum class AdmissionPolicy {
  kBlock,       // wait for a run() drain to free space (concurrent producers)
  kReject,      // throw the named Overloaded error; nothing is queued
  kShedOldest,  // mark the oldest queued request shed-to-fallback, admit the new one
};

/// Aggregate result of one `run()` drain.
struct BatchReport {
  std::size_t requests = 0;
  std::size_t llm = 0;       // served by the LLM path first try
  std::size_t retried = 0;   // served by the LLM path after >= 1 retry
  std::size_t fallback = 0;  // served by the rule-based fallback
  std::size_t shed = 0;      // shed straight to the fallback (no primary call)
  std::size_t slo_miss = 0;  // end-to-end time past deadline_ms (0 when unset)
  double p50_ms = 0.0;       // serve-side decision latency percentiles
  double p99_ms = 0.0;
  double wait_p50_ms = 0.0;  // mutex-wait share (queue_wait_ms percentiles)
  double wait_p99_ms = 0.0;
  double compute_p50_ms = 0.0;  // guarded-decision share (compute_ms)
  double compute_p99_ms = 0.0;
  double e2e_p50_ms = 0.0;  // admission_wait + latency (what deadline_ms judges)
  double e2e_p99_ms = 0.0;
  bool drained_on_stop = false;  // a shutdown request shed (part of) this drain
  std::size_t prefix_hits = 0;   // KV-arena warm-prefix adoptions in this drain

  /// Fraction of requests inside deadline_ms; 1.0 when no deadline is set.
  double slo_attainment() const {
    return requests == 0 ? 1.0
                         : 1.0 - static_cast<double>(slo_miss) / static_cast<double>(requests);
  }
};

struct EngineConfig {
  double latency_budget_ms = 0.0;       // per primary call; 0 = no budget
  int breaker_threshold = 3;            // consecutive failures opening the breaker
  int breaker_cooldown = 8;             // requests served by fallback while open

  // ---- admission control (DESIGN.md §12) ----
  std::size_t max_queue = 0;  // bound on queued-unshed requests; 0 = unbounded
  AdmissionPolicy admission = AdmissionPolicy::kReject;
  // End-to-end SLO per request: admission wait + policy-mutex wait + compute.
  // A request whose deadline already passed when a worker picks it up is shed
  // straight to the fallback without burning primary compute. 0 = none.
  double deadline_ms = 0.0;

  // ---- transient-failure retry ----
  int retry_budget = 0;           // extra primary attempts per request
  double retry_backoff_ms = 0.0;  // base backoff; doubles per attempt, jittered
  std::uint64_t retry_seed = 0x5eedb0ffULL;  // seeds the deterministic jitter

  // ---- scheduler & pooled KV arena (DESIGN.md §13) ----
  // run() drains through `max_slots` in-flight slots that pull the next
  // queued request the moment one finishes (continuous batching); 0 means
  // one slot per request, the pre-§13 behavior. The drain order is
  // deterministic: task priority (higher first), then admission order.
  std::size_t max_slots = 0;
  int vp_priority = 0;
  int abr_priority = 0;
  int cjs_priority = 0;
  // KV arena attached to a VpAdapter primary: page budget in pages of
  // `arena_page_rows` positions (0 disables pooling/prefix sharing; see
  // nn/kv_arena.hpp for the page math and DESIGN.md §13 for sizing it from
  // the kv.appended_bytes counter).
  std::int64_t arena_pages = 4096;
  std::int64_t arena_page_rows = 16;
  std::size_t arena_prefix_entries = 32;  // warm prompt-skeleton slots; 0 = no sharing

  // ---- block-quantized backbone (DESIGN.md §15) ----
  // Weight dtype for every adapter primary's backbone projections: kQ8_0 /
  // kQ4_0 cut the resident weight bytes ~4x / ~7x and serve decode through
  // the integer-dot kernels; LoRA deltas, heads and checkpoints stay fp32.
  tensor::quant::Dtype backbone_dtype = tensor::quant::Dtype::kF32;
};

/// Deterministic backoff before retry number `attempt` (1-based) of the
/// request identified by `request_key`: retry_backoff_ms * 2^(attempt-1),
/// jittered to [0.5x, 1.5x) by a core::Rng stream seeded from retry_seed ^
/// request_key — the same request retries with the same delays in every run
/// and at every NETLLM_THREADS.
double retry_backoff_ms(const EngineConfig& cfg, std::uint64_t request_key, int attempt);

/// KV-cache-era serving substrate: one engine owns up to three adapted
/// models (any subset), each in its own lane with a guard state and a
/// fallback. All metrics go under `serve.` (`serve.<task>.` per lane).
/// `submit` enqueues (thread-safe, subject to admission control) and returns
/// a `Ticket` for the matching response slot; `run()` drains the queues and
/// fills `*_responses()`. Once `core::stop_requested()` is set, `submit`
/// throws `Overloaded` and `run()` drains what is queued via the fallback
/// (Source::kShed), returning the final BatchReport.
class InferenceEngine {
 public:
  /// Any model may be null — submitting a request for a missing model
  /// throws. Null fallbacks default to the task's rule-based baseline
  /// (`adapt::fallback_or_default`, shared with the guarded wrappers).
  InferenceEngine(std::shared_ptr<vp::VpPredictor> vp_model,
                  std::shared_ptr<abr::AbrPolicy> abr_policy,
                  std::shared_ptr<cjs::SchedPolicy> cjs_policy, EngineConfig cfg = {},
                  std::shared_ptr<vp::VpPredictor> vp_fallback = nullptr,
                  std::shared_ptr<abr::AbrPolicy> abr_fallback = nullptr,
                  std::shared_ptr<cjs::SchedPolicy> cjs_fallback = nullptr);

  /// Thread-safe enqueue under the admission policy: with `max_queue` set
  /// and the queue full, kBlock waits for a drain, kReject throws the named
  /// `Overloaded` error, kShedOldest marks the oldest queued request
  /// shed-to-fallback and admits this one. Throws `Overloaded` once a
  /// shutdown was requested (admission is closed during the drain).
  Ticket submit(VpRequest req);
  Ticket submit(AbrRequest req);
  Ticket submit(CjsRequest req);
  std::size_t pending() const;

  /// Drain every queued request through the run-loop scheduler: jobs are
  /// ordered deterministically (task priority, then admission order) and
  /// `max_slots` in-flight slots pull the next job the moment one finishes —
  /// continuous batching instead of an epoch-wide barrier. Each request's
  /// tensor work still runs inline inside its slot, so every VP response
  /// stays bitwise identical to serving that request alone at any
  /// NETLLM_THREADS. ABR/CJS decisions serialize on their policy's mutex
  /// because those policies keep rolling context — `ResponseMeta::queue_wait_ms`
  /// carries the wait — so their answers are bitwise reproducible only with
  /// one slot (`max_slots = 1` or NETLLM_THREADS=1) or at most one request
  /// per stateful task in the drain: otherwise the slots take the mutex in
  /// thread-timing order and the rolling context sees them in that order.
  BatchReport run();

  /// Resolve a ticket. A ticket resolves against the most recently completed
  /// batch, and — continuous resolution — against the batch `run()` is
  /// currently draining as soon as its own request finished (no waiting for
  /// the epoch barrier). Throws `StaleTicket` if the ticket's request has no
  /// response yet or a later `run()` already replaced its generation, and
  /// `std::out_of_range` if the ticket was issued for a different task's
  /// queue or its index is past the batch.
  const VpResponse& vp_response(const Ticket& t) const;
  const AbrResponse& abr_response(const Ticket& t) const;
  const CjsResponse& cjs_response(const Ticket& t) const;

  const std::vector<VpResponse>& vp_responses() const { return vp_.responses; }
  const std::vector<AbrResponse>& abr_responses() const { return abr_.responses; }
  const std::vector<CjsResponse>& cjs_responses() const { return cjs_.responses; }

  // Session lifecycle passthroughs: both the primary and its fallback see
  // real outcomes, mirroring the guarded wrappers, so a stateful policy pair
  // stays consistent with the actual session between batches.
  void begin_abr_session();
  void observe_abr_result(const abr::ChunkResult& result, double chunk_qoe);
  void begin_cjs_episode();
  void observe_cjs_reward(double reward);

  /// Summed guard counters across the three tasks.
  adapt::GuardCounters counters() const;
  /// Per-task health (DESIGN.md §12): Healthy on first-try successes,
  /// Degraded once failures/retries appear, Open while the breaker cools.
  /// Also exported as the serve.<task>.health gauge (0 / 1 / 2).
  adapt::Health vp_health() const { return vp_.guard.health(); }
  adapt::Health abr_health() const { return abr_.guard.health(); }
  adapt::Health cjs_health() const { return cjs_.guard.health(); }
  const EngineConfig& config() const { return cfg_; }
  /// The pooled KV arena injected into a VpAdapter primary (DESIGN.md §13);
  /// null when `arena_pages` is 0 or the VP model is not a VpAdapter.
  const std::shared_ptr<nn::KvArena>& kv_arena() const { return arena_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// A queued request plus its admission stamp. `shed` marks a ShedOldest
  /// victim: its slot (and ticket) stay valid, but the drain serves it via
  /// the fallback without burning primary compute.
  template <typename Req>
  struct Queued {
    Req req;
    Clock::time_point admitted{};
    bool shed = false;
  };

  /// Everything the engine keeps per task (DESIGN.md §12): the model pair,
  /// its guard and metrics, its schedule priority, the admission queue, the
  /// request generation being drained, and the response slots with their
  /// continuous-resolution done flags. The engine's queue_mu_ guards the
  /// queue, responses and done flags; `drain` belongs to run().
  template <typename Req, typename Resp, typename Model>
  struct Lane {
    using Response = Resp;
    /// A null `fallback` defaults to the task's rule-based baseline.
    Lane(Task task, std::shared_ptr<Model> primary, std::shared_ptr<Model> fallback,
         const EngineConfig& cfg, int priority, bool serialized);

    const Task task;
    std::shared_ptr<Model> primary, fallback;
    adapt::GuardEngine guard;
    // serve.<task>.* handles registered once (DESIGN.md §11); the guard
    // counters live in `guard`.
    core::metrics::Counter& slo_miss;
    core::metrics::Counter& rejected;
    core::metrics::Histogram& queue_wait_ms;
    core::metrics::Histogram& compute_ms;
    const int priority;
    // ABR/CJS policies keep rolling context, so their calls serialize on
    // policy_mu; VP predictors are stateless and never take it.
    const bool serialized;
    std::mutex policy_mu;
    std::vector<Queued<Req>> queue;  // admitted, not yet drained
    std::vector<Queued<Req>> drain;  // the generation run() is serving
    std::vector<Resp> responses;
    // A slot flips its request's entry (under queue_mu_) the moment the
    // response is ready, for the draining generation.
    std::vector<char> done;
  };

  /// Calls f(lane) for every lane of `self` (const or not), in the fixed
  /// vp, abr, cjs order that breaks schedule and shed-oldest ties.
  template <typename Self, typename F>
  static void for_each_lane(Self& self, F&& f) {
    f(self.vp_);
    f(self.abr_);
    f(self.cjs_);
  }

  /// Serves request `index` of the lane's draining generation: one guarded
  /// decision with the request's shed flag, the seeded retry/backoff policy
  /// with its deadline check and the `serve.batch` fault site inside the
  /// guarded region, then the end-to-end SLO accounting and histograms.
  template <typename L>
  typename L::Response serve(L& lane, std::uint64_t epoch, std::size_t index);
  /// Enqueues `req` on the lane behind the admission gate: applies the
  /// configured policy when the queue is full and throws Overloaded when
  /// admission is closed, counting it on the lane's `rejected` counter.
  template <typename L, typename Req>
  Ticket submit_to(L& lane, Req req);
  template <typename L>
  const typename L::Response& response(const L& lane, const Ticket& t) const;

  /// Unshed queued requests across the lanes. Caller holds queue_mu_.
  std::size_t unshed_pending_locked() const;
  /// Marks the oldest unshed queued request as shed. Caller holds queue_mu_.
  void shed_oldest_locked();

  EngineConfig cfg_;
  Lane<VpRequest, VpResponse, vp::VpPredictor> vp_;
  Lane<AbrRequest, AbrResponse, abr::AbrPolicy> abr_;
  Lane<CjsRequest, CjsResponse, cjs::SchedPolicy> cjs_;
  core::metrics::Gauge& queue_depth_;        // serve.queue_depth
  core::metrics::Counter& admission_wakeups_;  // serve.admission.wakeups
  std::shared_ptr<nn::KvArena> arena_;  // pooled KV pages + warm prefixes (VP)

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;   // signaled when run() frees queue space
  std::uint64_t submit_epoch_ = 1;     // generation stamped onto new tickets
  std::uint64_t completed_epoch_ = 0;  // generation the response vectors hold
  // Generation run() is draining (0 = idle). While a drain rebuilds the
  // response vectors, tickets from the completed generation are already
  // "replaced by a later run()".
  std::uint64_t draining_epoch_ = 0;
};

}  // namespace netllm::serve
