#include "netllm/serve.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "core/fault.hpp"
#include "core/rng.hpp"
#include "core/signal.hpp"
#include "core/stats.hpp"
#include "core/threadpool.hpp"
#include "core/timer.hpp"
#include "core/trace.hpp"
#include "netllm/abr_adapter.hpp"
#include "netllm/cjs_adapter.hpp"
#include "netllm/vp_adapter.hpp"
#include "nn/kv_arena.hpp"

namespace netllm::serve {

namespace {

/// Milliseconds between two steady-clock points.
double ms_between(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Deterministic per-request stream selector: mixes (task, epoch, index) so
/// nearby requests get far-apart retry-jitter seeds. splitmix64 finalizer.
std::uint64_t request_key(std::uint64_t task, std::uint64_t epoch, std::uint64_t index) {
  std::uint64_t x = (task << 62) ^ (epoch * 0x9e3779b97f4a7c15ULL) ^ (index + 0xbf58476d1ce4e5b9ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// One backoff draw: base * 2^(attempt-1), jittered to [0.5x, 1.5x). The rng
/// is the request's private stream — one draw per retry, in attempt order.
double next_backoff_ms(const EngineConfig& cfg, core::Rng& rng, int attempt) {
  const double jitter = 0.5 + rng.uniform();
  const int doublings = std::min(attempt - 1, 62);
  return cfg.retry_backoff_ms * static_cast<double>(std::int64_t{1} << doublings) * jitter;
}

/// Stable lowercase task name ("vp" / "abr" / "cjs").
const char* task_name(Task t) {
  static constexpr const char* kNames[] = {"vp", "abr", "cjs"};
  return kNames[static_cast<int>(t)];
}

constexpr const char* kMetricPrefix = "serve.";

/// The name of one lane metric: serve.<task>.<name>.
std::string lane_metric(Task task, const char* name) {
  return std::string(kMetricPrefix) + task_name(task) + "." + name;
}

/// The guard settings of one task; its counters go under serve.<task>.
adapt::GuardConfig guard_config(const EngineConfig& cfg, Task task) {
  adapt::GuardConfig g;
  g.latency_budget_ms = cfg.latency_budget_ms;
  g.breaker_threshold = cfg.breaker_threshold;
  g.breaker_cooldown = cfg.breaker_cooldown;
  g.counter_prefix = lane_metric(task, "");
  return g;
}

// ---- the per-task glue: everything else is one template over the lanes ----

std::vector<vp::Viewport> act(vp::VpPredictor& m, const VpRequest& r) {
  return m.predict(r.history, r.saliency, r.horizon);
}
int act(abr::AbrPolicy& p, const AbrRequest& r) { return p.choose_level(r.obs); }
cjs::SchedAction act(cjs::SchedPolicy& p, const CjsRequest& r) { return p.choose(r.obs); }

bool valid(const std::vector<vp::Viewport>& out, const VpRequest& r) {
  return adapt::valid_viewports(out, r.horizon);
}
bool valid(int level, const AbrRequest& r) { return adapt::valid_level(level, r.obs); }
bool valid(const cjs::SchedAction& a, const CjsRequest& r) { return adapt::valid_action(a, r.obs); }

std::vector<vp::Viewport>& answer_of(VpResponse& r) { return r.viewports; }
int& answer_of(AbrResponse& r) { return r.level; }
cjs::SchedAction& answer_of(CjsResponse& r) { return r.action; }

adapt::VpAdapter* as_adapter(vp::VpPredictor* m) { return dynamic_cast<adapt::VpAdapter*>(m); }
adapt::AbrAdapter* as_adapter(abr::AbrPolicy* p) { return dynamic_cast<adapt::AbrAdapter*>(p); }
adapt::CjsAdapter* as_adapter(cjs::SchedPolicy* p) { return dynamic_cast<adapt::CjsAdapter*>(p); }

/// Session lifecycle passthrough: under the lane's policy mutex, both the
/// primary (when loaded) and the fallback see the event.
template <typename L, typename F>
void tell_both(L& lane, F&& f) {
  std::lock_guard<std::mutex> lock(lane.policy_mu);
  if (lane.primary) f(*lane.primary);
  f(*lane.fallback);
}

[[noreturn]] void throw_stale(Task task, const Ticket& t, std::uint64_t completed) {
  throw StaleTicket(std::string("InferenceEngine: stale ") + task_name(task) + " ticket {epoch " +
                    std::to_string(t.epoch) + ", index " + std::to_string(t.index) +
                    "} vs completed batch " + std::to_string(completed) +
                    (t.epoch > completed ? " (batch not drained yet — call run())"
                                         : " (a later run() replaced these responses)"));
}

}  // namespace

double retry_backoff_ms(const EngineConfig& cfg, std::uint64_t request_key, int attempt) {
  core::Rng rng(cfg.retry_seed ^ request_key);
  double backoff = 0.0;
  for (int a = 1; a <= attempt; ++a) backoff = next_backoff_ms(cfg, rng, a);
  return backoff;
}

template <typename Req, typename Resp, typename Model>
InferenceEngine::Lane<Req, Resp, Model>::Lane(Task t, std::shared_ptr<Model> model,
                                              std::shared_ptr<Model> fallback_model,
                                              const EngineConfig& cfg, int prio, bool serial)
    : task(t),
      primary(std::move(model)),
      fallback(adapt::fallback_or_default(std::move(fallback_model))),
      guard(guard_config(cfg, t)),
      slo_miss(core::metrics::counter(lane_metric(t, "slo_miss"))),
      rejected(core::metrics::counter(lane_metric(t, "rejected"))),
      queue_wait_ms(core::metrics::histogram(lane_metric(t, "queue_wait_ms"))),
      compute_ms(core::metrics::histogram(lane_metric(t, "compute_ms"))),
      priority(prio),
      serialized(serial) {}

InferenceEngine::InferenceEngine(std::shared_ptr<vp::VpPredictor> vp_model,
                                 std::shared_ptr<abr::AbrPolicy> abr_policy,
                                 std::shared_ptr<cjs::SchedPolicy> cjs_policy, EngineConfig cfg,
                                 std::shared_ptr<vp::VpPredictor> vp_fallback,
                                 std::shared_ptr<abr::AbrPolicy> abr_fallback,
                                 std::shared_ptr<cjs::SchedPolicy> cjs_fallback)
    : cfg_(std::move(cfg)),
      vp_(Task::kVp, std::move(vp_model), std::move(vp_fallback), cfg_, cfg_.vp_priority, false),
      abr_(Task::kAbr, std::move(abr_policy), std::move(abr_fallback), cfg_, cfg_.abr_priority,
           true),
      cjs_(Task::kCjs, std::move(cjs_policy), std::move(cjs_fallback), cfg_, cfg_.cjs_priority,
           true),
      queue_depth_(core::metrics::gauge(std::string(kMetricPrefix) + "queue_depth")),
      admission_wakeups_(core::metrics::counter(std::string(kMetricPrefix) + "admission.wakeups")) {
  if (!vp_.primary && !abr_.primary && !cjs_.primary) {
    throw std::invalid_argument("InferenceEngine: need at least one model");
  }
  // Pooled KV arena (DESIGN.md §13): when the VP primary is a VpAdapter,
  // its rollouts lease pages from this engine's budget and share warm
  // prompt prefixes across requests. Other predictors are opaque — they
  // keep their own caching strategy.
  if (cfg_.arena_pages > 0) {
    if (auto* adapter = as_adapter(vp_.primary.get())) {
      const auto& llm_cfg = adapter->llm().config();
      nn::KvArenaConfig acfg;
      acfg.page_rows = cfg_.arena_page_rows;
      acfg.page_budget = cfg_.arena_pages;
      acfg.prefix_entries = cfg_.arena_prefix_entries;
      arena_ = std::make_shared<nn::KvArena>(llm_cfg.n_layers, llm_cfg.d_model, acfg);
      adapter->set_kv_arena(arena_);
    }
  }
  // Block-quantized backbone (DESIGN.md §15): quantize every adapter
  // primary's projection weights at the configured dtype. Non-adapter
  // predictors are opaque and stay untouched.
  if (cfg_.backbone_dtype != tensor::quant::Dtype::kF32) {
    for_each_lane(*this, [&](auto& lane) {
      if (auto* adapter = as_adapter(lane.primary.get())) {
        adapter->llm_shared()->quantize_backbone(cfg_.backbone_dtype);
      }
    });
  }
}

std::size_t InferenceEngine::unshed_pending_locked() const {
  std::size_t n = 0;
  for_each_lane(*this, [&](const auto& lane) {
    for (const auto& q : lane.queue) {
      if (!q.shed) ++n;
    }
  });
  return n;
}

void InferenceEngine::shed_oldest_locked() {
  // The victim keeps its queue slot and its ticket stays valid — the drain
  // serves it via the fallback (Source::kShed) without primary compute. Only
  // the shed flag flips, so concurrent tickets never alias. Each queue is
  // admission-ordered, so its first unshed entry is its oldest; the victim
  // is the oldest of those, a tie going to the earlier lane.
  bool* victim = nullptr;
  Clock::time_point oldest = Clock::time_point::max();
  for_each_lane(*this, [&](auto& lane) {
    for (auto& q : lane.queue) {
      if (q.shed) continue;
      if (!victim || q.admitted < oldest) {
        victim = &q.shed;
        oldest = q.admitted;
      }
      break;
    }
  });
  if (victim) *victim = true;
}

template <typename L, typename Req>
Ticket InferenceEngine::submit_to(L& lane, Req req) {
  if (!lane.primary) {
    throw std::invalid_argument(std::string("InferenceEngine: no ") + task_name(lane.task) +
                                " model");
  }
  std::unique_lock<std::mutex> lock(queue_mu_);
  if (core::stop_requested()) {
    lane.rejected.add();
    throw Overloaded(
        "InferenceEngine: admission closed (shutdown requested; queued "
        "requests drain via the fallback)");
  }
  while (cfg_.max_queue != 0 && unshed_pending_locked() >= cfg_.max_queue) {
    switch (cfg_.admission) {
      case AdmissionPolicy::kReject:
        lane.rejected.add();
        throw Overloaded("InferenceEngine: queue full (" + std::to_string(cfg_.max_queue) +
                         " pending) under the Reject admission policy");
      case AdmissionPolicy::kShedOldest:
        shed_oldest_locked();
        break;
      case AdmissionPolicy::kBlock:
        // Predicate wait: the producer sleeps until run() frees space (it
        // notifies queue_cv_ after the swap) or a stop closes admission —
        // one wakeup per freed batch instead of the old 5 ms poll that
        // charged every admitted request up to a slice of idle latency.
        // The slice is only a backstop for a stop flagged from a signal
        // handler, which cannot notify a cv; stops requested from normal
        // code are caught by the predicate on the next notification.
        // serve.admission.wakeups counts wait returns — the §13 regression
        // test bounds it where the poll loop would rack up dozens.
        queue_cv_.wait_for(lock, std::chrono::milliseconds(200), [&] {
          return core::stop_requested() || unshed_pending_locked() < cfg_.max_queue;
        });
        admission_wakeups_.add();
        if (core::stop_requested()) {
          lane.rejected.add();
          throw Overloaded(
              "InferenceEngine: admission closed while blocked on a full "
              "queue (shutdown requested)");
        }
        break;
    }
  }
  lane.queue.push_back({std::move(req), Clock::now(), false});
  queue_depth_.set(static_cast<double>(unshed_pending_locked()));
  return Ticket{submit_epoch_, lane.queue.size() - 1, lane.task};
}

Ticket InferenceEngine::submit(VpRequest req) { return submit_to(vp_, std::move(req)); }
Ticket InferenceEngine::submit(AbrRequest req) { return submit_to(abr_, std::move(req)); }
Ticket InferenceEngine::submit(CjsRequest req) { return submit_to(cjs_, std::move(req)); }

std::size_t InferenceEngine::pending() const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  std::size_t n = 0;
  for_each_lane(*this, [&](const auto& lane) { n += lane.queue.size(); });
  return n;
}

template <typename L>
const typename L::Response& InferenceEngine::response(const L& lane, const Ticket& t) const {
  std::lock_guard<std::mutex> lock(queue_mu_);
  if (t.task != lane.task) {
    throw std::out_of_range(std::string("InferenceEngine: ") + task_name(t.task) +
                            " ticket {epoch " + std::to_string(t.epoch) + ", index " +
                            std::to_string(t.index) + "} presented to the " +
                            task_name(lane.task) + " responses");
  }
  // Continuous resolution: while a drain is in progress, a ticket from its
  // generation resolves as soon as its own slot finished — no epoch-wide
  // barrier. Once the drain ends its flags stay set but no longer count.
  const bool draining = draining_epoch_ != 0;
  if (draining && t.epoch == draining_epoch_ && t.index < lane.done.size() && lane.done[t.index]) {
    return lane.responses[t.index];
  }
  if (draining || completed_epoch_ == 0 || t.epoch != completed_epoch_) {
    throw_stale(lane.task, t, completed_epoch_);
  }
  return lane.responses.at(t.index);
}

const VpResponse& InferenceEngine::vp_response(const Ticket& t) const { return response(vp_, t); }
const AbrResponse& InferenceEngine::abr_response(const Ticket& t) const {
  return response(abr_, t);
}
const CjsResponse& InferenceEngine::cjs_response(const Ticket& t) const {
  return response(cjs_, t);
}

template <typename L>
typename L::Response InferenceEngine::serve(L& lane, std::uint64_t epoch, std::size_t index) {
  const auto& q = lane.drain[index];
  typename L::Response resp;
  ResponseMeta& meta = resp.meta;
  using Action = std::decay_t<decltype(answer_of(resp))>;
  meta.admission_wait_ms = ms_between(q.admitted, Clock::now());
  // Shed when: a ShedOldest victim, a shutdown drain, or the admission
  // deadline is already blown before any compute was spent — the SLO cannot
  // be met, so the primary is not called at all.
  const bool shed = q.shed || core::stop_requested() ||
                    (cfg_.deadline_ms > 0.0 && meta.admission_wait_ms >= cfg_.deadline_ms);
  const int max_attempts = 1 + std::max(0, cfg_.retry_budget);
  // Private deterministic jitter stream: seeded from the request's identity,
  // so the backoff sequence is the same in every run at any NETLLM_THREADS.
  core::Rng retry_rng(cfg_.retry_seed ^
                      request_key(static_cast<std::uint64_t>(lane.task), epoch, index));
  const auto retry = [&](int attempt) {
    if (attempt >= max_attempts) return -1.0;
    // Deadline-aware: when the end-to-end SLO is already blown there is no
    // point burning another attempt — degrade to the fallback now.
    if (cfg_.deadline_ms > 0.0 && ms_between(q.admitted, Clock::now()) >= cfg_.deadline_ms) {
      return -1.0;
    }
    return next_backoff_ms(cfg_, retry_rng, attempt);
  };
  core::Timer timer;
  std::unique_lock<std::mutex> policy_lock(lane.policy_mu, std::defer_lock);
  if (lane.serialized) {
    policy_lock.lock();
    // Rolling-context policies serialize: everything up to here is queueing
    // behind other requests of this lane, not this request's own work.
    meta.queue_wait_ms = timer.elapsed_ms();
  }
  core::Timer compute;
  adapt::Decision decision;
  answer_of(resp) = lane.guard.template decide<Action>(
      [&] {
        // The injection site fires inside the guarded region: an armed
        // `serve.batch` plan (throw / delay past the budget) is handled
        // exactly like an organic LLM-path failure — this one request falls
        // back. The latency budget covers this call only, never the policy
        // mutex wait reported as queue_wait_ms.
        core::fault::check("serve.batch");
        return act(*lane.primary, q.req);
      },
      [&](const Action& a) { return valid(a, q.req); },
      [&] { return act(*lane.fallback, q.req); }, shed, retry, decision);
  meta.source = decision.source;
  meta.retries = decision.retries;
  meta.compute_ms = compute.elapsed_ms();
  // A lane without a policy mutex never waits: the whole request is compute.
  meta.latency_ms = lane.serialized ? timer.elapsed_ms() : meta.compute_ms;
  // The end-to-end SLO judges admission wait PLUS serve time — a request that
  // computed fast after queueing for ages still missed its deadline.
  meta.slo_miss = cfg_.deadline_ms > 0.0 &&
                  meta.admission_wait_ms + meta.latency_ms > cfg_.deadline_ms;
  if (meta.slo_miss) lane.slo_miss.add();
  lane.queue_wait_ms.record(meta.queue_wait_ms);
  lane.compute_ms.record(meta.compute_ms);
  return resp;
}

BatchReport InferenceEngine::run() {
  std::uint64_t epoch = 0;
  std::size_t n_total = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    // Close this generation: tickets issued from now on belong to the next
    // drain, so a submit racing with run() can never alias into this batch.
    epoch = submit_epoch_++;
    queue_depth_.set(0.0);
    // The previous generation's responses are being replaced; tickets for
    // them are stale from here on. Tickets for THIS generation resolve
    // continuously through the done flags as their slots finish.
    draining_epoch_ = epoch;
    for_each_lane(*this, [&](auto& lane) {
      lane.drain.swap(lane.queue);
      lane.queue.clear();
      lane.responses.assign(lane.drain.size(), {});
      lane.done.assign(lane.drain.size(), 0);
      n_total += lane.drain.size();
    });
  }
  // The swap freed every queue slot: wake producers blocked in submit.
  queue_cv_.notify_all();

  // Deterministic schedule over the lanes: task priority first (higher
  // wins), then admission order — an EDF-flavoured FIFO, since every
  // request shares its task's deadline offset. The order depends only on the
  // submission sequence, never on thread timing.
  struct Job {
    Task task;
    std::size_t index;
    int priority;
    Clock::time_point admitted;
  };
  std::vector<Job> order;
  order.reserve(n_total);
  for_each_lane(*this, [&](const auto& lane) {
    for (std::size_t i = 0; i < lane.drain.size(); ++i) {
      order.push_back({lane.task, i, lane.priority, lane.drain[i].admitted});
    }
  });
  std::stable_sort(order.begin(), order.end(), [](const Job& a, const Job& b) {
    if (a.priority != b.priority) return a.priority > b.priority;
    return a.admitted < b.admitted;
  });

  const std::uint64_t hits_before = arena_ ? arena_->prefix_hits() : 0;
  // Continuous batching: `slots` workers each pull the next scheduled job
  // the moment their current one finishes — no slot idles while work is
  // queued, and a single slow request delays only itself. Each request's
  // tensor ops run inline inside its slot (no nested parallelism), so every
  // VP response is bitwise the single-request answer at any NETLLM_THREADS;
  // at one thread the pulls happen in exact schedule order. ABR/CJS requests
  // take their lane's policy mutex in slot-timing order, so with several of
  // them in one drain their answers are reproducible only at one slot.
  const std::size_t slots =
      cfg_.max_slots == 0 ? n_total : std::min(cfg_.max_slots, n_total);
  std::atomic<std::size_t> next{0};
  core::parallel_for(static_cast<std::int64_t>(slots), 1, [&](std::int64_t s0, std::int64_t s1) {
    for (std::int64_t s = s0; s < s1; ++s) {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n_total) break;
        const Job job = order[i];
        core::trace::Span span(core::trace::Phase::kSchedStep);
        for_each_lane(*this, [&](auto& lane) {
          if (lane.task != job.task) return;
          auto resp = serve(lane, epoch, job.index);
          std::lock_guard<std::mutex> lock(queue_mu_);
          lane.responses[job.index] = std::move(resp);
          lane.done[job.index] = 1;
        });
      }
    }
  });
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    completed_epoch_ = epoch;  // tickets from this generation resolve now
    draining_epoch_ = 0;
  }

  BatchReport report;
  report.requests = n_total;
  report.drained_on_stop = core::stop_requested();
  report.prefix_hits =
      arena_ ? static_cast<std::size_t>(arena_->prefix_hits() - hits_before) : 0;
  std::vector<double> latencies, waits, computes, e2e;
  for (auto* series : {&latencies, &waits, &computes, &e2e}) series->reserve(n_total);
  for_each_lane(*this, [&](auto& lane) {
    lane.drain.clear();  // the requests are served; free their inputs now
    for (const auto& r : lane.responses) {
      const ResponseMeta& meta = r.meta;
      switch (meta.source) {
        case Source::kLlm: ++report.llm; break;
        case Source::kRetried: ++report.retried; break;
        case Source::kFallback: ++report.fallback; break;
        case Source::kShed: ++report.shed; break;
      }
      if (meta.slo_miss) ++report.slo_miss;
      latencies.push_back(meta.latency_ms);
      waits.push_back(meta.queue_wait_ms);
      computes.push_back(meta.compute_ms);
      e2e.push_back(meta.admission_wait_ms + meta.latency_ms);
    }
  });
  if (!latencies.empty()) {
    report.p50_ms = core::percentile(latencies, 50.0);
    report.p99_ms = core::percentile(latencies, 99.0);
    report.wait_p50_ms = core::percentile(waits, 50.0);
    report.wait_p99_ms = core::percentile(waits, 99.0);
    report.compute_p50_ms = core::percentile(computes, 50.0);
    report.compute_p99_ms = core::percentile(computes, 99.0);
    report.e2e_p50_ms = core::percentile(e2e, 50.0);
    report.e2e_p99_ms = core::percentile(e2e, 99.0);
  }
  return report;
}

void InferenceEngine::begin_abr_session() {
  tell_both(abr_, [](abr::AbrPolicy& p) { p.begin_session(); });
}
void InferenceEngine::observe_abr_result(const abr::ChunkResult& result, double chunk_qoe) {
  tell_both(abr_, [&](abr::AbrPolicy& p) { p.observe_result(result, chunk_qoe); });
}
void InferenceEngine::begin_cjs_episode() {
  tell_both(cjs_, [](cjs::SchedPolicy& p) { p.begin_episode(); });
}
void InferenceEngine::observe_cjs_reward(double reward) {
  tell_both(cjs_, [&](cjs::SchedPolicy& p) { p.observe_reward(reward); });
}

adapt::GuardCounters InferenceEngine::counters() const {
  adapt::GuardCounters total;
  for_each_lane(*this, [&](const auto& lane) { total += lane.guard.counters(); });
  return total;
}

}  // namespace netllm::serve
