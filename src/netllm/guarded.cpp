#include "netllm/guarded.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "baselines/abr/rule_based.hpp"
#include "baselines/cjs/rule_based.hpp"
#include "baselines/vp/rule_based.hpp"
#include "core/trace.hpp"
#include "nn/kv_arena.hpp"

namespace netllm::adapt {

namespace {

GuardConfig with_default_prefix(GuardConfig cfg, const char* prefix) {
  if (cfg.counter_prefix.empty()) cfg.counter_prefix = prefix;
  return cfg;
}

/// Counts one event in the guard's own tally and its exported counter.
void tally(std::int64_t& n, core::metrics::Counter* c) {
  ++n;
  if (c) c->add();
}

}  // namespace

const char* source_name(Source s) {
  switch (s) {
    case Source::kLlm: return "llm";
    case Source::kFallback: return "fallback";
    case Source::kRetried: return "retried";
    default: return "shed";
  }
}

GuardCounters& GuardCounters::operator+=(const GuardCounters& o) {
  llm_ok += o.llm_ok;
  fallback += o.fallback;
  fail_exception += o.fail_exception;
  fail_invalid += o.fail_invalid;
  fail_latency += o.fail_latency;
  breaker_trips += o.breaker_trips;
  retries += o.retries;
  shed += o.shed;
  return *this;
}

// ---- validity ----

bool valid_viewports(const std::vector<vp::Viewport>& out, int horizon) {
  if (out.size() != static_cast<std::size_t>(horizon)) return false;
  for (const auto& v : out) {
    if (!std::isfinite(v.roll) || !std::isfinite(v.pitch) || !std::isfinite(v.yaw)) {
      return false;
    }
  }
  return true;
}

bool valid_level(int level, const abr::Observation& obs) {
  return level >= 0 && level < obs.num_levels;
}

bool valid_action(const cjs::SchedAction& a, const cjs::SchedObservation& obs) {
  return a.runnable_index >= 0 &&
         a.runnable_index < static_cast<int>(obs.runnable_rows.size()) && a.cap_choice >= 0 &&
         a.cap_choice < cjs::kNumCapChoices;
}

// ---- GuardEngine ----

GuardEngine::GuardEngine(GuardConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.counter_prefix.empty()) return;
  const std::string& p = cfg_.counter_prefix;
  m_.llm_ok = &core::metrics::counter(p + "llm_ok");
  m_.fallback = &core::metrics::counter(p + "fallback");
  m_.fail_exception = &core::metrics::counter(p + "fail.exception");
  m_.fail_invalid = &core::metrics::counter(p + "fail.invalid");
  m_.fail_latency = &core::metrics::counter(p + "fail.latency");
  m_.breaker_trips = &core::metrics::counter(p + "breaker.trips");
  m_.retries = &core::metrics::counter(p + "retry");
  m_.shed = &core::metrics::counter(p + "shed");
  m_.health = &core::metrics::gauge(p + "health");
}

GuardEngine::Fail GuardEngine::classify_current_exception() {
  try {
    throw;
  } catch (const nn::KvArena::Exhausted&) {
    // The KV page budget cannot fund this request right now. That is load,
    // not a model failure: shed without feeding the breaker or the health.
    return Fail::kShed;
  } catch (...) {
    return Fail::kException;
  }
}

bool GuardEngine::admit(bool shed, Decision& out) {
  core::trace::Span span(core::trace::Phase::kGuard);
  std::lock_guard<std::mutex> lock(mu_);
  if (shed) {
    tally(counters_.shed, m_.shed);
    out.source = Source::kShed;
    return false;
  }
  if (cooldown_left_ > 0) {
    --cooldown_left_;
    tally(counters_.fallback, m_.fallback);
    out.source = Source::kFallback;
    return false;
  }
  return true;
}

void GuardEngine::record_retry(Fail fail, double backoff_ms) {
  {
    core::trace::Span span(core::trace::Phase::kGuard);
    std::lock_guard<std::mutex> lock(mu_);
    count_failure(fail);  // the attempt's failure is real telemetry either way
    tally(counters_.retries, m_.retries);
    // A retry in flight means the task is not clean: Degraded until a
    // first-try success, Open only via the breaker.
    set_health(Health::kDegraded);
  }
  if (backoff_ms > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(backoff_ms));
  }
}

bool GuardEngine::settle(Fail fail, Decision& out) {
  core::trace::Span span(core::trace::Phase::kGuard);
  std::lock_guard<std::mutex> lock(mu_);
  if (fail == Fail::kNone) {
    consecutive_failures_ = 0;
    tally(counters_.llm_ok, m_.llm_ok);
    // A retried success proves the primary answers, but not cleanly.
    set_health(out.retries > 0 ? Health::kDegraded : Health::kHealthy);
    out.source = out.retries > 0 ? Source::kRetried : Source::kLlm;
    return true;
  }
  if (fail == Fail::kShed) {
    tally(counters_.shed, m_.shed);
    out.source = Source::kShed;
    return false;
  }
  count_failure(fail);
  if (++consecutive_failures_ >= cfg_.breaker_threshold) {
    consecutive_failures_ = 0;
    cooldown_left_ = cfg_.breaker_cooldown;
    tally(counters_.breaker_trips, m_.breaker_trips);
    set_health(Health::kOpen);
  } else {
    set_health(Health::kDegraded);
  }
  tally(counters_.fallback, m_.fallback);
  out.source = Source::kFallback;
  return false;
}

void GuardEngine::count_failure(Fail fail) {
  switch (fail) {
    case Fail::kException:
      tally(counters_.fail_exception, m_.fail_exception);
      break;
    case Fail::kInvalid:
      tally(counters_.fail_invalid, m_.fail_invalid);
      break;
    default:
      tally(counters_.fail_latency, m_.fail_latency);
      break;
  }
}

void GuardEngine::set_health(Health h) {
  if (health_ == h) return;
  health_ = h;
  if (m_.health) m_.health->set(static_cast<double>(static_cast<int>(h)));
}

GuardCounters GuardEngine::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

bool GuardEngine::breaker_open() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cooldown_left_ > 0;
}

Health GuardEngine::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  return health_;
}

std::shared_ptr<vp::VpPredictor> fallback_or_default(std::shared_ptr<vp::VpPredictor> fallback) {
  if (fallback) return fallback;
  return std::make_shared<baselines::LinearRegressionVp>();
}

std::shared_ptr<abr::AbrPolicy> fallback_or_default(std::shared_ptr<abr::AbrPolicy> fallback) {
  if (fallback) return fallback;
  return std::make_shared<baselines::Bba>();
}

std::shared_ptr<cjs::SchedPolicy> fallback_or_default(std::shared_ptr<cjs::SchedPolicy> fallback) {
  if (fallback) return fallback;
  return std::make_shared<baselines::FifoScheduler>();
}

// ---- VP ----

GuardedVpPredictor::GuardedVpPredictor(std::shared_ptr<vp::VpPredictor> primary,
                                       std::shared_ptr<vp::VpPredictor> fallback,
                                       GuardConfig cfg)
    : primary_(std::move(primary)),
      fallback_(fallback_or_default(std::move(fallback))),
      engine_(with_default_prefix(std::move(cfg), "guard.vp.")) {
  if (!primary_) throw std::invalid_argument("GuardedVpPredictor: null primary");
}

std::string GuardedVpPredictor::name() const {
  return "Guarded(" + primary_->name() + "->" + fallback_->name() + ")";
}

std::vector<vp::Viewport> GuardedVpPredictor::predict(std::span<const vp::Viewport> history,
                                                      const tensor::Tensor& saliency,
                                                      int horizon) {
  return engine_.decide<std::vector<vp::Viewport>>(
      [&] { return primary_->predict(history, saliency, horizon); },
      [&](const std::vector<vp::Viewport>& out) { return valid_viewports(out, horizon); },
      [&] { return fallback_->predict(history, saliency, horizon); });
}

// ---- ABR ----

GuardedAbrPolicy::GuardedAbrPolicy(std::shared_ptr<abr::AbrPolicy> primary,
                                   std::shared_ptr<abr::AbrPolicy> fallback, GuardConfig cfg)
    : primary_(std::move(primary)),
      fallback_(fallback_or_default(std::move(fallback))),
      engine_(with_default_prefix(std::move(cfg), "guard.abr.")) {
  if (!primary_) throw std::invalid_argument("GuardedAbrPolicy: null primary");
}

std::string GuardedAbrPolicy::name() const {
  return "Guarded(" + primary_->name() + "->" + fallback_->name() + ")";
}

void GuardedAbrPolicy::begin_session() {
  primary_->begin_session();
  fallback_->begin_session();
}

int GuardedAbrPolicy::choose_level(const abr::Observation& obs) {
  return engine_.decide<int>(
      [&] { return primary_->choose_level(obs); },
      [&](int level) { return valid_level(level, obs); },
      [&] { return fallback_->choose_level(obs); });
}

void GuardedAbrPolicy::observe_result(const abr::ChunkResult& result, double chunk_qoe) {
  // Both paths observe real outcomes so the return-conditioned primary and a
  // stateful fallback (e.g. MPC) stay consistent with the actual session.
  primary_->observe_result(result, chunk_qoe);
  fallback_->observe_result(result, chunk_qoe);
}

// ---- CJS ----

GuardedSchedPolicy::GuardedSchedPolicy(std::shared_ptr<cjs::SchedPolicy> primary,
                                       std::shared_ptr<cjs::SchedPolicy> fallback,
                                       GuardConfig cfg)
    : primary_(std::move(primary)),
      fallback_(fallback_or_default(std::move(fallback))),
      engine_(with_default_prefix(std::move(cfg), "guard.cjs.")) {
  if (!primary_) throw std::invalid_argument("GuardedSchedPolicy: null primary");
}

std::string GuardedSchedPolicy::name() const {
  return "Guarded(" + primary_->name() + "->" + fallback_->name() + ")";
}

void GuardedSchedPolicy::begin_episode() {
  primary_->begin_episode();
  fallback_->begin_episode();
}

cjs::SchedAction GuardedSchedPolicy::choose(const cjs::SchedObservation& obs) {
  return engine_.decide<cjs::SchedAction>(
      [&] { return primary_->choose(obs); },
      [&](const cjs::SchedAction& a) { return valid_action(a, obs); },
      [&] { return fallback_->choose(obs); });
}

void GuardedSchedPolicy::observe_reward(double reward) {
  primary_->observe_reward(reward);
  fallback_->observe_reward(reward);
}

}  // namespace netllm::adapt
