// Guarded-inference and training-resilience tests: injected NaNs, latency
// overruns and thrown exceptions (std::exception or not) must never escape a
// guarded policy — the fallback serves a valid action on 100% of decisions —
// and the circuit breaker opens after consecutive failures and closes after
// its cooldown. The guarded wrappers and the serving engine share one guard
// state machine; a differential test drives both through the same script.
// Training-side: poisoned losses/gradients are skipped and corrupted
// parameters are restored from the last-good snapshot.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "baselines/abr/rule_based.hpp"
#include "baselines/cjs/rule_based.hpp"
#include "core/fault.hpp"
#include "core/metrics.hpp"
#include "llm/tokenizer.hpp"
#include "netllm/api.hpp"

#include "adapt_cases.hpp"

namespace ad = netllm::adapt;
namespace abr = netllm::abr;
namespace cjs = netllm::cjs;
namespace vp = netllm::vp;
namespace fault = netllm::core::fault;
namespace metrics = netllm::core::metrics;
namespace serve = netllm::serve;
using netllm::core::Rng;
using namespace adapt_cases;

namespace {

ad::VpAdapterConfig tiny_vp_cfg() {
  ad::VpAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.lora_alpha = 4.0f;
  return cfg;
}

class Guarded : public ::testing::Test {
 protected:
  void SetUp() override { metrics::reset(); }
  void TearDown() override { fault::disarm_all(); }
};

abr::Observation abr_observation() {
  abr::Observation obs;
  obs.past_throughput_mbps.assign(abr::Observation::kHistory, 3.0);
  obs.past_delay_s.assign(abr::Observation::kHistory, 0.1);
  obs.next_chunk_sizes_mbytes = {0.5, 1.0, 2.0, 4.0};
  obs.future_chunk_sizes_mbytes.assign(abr::Observation::kHorizon * 4, 1.0);
  obs.buffer_s = 2.0;  // low buffer: BBA picks the lowest level
  obs.chunks_remaining = 10;
  obs.num_levels = 4;
  return obs;
}

cjs::SchedObservation cjs_observation() {
  cjs::SchedObservation obs;
  obs.node_features = netllm::tensor::Tensor::zeros({2, cjs::SchedObservation::kNodeFeatures});
  obs.topology.num_nodes = 2;
  obs.topology.children = {{}, {}};
  obs.runnable_rows = {0, 1};
  obs.job_of_row = {0, 1};
  obs.job_arrival_of_row = {0.0, 1.0};
  obs.idle_executors = 4;
  obs.total_executors = 8;
  return obs;
}

// ---- primaries that throw something not derived from std::exception ----

class IntThrowVp final : public vp::VpPredictor {
 public:
  std::string name() const override { return "int-throw"; }
  std::vector<vp::Viewport> predict(std::span<const vp::Viewport>, const netllm::tensor::Tensor&,
                                    int) override {
    throw 42;
  }
};

class IntThrowAbr final : public abr::AbrPolicy {
 public:
  std::string name() const override { return "int-throw"; }
  int choose_level(const abr::Observation&) override { throw 42; }
};

class IntThrowCjs final : public cjs::SchedPolicy {
 public:
  std::string name() const override { return "int-throw"; }
  cjs::SchedAction choose(const cjs::SchedObservation&) override { throw 42; }
};

// One case per guarded wrapper: `make()` wraps the int-throwing primary with
// the default fallback, `decide_valid()` makes one decision and reports
// whether the served answer passes the task's validity check.
struct VpCase {
  static auto make() { return ad::GuardedVpPredictor(std::make_shared<IntThrowVp>()); }
  static bool decide_valid(ad::GuardedVpPredictor& g) {
    const std::vector<vp::Viewport> history(4, vp::Viewport{0.0, 1.0, 2.0});
    return ad::valid_viewports(g.predict(history, netllm::tensor::Tensor::zeros({4, 4}), 3), 3);
  }
};
struct AbrCase {
  static auto make() { return ad::GuardedAbrPolicy(std::make_shared<IntThrowAbr>()); }
  static bool decide_valid(ad::GuardedAbrPolicy& g) {
    const auto obs = abr_observation();
    return ad::valid_level(g.choose_level(obs), obs);
  }
};
struct CjsCase {
  static auto make() { return ad::GuardedSchedPolicy(std::make_shared<IntThrowCjs>()); }
  static bool decide_valid(ad::GuardedSchedPolicy& g) {
    const auto obs = cjs_observation();
    return ad::valid_action(g.choose(obs), obs);
  }
};

// ---- a scripted ABR primary for the differential test ----

enum class Outcome { kOk, kThrow, kNan, kSlow };

/// Plays a fixed outcome script, one entry per primary call (kOk past the
/// end). kNan answers an out-of-ladder level, as a NaN-poisoned head
/// decodes; kSlow answers correctly but past a 10 ms budget.
class ScriptedAbr final : public abr::AbrPolicy {
 public:
  explicit ScriptedAbr(std::vector<Outcome> script) : script_(std::move(script)) {}
  std::string name() const override { return "scripted"; }
  int choose_level(const abr::Observation& obs) override {
    const Outcome o = calls_ < script_.size() ? script_[calls_] : Outcome::kOk;
    ++calls_;
    switch (o) {
      case Outcome::kThrow: throw std::runtime_error("scripted failure");
      case Outcome::kNan: return obs.num_levels;
      case Outcome::kSlow: std::this_thread::sleep_for(std::chrono::milliseconds(30)); break;
      case Outcome::kOk: break;
    }
    return obs.num_levels - 1;  // BBA at a low buffer answers 0: paths stay distinguishable
  }
  std::size_t calls() const { return calls_; }

 private:
  std::vector<Outcome> script_;
  std::size_t calls_ = 0;
};

template <typename Case>
class GuardedNonStdThrow : public Guarded {};
using WrapperCases = ::testing::Types<VpCase, AbrCase, CjsCase>;
TYPED_TEST_SUITE(GuardedNonStdThrow, WrapperCases);

}  // namespace

// ---------- non-std exceptions never escape a wrapper ----------

TYPED_TEST(GuardedNonStdThrow, IntThrowIsServedByFallbackAndCounted) {
  auto guarded = TypeParam::make();
  for (int i = 0; i < 2; ++i) {
    bool valid = false;
    ASSERT_NO_THROW(valid = TypeParam::decide_valid(guarded));
    EXPECT_TRUE(valid);
  }
  const auto c = guarded.counters();
  EXPECT_EQ(c.fail_exception, 2);
  EXPECT_EQ(c.fallback, 2);
  EXPECT_EQ(c.llm_ok, 0);
}

// ---------- GuardEngine semantics ----------

TEST_F(Guarded, EngineFallsBackOnInvalidOutput) {
  ad::GuardEngine engine({.breaker_threshold = 100});
  const int got = engine.decide<int>([] { return 42; }, [](int v) { return v < 10; },
                                     [] { return 7; });
  EXPECT_EQ(got, 7);
  EXPECT_EQ(engine.counters().fail_invalid, 1);
  EXPECT_EQ(engine.counters().fallback, 1);
  EXPECT_EQ(engine.counters().llm_ok, 0);

  const int ok = engine.decide<int>([] { return 3; }, [](int v) { return v < 10; },
                                    [] { return 7; });
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(engine.counters().llm_ok, 1);
}

TEST_F(Guarded, EngineEnforcesLatencyBudget) {
  ad::GuardEngine engine({.latency_budget_ms = 1.0, .breaker_threshold = 100});
  const int got = engine.decide<int>(
      [] {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        return 1;
      },
      [](int) { return true; }, [] { return 2; });
  EXPECT_EQ(got, 2);  // correct answer arrived too late: fallback serves
  EXPECT_EQ(engine.counters().fail_latency, 1);
  EXPECT_EQ(engine.counters().fallback, 1);
}

TEST_F(Guarded, EngineBreakerOpensAndCloses) {
  ad::GuardEngine engine({.breaker_threshold = 2, .breaker_cooldown = 3});
  int primary_calls = 0;
  auto decide = [&](bool fail) {
    return engine.decide<int>(
        [&]() -> int {
          ++primary_calls;
          if (fail) throw std::runtime_error("boom");
          return 1;
        },
        [](int) { return true; }, [] { return 0; });
  };

  EXPECT_EQ(decide(true), 0);
  EXPECT_FALSE(engine.breaker_open());
  EXPECT_EQ(decide(true), 0);  // second consecutive failure: breaker opens
  EXPECT_TRUE(engine.breaker_open());
  EXPECT_EQ(engine.counters().breaker_trips, 1);

  // During the cooldown the primary is never consulted.
  const int calls_at_open = primary_calls;
  for (int i = 0; i < 3; ++i) EXPECT_EQ(decide(true), 0);
  EXPECT_EQ(primary_calls, calls_at_open);
  EXPECT_FALSE(engine.breaker_open());  // cooldown exhausted

  // The next decision probes the primary again; a success closes the loop.
  EXPECT_EQ(decide(false), 1);
  EXPECT_EQ(engine.counters().llm_ok, 1);
  EXPECT_EQ(engine.counters().fail_exception, 2);
  EXPECT_EQ(engine.counters().fallback, 5);
}

// ---------- one state machine: wrapper vs serving engine ----------

TEST_F(Guarded, WrapperAndEngineRunTheSameStateMachine) {
  // ok, throw, NaN output, over-budget (the third consecutive failure trips
  // the breaker), then ok until the cooldown has ended and the probe closed
  // the loop again.
  const std::vector<Outcome> script = {Outcome::kOk, Outcome::kThrow, Outcome::kNan,
                                       Outcome::kSlow};
  constexpr int kCooldown = 3;
  constexpr int kDecisions = 4 + kCooldown + 2;
  auto wrapped = std::make_shared<ScriptedAbr>(script);
  auto served = std::make_shared<ScriptedAbr>(script);

  ad::GuardConfig gcfg;
  gcfg.latency_budget_ms = 10.0;
  gcfg.breaker_threshold = 3;
  gcfg.breaker_cooldown = kCooldown;
  ad::GuardedAbrPolicy wrapper(wrapped, nullptr, gcfg);

  serve::EngineConfig ecfg;
  ecfg.latency_budget_ms = gcfg.latency_budget_ms;
  ecfg.breaker_threshold = gcfg.breaker_threshold;
  ecfg.breaker_cooldown = gcfg.breaker_cooldown;
  ecfg.retry_budget = 0;
  ecfg.max_slots = 1;
  serve::InferenceEngine engine(nullptr, served, nullptr, ecfg);

  const auto obs = abr_observation();
  for (int i = 0; i < kDecisions; ++i) {
    SCOPED_TRACE("decision " + std::to_string(i));
    const int via_wrapper = wrapper.choose_level(obs);
    const auto ticket = engine.submit(serve::AbrRequest{obs});
    engine.run();
    const auto& resp = engine.abr_response(ticket);
    EXPECT_EQ(resp.level, via_wrapper);
    EXPECT_EQ(engine.counters(), wrapper.counters());
    EXPECT_EQ(engine.abr_health(), wrapper.health());
    EXPECT_EQ(served->calls(), wrapped->calls());
    // The breaker is open from the trip (decision 3) until its cooldown ran out.
    EXPECT_EQ(wrapper.breaker_open(), i >= 3 && i < 3 + kCooldown);
    const bool llm = i == 0 || i >= 4 + kCooldown;
    EXPECT_EQ(resp.meta.source, llm ? serve::Source::kLlm : serve::Source::kFallback);
  }
  const auto c = wrapper.counters();
  EXPECT_EQ(c.llm_ok, 3);
  EXPECT_EQ(c.fail_exception, 1);
  EXPECT_EQ(c.fail_invalid, 1);
  EXPECT_EQ(c.fail_latency, 1);
  EXPECT_EQ(c.breaker_trips, 1);
  EXPECT_EQ(c.fallback, 3 + kCooldown);
  EXPECT_EQ(wrapper.health(), ad::Health::kHealthy);
}

// ---------- guarded policies under fault injection ----------

TEST_F(Guarded, VpFallsBackToFiniteViewportsUnderNanFeatures) {
  Rng rng(21);
  auto data = vp_data(10);
  auto adapter = std::make_shared<ad::VpAdapter>(tiny_llm(), tiny_vp_cfg(), rng);
  auto guarded = ad::api::Guard(std::static_pointer_cast<vp::VpPredictor>(adapter));
  EXPECT_NE(guarded->name().find("Guarded("), std::string::npos);

  fault::arm("llm.forward", {.kind = fault::FaultKind::CorruptNan, .times = -1});
  for (int i = 0; i < 5; ++i) {
    auto pred = guarded->predict(data[0].history, data[0].saliency, 4);
    ASSERT_EQ(pred.size(), 4u);  // valid answer on 100% of decisions
    for (const auto& v : pred) {
      EXPECT_TRUE(std::isfinite(v.roll) && std::isfinite(v.pitch) && std::isfinite(v.yaw));
    }
  }
  const auto& c = guarded->counters();
  EXPECT_EQ(c.llm_ok, 0);
  EXPECT_EQ(c.fallback, 5);
  EXPECT_GE(c.fail_invalid, 1);  // NaN coordinates failed validation
  // Counters are mirrored into the core::metrics registry for bench reports.
  EXPECT_EQ(metrics::counter("guard.vp.fallback").value(), c.fallback);
}

TEST_F(Guarded, VpLatencyOverrunTriggersFallback) {
  Rng rng(22);
  auto data = vp_data(10);
  auto adapter = std::make_shared<ad::VpAdapter>(tiny_llm(), tiny_vp_cfg(), rng);
  ad::GuardConfig cfg;
  cfg.latency_budget_ms = 2.0;
  auto guarded = ad::api::Guard(std::static_pointer_cast<vp::VpPredictor>(adapter), cfg);

  fault::arm("llm.forward",
             {.kind = fault::FaultKind::Delay, .times = -1, .delay_ms = 20.0});
  auto pred = guarded->predict(data[0].history, data[0].saliency, 1);
  ASSERT_EQ(pred.size(), 1u);
  EXPECT_TRUE(std::isfinite(pred[0].yaw));
  EXPECT_EQ(guarded->counters().fail_latency, 1);
  EXPECT_EQ(guarded->counters().fallback, 1);
}

TEST_F(Guarded, VpBreakerRecoversOnceFaultClears) {
  Rng rng(23);
  auto data = vp_data(10);
  auto adapter = std::make_shared<ad::VpAdapter>(tiny_llm(), tiny_vp_cfg(), rng);
  ad::GuardConfig cfg;
  cfg.breaker_threshold = 3;
  cfg.breaker_cooldown = 2;
  auto guarded = ad::api::Guard(std::static_pointer_cast<vp::VpPredictor>(adapter), cfg);

  // horizon=1 → exactly one "llm.forward" hit per decision, so three firings
  // are three consecutive failed decisions: the breaker opens on the third.
  fault::arm("llm.forward", {.kind = fault::FaultKind::CorruptNan, .times = 3});
  for (int i = 0; i < 3; ++i) guarded->predict(data[0].history, data[0].saliency, 1);
  EXPECT_TRUE(guarded->breaker_open());
  EXPECT_EQ(guarded->counters().breaker_trips, 1);

  // Two cooldown decisions served by the fallback, then a probe that
  // succeeds (the plan is exhausted) puts the LLM back in charge.
  for (int i = 0; i < 2; ++i) guarded->predict(data[0].history, data[0].saliency, 1);
  EXPECT_FALSE(guarded->breaker_open());
  guarded->predict(data[0].history, data[0].saliency, 1);
  EXPECT_EQ(guarded->counters().llm_ok, 1);
  EXPECT_EQ(guarded->counters().fallback, 5);
}

TEST_F(Guarded, AbrServesValidLevelsForWholeSessionsUnderNanLogits) {
  Rng rng(24);
  ad::AbrAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.context_window = 4;
  auto adapter = std::make_shared<ad::AbrAdapter>(tiny_llm(), cfg, rng);
  auto guarded = ad::api::Guard(std::static_pointer_cast<abr::AbrPolicy>(adapter));

  auto setting = abr::abr_default_test();
  setting.num_traces = 2;
  const auto video = abr::video_for(setting);
  const auto traces = abr::traces_for(setting);

  fault::arm("llm.forward", {.kind = fault::FaultKind::CorruptNan, .times = -1});
  // The simulator rejects invalid levels, so completing both sessions means
  // every one of the 2x48 decisions was valid — all served by BBA.
  const auto qoe = abr::evaluate_qoe(*guarded, video, traces);
  EXPECT_EQ(qoe.size(), 2u);
  const auto& c = guarded->counters();
  EXPECT_EQ(c.llm_ok, 0);
  EXPECT_EQ(c.fallback, c.decisions());
  EXPECT_GE(c.fail_exception, 1);  // heads refuse non-finite logits
  EXPECT_GE(c.breaker_trips, 1);
  EXPECT_EQ(metrics::counter("guard.abr.fallback").value(), c.fallback);
}

TEST_F(Guarded, CjsCompletesWorkloadUnderNanLogits) {
  Rng rng(25);
  ad::CjsAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.context_window = 4;
  auto adapter = std::make_shared<ad::CjsAdapter>(tiny_llm(), cfg, rng);
  auto guarded = ad::api::Guard(std::static_pointer_cast<cjs::SchedPolicy>(adapter));

  cjs::WorkloadConfig wl;
  wl.num_job_requests = 6;
  wl.executor_units_k = 6;
  wl.scale = 1.0;
  wl.seed = 3;

  fault::arm("llm.forward", {.kind = fault::FaultKind::CorruptNan, .times = -1});
  const auto result = cjs::run_workload(wl, *guarded);
  EXPECT_EQ(result.jct_s.size(), 6u);  // every job finished on valid actions
  const auto& c = guarded->counters();
  EXPECT_EQ(c.llm_ok, 0);
  EXPECT_EQ(c.fallback, c.decisions());
  EXPECT_GE(c.fail_exception, 1);
  EXPECT_EQ(metrics::counter("guard.cjs.fallback").value(), c.fallback);
}

// ---------- training resilience ----------

/// (task, hits before the poisoned loss).
class GuardedPoison : public Guarded,
                      public ::testing::WithParamInterface<std::tuple<Task, int>> {};

TEST_P(GuardedPoison, AdaptSkipsPoisonedLossSteps) {
  const auto [task, after] = GetParam();
  Rng rng(26);
  auto c = make_case(task, tiny_llm(), rng);
  // Poison the loss on the 4th and 5th hits, or on the very first one: a
  // vetoed step 0 must not leave the initial loss at zero.
  const int times = after == 0 ? 1 : 2;
  fault::arm("adapter.step", {.kind = fault::FaultKind::CorruptNan, .after = after, .times = times});
  const auto stats_out = c.adapt(20, 1e-3f, 1);
  // One skip per step holding a poisoned hit; ABR's step is kBatch=3 windows
  // (3 hits), so both of its after=3 hits land in step 1.
  const int per_step = task == Task::kAbr ? 3 : 1;
  const int skips = (after + times - 1) / per_step - after / per_step + 1;
  EXPECT_EQ(fault::fired("adapter.step"), times);
  EXPECT_EQ(stats_out.skipped_steps, skips);
  EXPECT_EQ(stats_out.restores, 0);
  EXPECT_TRUE(std::isfinite(stats_out.final_loss));
  EXPECT_TRUE(std::isfinite(stats_out.initial_loss));
  EXPECT_GT(stats_out.initial_loss, 0.0f);
  EXPECT_EQ(metrics::counter("adapt.skipped_steps").value(), skips);
}

INSTANTIATE_TEST_SUITE_P(Tasks, GuardedPoison,
                         ::testing::Combine(all_tasks(), ::testing::Values(3, 0)),
                         [](const auto& info) {
                           return task_name(std::get<0>(info.param)) + "_after" +
                                  std::to_string(std::get<1>(info.param));
                         });

class GuardedAdapt : public Guarded, public ::testing::WithParamInterface<Task> {};

TEST_P(GuardedAdapt, AdaptRestoresCorruptedParameters) {
  Rng rng(27);
  auto c = make_case(GetParam(), tiny_llm(), rng);
  // Corrupt the optimised parameters after the 3rd applied step: the guard
  // must restore its last-good snapshot and finish the adaptation.
  fault::arm("adapter.params", {.kind = fault::FaultKind::CorruptNan, .after = 2, .times = 1});
  const auto stats_out = c.adapt(20, 1e-3f, 2);
  EXPECT_EQ(stats_out.restores, 1);
  EXPECT_TRUE(std::isfinite(stats_out.final_loss));
  for (const auto& p : ad::adapt_parameters(*c.adapter, nullptr)) {
    for (float v : p.data()) ASSERT_TRUE(std::isfinite(v));
  }
  EXPECT_EQ(metrics::counter("adapt.restores").value(), 1);
}

INSTANTIATE_TEST_SUITE_P(Tasks, GuardedAdapt, all_tasks(), task_param_name);
