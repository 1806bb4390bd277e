// Tests for the NetLLM core: multimodal encoders, networking heads, the
// three task adapters (shapes, validity guarantees, LoRA/backbone
// freezing, adaptation smoke tests), the prompt-learning baseline and the
// cost instrumentation.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "baselines/abr/rule_based.hpp"
#include "baselines/cjs/rule_based.hpp"
#include "core/stats.hpp"
#include "netllm/abr_adapter.hpp"
#include "netllm/api.hpp"
#include "netllm/cjs_adapter.hpp"
#include "netllm/costs.hpp"
#include "netllm/encoders.hpp"
#include "netllm/heads.hpp"
#include "netllm/prompt_vp.hpp"
#include "netllm/vp_adapter.hpp"

#include "adapt_cases.hpp"

namespace nt = netllm::tensor;
namespace nn = netllm::nn;
namespace ad = netllm::adapt;
namespace abr = netllm::abr;
namespace cjs = netllm::cjs;
namespace vp = netllm::vp;
using netllm::core::Rng;
using adapt_cases::tiny_llm;

namespace {

ad::VpAdapterConfig tiny_vp_cfg() {
  ad::VpAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.lora_alpha = 4.0f;
  return cfg;
}

}  // namespace

// ---------- encoders ----------

TEST(Encoders, TimeSeriesProducesOneNormalisedToken) {
  Rng rng(1);
  ad::TimeSeriesEncoder enc(1, 8, 16, rng);
  auto tok = enc.forward(nt::Tensor::randn({1, 8}, rng, 1.0f));
  ASSERT_EQ(tok.shape(), (nt::Shape{1, 16}));
  // Layer-normed output: zero mean, unit-ish variance.
  float mu = 0.0f;
  for (float v : tok.data()) mu += v;
  EXPECT_NEAR(mu / 16.0f, 0.0f, 0.2f);
  EXPECT_THROW(enc.forward(nt::Tensor::zeros({1, 9})), std::invalid_argument);
}

TEST(Encoders, ScalarEncoderSpanAndTensorAgree) {
  Rng rng(2);
  ad::ScalarEncoder enc(2, 16, rng);
  const float vals[] = {0.5f, -0.2f};
  auto a = enc.forward(vals);
  auto b = enc.forward(nt::Tensor::from({0.5f, -0.2f}, {1, 2}));
  for (int j = 0; j < 16; ++j) EXPECT_EQ(a.at(j), b.at(j));
}

TEST(Encoders, ImageEncoderFreezesViTByDefault) {
  Rng rng(3);
  ad::ImageEncoder enc(16, rng);
  auto tok = enc.forward(nt::Tensor::zeros({16, 16}));
  ASSERT_EQ(tok.shape(), (nt::Shape{1, 16}));
  // Trainables are only the projection + norm; the ViT backbone is frozen.
  std::int64_t trainable = enc.trainable_param_count();
  EXPECT_GT(trainable, 0);
  EXPECT_LT(trainable, enc.param_count() / 2);
}

TEST(Encoders, GraphTokenEncoderShapes) {
  Rng rng(4);
  ad::GraphTokenEncoder enc(cjs::SchedObservation::kNodeFeatures, 16, rng);
  nn::DagTopology topo;
  topo.num_nodes = 3;
  topo.children = {{1, 2}, {}, {}};
  auto out = enc.forward(nt::Tensor::randn({3, cjs::SchedObservation::kNodeFeatures}, rng, 1.0f),
                         topo);
  ASSERT_EQ(out.global_token.shape(), (nt::Shape{1, 16}));
  ASSERT_EQ(out.node_embeddings.shape(), (nt::Shape{3, enc.gnn_dim()}));
}

TEST(Encoders, ActionEncoderDistinguishesActions) {
  Rng rng(5);
  ad::ActionEncoder enc(6, 16, rng);
  auto a = enc.forward(0);
  auto b = enc.forward(5);
  float diff = 0.0f;
  for (int j = 0; j < 16; ++j) diff += std::abs(a.at(j) - b.at(j));
  EXPECT_GT(diff, 0.1f);
}

// ---------- heads ----------

TEST(Heads, CategoricalArgmaxAndLogitsShape) {
  Rng rng(6);
  ad::CategoricalHead head(16, 6, rng);
  auto feats = nt::Tensor::randn({1, 16}, rng, 1.0f);
  auto logits = head.logits(feats);
  ASSERT_EQ(logits.shape(), (nt::Shape{1, 6}));
  const int choice = head.argmax(feats);
  EXPECT_GE(choice, 0);
  EXPECT_LT(choice, 6);
}

TEST(Heads, PointerHandlesVariableCandidateCounts) {
  Rng rng(7);
  ad::PointerHead head(16, 8, rng);
  auto feat = nt::Tensor::randn({1, 16}, rng, 1.0f);
  for (std::int64_t n : {1, 3, 9}) {
    auto cands = nt::Tensor::randn({n, 8}, rng, 1.0f);
    auto logits = head.logits(feat, cands);
    ASSERT_EQ(logits.shape(), (nt::Shape{1, n}));
    const int pick = head.argmax(feat, cands);
    EXPECT_GE(pick, 0);
    EXPECT_LT(pick, static_cast<int>(n));
  }
}

TEST(Heads, RegressionHeadShape) {
  Rng rng(8);
  ad::RegressionHead head(16, 3, rng);
  auto out = head.forward(nt::Tensor::randn({5, 16}, rng, 1.0f));
  ASSERT_EQ(out.shape(), (nt::Shape{5, 3}));
}

// ---------- VP adapter ----------

TEST(VpAdapter, BackboneFrozenLoraAndModulesTrainable) {
  Rng rng(9);
  auto llm = tiny_llm();
  ad::VpAdapterConfig cfg;
  cfg.lora_rank = 2;
  ad::VpAdapter adapter(llm, cfg, rng);
  // LLM backbone contributes nothing trainable...
  for (auto& [name, t] : llm->named_parameters()) {
    if (name.find("lora") == std::string::npos) {
      EXPECT_FALSE(t.requires_grad()) << name;
    }
  }
  // ...but the adapter exposes encoder + head + LoRA trainables.
  EXPECT_GT(adapter.trainable_param_count(), 0);
}

TEST(VpAdapter, PredictsValidHorizonsAndAdaptImproves) {
  auto setting = vp::vp_default_train();
  setting.num_traces = 3;
  auto data = vp::build_dataset(setting, 60);
  Rng rng(10);
  auto adapter = std::make_shared<ad::VpAdapter>(tiny_llm(), tiny_vp_cfg(), rng);
  auto pred = adapter->predict(data[0].history, data[0].saliency, 20);
  EXPECT_EQ(pred.size(), 20u);
  auto pred_long = adapter->predict(data[0].history, data[0].saliency, 30);
  EXPECT_EQ(pred_long.size(), 30u);  // longer pw generalization path

  const double before = netllm::core::mean(vp::evaluate_mae(*adapter, {data.data(), 20}));
  auto stats = adapter->adapt(data, 150, 2e-3f, 11);
  EXPECT_LT(stats.final_loss, stats.initial_loss);
  const double after = netllm::core::mean(vp::evaluate_mae(*adapter, {data.data(), 20}));
  EXPECT_LT(after, before);
}

TEST(VpAdapter, SnapshotRoundTrip) {
  Rng rng(12);
  auto setting = vp::vp_default_train();
  setting.num_traces = 1;
  auto data = vp::build_dataset(setting, 5);
  auto a = std::make_shared<ad::VpAdapter>(tiny_llm(42), tiny_vp_cfg(), rng);
  a->adapt(data, 20, 1e-3f, 1);
  const std::string path = "/tmp/netllm_vp_snapshot.bin";
  a->save(path);
  Rng rng2(99);
  auto b = std::make_shared<ad::VpAdapter>(tiny_llm(42), tiny_vp_cfg(), rng2);
  b->load(path);
  auto pa = a->predict(data[0].history, data[0].saliency, 5);
  auto pb = b->predict(data[0].history, data[0].saliency, 5);
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_NEAR(pa[i].yaw, pb[i].yaw, 1e-4);
  }
  std::remove(path.c_str());
}

// ---------- ABR adapter ----------

TEST(AbrAdapter, ExperienceCollectionShapes) {
  auto setting = abr::abr_default_train();
  setting.num_traces = 3;
  auto video = abr::video_for(setting);
  auto traces = abr::traces_for(setting);
  netllm::baselines::Bba bba;
  auto pool = ad::collect_abr_experience(bba, video, traces, 2, 0.1, 5);
  ASSERT_EQ(pool.size(), 6u);  // traces x epochs
  for (const auto& traj : pool) {
    ASSERT_EQ(traj.size(), 48u);  // one step per chunk
    for (const auto& s : traj) {
      EXPECT_EQ(s.throughput.size(), static_cast<std::size_t>(abr::Observation::kHistory));
      EXPECT_GE(s.action, 0);
      EXPECT_LT(s.action, 6);
    }
  }
}

TEST(AbrAdapter, AlwaysProducesValidBitratesInOneInference) {
  Rng rng(13);
  ad::AbrAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.context_window = 4;
  ad::AbrAdapter adapter(tiny_llm(), cfg, rng);
  auto setting = abr::abr_default_test();
  setting.num_traces = 2;
  auto video = abr::video_for(setting);
  auto traces = abr::traces_for(setting);
  // Even untrained, every answer must be a valid ladder rung (the paper's
  // reliability property — networking heads cannot hallucinate).
  auto qoe = abr::evaluate_qoe(adapter, video, traces);
  EXPECT_EQ(qoe.size(), 2u);  // sessions completed without invalid actions
}

TEST(AbrAdapter, AdaptReducesActionCrossEntropy) {
  auto setting = abr::abr_default_train();
  setting.num_traces = 4;
  auto video = abr::video_for(setting);
  auto traces = abr::traces_for(setting);
  netllm::baselines::Bba bba;
  auto pool = ad::collect_abr_experience(bba, video, traces, 1, 0.05, 5);
  Rng rng(14);
  ad::AbrAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.context_window = 6;
  ad::AbrAdapter adapter(tiny_llm(), cfg, rng);
  auto stats = adapter.adapt(pool, 120, 2e-3f, 3);
  EXPECT_LT(stats.final_loss, stats.initial_loss);
}

TEST(AbrAdapter, ContextWindowTooLargeThrows) {
  Rng rng(15);
  ad::AbrAdapterConfig cfg;
  cfg.context_window = 40;  // 40 * 6 tokens > 112
  EXPECT_THROW(ad::AbrAdapter(tiny_llm(), cfg, rng), std::invalid_argument);
}

// ---------- CJS adapter ----------

TEST(CjsAdapter, SchedulesWorkloadWithValidActions) {
  Rng rng(16);
  ad::CjsAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.context_window = 4;
  ad::CjsAdapter adapter(tiny_llm(), cfg, rng);
  cjs::WorkloadConfig wl;
  wl.num_job_requests = 10;
  wl.executor_units_k = 6;
  wl.scale = 1.0;
  wl.seed = 3;
  auto result = cjs::run_workload(wl, adapter);
  EXPECT_EQ(result.jct_s.size(), 10u);  // all jobs completed => valid actions
}

TEST(CjsAdapter, AdaptOnDecimaExperienceReducesLoss) {
  netllm::baselines::FifoScheduler fifo;
  cjs::WorkloadConfig base;
  base.num_job_requests = 8;
  base.executor_units_k = 6;
  base.scale = 1.0;
  auto pool = ad::collect_cjs_experience(fifo, base, 4, 9);
  ASSERT_EQ(pool.size(), 4u);
  ASSERT_FALSE(pool[0].empty());
  Rng rng(17);
  ad::CjsAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.context_window = 6;
  ad::CjsAdapter adapter(tiny_llm(), cfg, rng);
  auto stats = adapter.adapt(pool, 80, 2e-3f, 5);
  EXPECT_LT(stats.final_loss, stats.initial_loss);
}

// ---------- DT experience pools ----------

/// A pool with nothing to train on is a named error, and a pool of one-step
/// trajectories still trains (each window is one decision).
template <typename Adapter, typename Pool>
void expect_untrainable_pools_rejected(Adapter& adapter, Pool pool) {
  EXPECT_THROW(adapter.adapt(Pool(pool.size()), 4, 1e-3f, 1), std::invalid_argument);
  for (auto& traj : pool) traj.resize(1);
  const auto before = adapt_cases::snap(adapter);
  const auto stats = adapter.adapt(pool, 4, 1e-3f, 1);
  EXPECT_TRUE(std::isfinite(stats.final_loss));
  EXPECT_GT(stats.initial_loss, 0.0f);
  EXPECT_TRUE(adapt_cases::snap(adapter) != before) << "no parameter changed";
}

TEST(DtPool, EmptyTrajectoriesThrowAndOneStepTrajectoriesTrain) {
  Rng rng(31);
  {
    SCOPED_TRACE("abr");
    expect_untrainable_pools_rejected(*adapt_cases::make_abr(tiny_llm(), rng),
                                      adapt_cases::abr_pool());
  }
  {
    SCOPED_TRACE("cjs");
    expect_untrainable_pools_rejected(*adapt_cases::make_cjs(tiny_llm(), rng),
                                      adapt_cases::cjs_pool());
  }
}

// ---------- prompt learning (Fig. 2 baseline) ----------

TEST(PromptVp, RenderAndParseRoundTrip) {
  std::vector<vp::Viewport> future = {{1, -5, 100}, {2, 3, -42}};
  const auto text = ad::render_vp_answer(future);
  auto parsed = ad::parse_vp_answer(text, 2);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ((*parsed)[0].yaw, 100);
  EXPECT_DOUBLE_EQ((*parsed)[1].pitch, 3);
}

TEST(PromptVp, ParserRejectsMalformedAndOutOfRange) {
  EXPECT_FALSE(ad::parse_vp_answer("(1,2)", 1).has_value());          // missing coord
  EXPECT_FALSE(ad::parse_vp_answer("(1,2,3", 1).has_value());         // unterminated
  EXPECT_FALSE(ad::parse_vp_answer("(1,2,3)", 2).has_value());        // too few groups
  EXPECT_FALSE(ad::parse_vp_answer("(1,2,999)", 1).has_value());      // invalid yaw
  EXPECT_FALSE(ad::parse_vp_answer("(a,b,c)", 1).has_value());        // not numbers
  EXPECT_TRUE(ad::parse_vp_answer(" (0,0,0) (1,1,1)", 2).has_value());
}

TEST(PromptVp, GeneratesAnswersAndReportsValidity) {
  auto setting = vp::vp_default_train();
  setting.num_traces = 1;
  auto data = vp::build_dataset(setting, 10);
  ad::PromptVpModel model(tiny_llm());
  auto pred = model.predict(data[0].history, data[0].saliency, 5);
  EXPECT_EQ(pred.size(), 5u);
  // Untrained tiny LLM output is garbage text: parsing almost surely fails,
  // but the fallback still yields a usable (valid-range) prediction.
  EXPECT_GE(model.last_generation_tokens(), 0);
  for (const auto& v : pred) EXPECT_LE(std::abs(v.yaw), 160.5);
}

TEST(PromptVp, FineTuneReducesAnswerLoss) {
  auto setting = vp::vp_default_train();
  setting.num_traces = 2;
  auto data = vp::build_dataset(setting, 40);
  ad::PromptVpModel model(tiny_llm());
  auto stats = model.fine_tune(data, 150, 2e-3f, 3);
  EXPECT_LT(stats.final_loss, stats.initial_loss);
}

// ---------- costs ----------

TEST(Costs, FootprintMatchesHandComputation) {
  Rng rng(18);
  auto w = nt::Tensor::zeros({10, 10}, true);
  auto fp = ad::measure_footprint(1000, {{w}});
  EXPECT_EQ(fp.trainable_params, 100);
  EXPECT_EQ(fp.param_bytes, 4000);
  EXPECT_EQ(fp.grad_bytes, 400);
  EXPECT_EQ(fp.optimizer_bytes, 800);
  EXPECT_NEAR(fp.trainable_fraction(), 0.1, 1e-12);
}

TEST(Costs, LoraFootprintFarSmallerThanFullFineTune) {
  Rng rng(19);
  auto llm = tiny_llm();
  ad::AbrAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.context_window = 4;
  ad::AbrAdapter adapter(llm, cfg, rng);
  const auto total = llm->param_count() + adapter.param_count();
  auto lora_fp = ad::measure_footprint(total, adapter.trainable_parameters());
  auto full_fp = ad::measure_footprint(total, llm->parameters());
  EXPECT_LT(lora_fp.training_state_bytes(), full_fp.training_state_bytes());
}

TEST(Costs, OnlineRlSplitsTimeBetweenInteractionAndOptimization) {
  Rng rng(20);
  ad::AbrAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.context_window = 4;
  ad::AbrAdapter adapter(tiny_llm(), cfg, rng);
  auto setting = abr::abr_default_train();
  setting.num_traces = 2;
  auto video = abr::video_for(setting);
  auto traces = abr::traces_for(setting);
  auto timings = ad::run_online_rl_abr(adapter, video, traces, 2, 1e-3f, 4);
  EXPECT_GT(timings.interaction_s, 0.0);
  EXPECT_GT(timings.optimization_s, 0.0);
  EXPECT_EQ(timings.iterations, 2);
}

// ---------- Fig. 9 API facade ----------

TEST(Api, VpAdaptAndTest) {
  auto setting = vp::vp_default_train();
  setting.num_traces = 2;
  auto data = vp::build_dataset(setting, 30);
  Rng rng(21);
  ad::api::AdaptOptions opts;
  opts.steps = 30;
  auto adapter = ad::api::Adapt(tiny_llm(), data, tiny_vp_cfg(),
                                opts, rng);
  auto test_setting = vp::vp_default_test();
  test_setting.num_traces = 1;
  const double mae = ad::api::Test(*adapter, test_setting, 10);
  EXPECT_GT(mae, 0.0);
  EXPECT_LT(mae, 180.0);
}

TEST(Api, AbrCollectAdaptTest) {
  auto setting = abr::abr_default_train();
  setting.num_traces = 2;
  netllm::baselines::Bba bba;
  auto pool = ad::api::RL_Collect(bba, setting, 1, 0.1, 3);
  Rng rng(22);
  ad::api::AdaptOptions opts;
  opts.steps = 20;
  ad::AbrAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.context_window = 4;
  auto adapter = ad::api::Adapt(tiny_llm(), pool, cfg, opts, rng);
  auto test_setting = abr::abr_default_test();
  test_setting.num_traces = 2;
  const double qoe = ad::api::Test(*adapter, test_setting);
  EXPECT_GT(qoe, -50.0);
  EXPECT_LT(qoe, 10.0);
}
