// Tiny per-task Adapt fixtures shared by the suites that pin the training
// loop's contracts on all three tasks (VP, ABR, CJS): the training data, the
// adapters (LoRA rank 2; the RL tasks use a 4-step context window), and a
// Task-parameterized `AdaptCase` so one test body covers every task.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/abr/rule_based.hpp"
#include "baselines/cjs/rule_based.hpp"
#include "llm/tokenizer.hpp"
#include "netllm/api.hpp"

namespace adapt_cases {

namespace ad = netllm::adapt;
using netllm::core::Rng;
using Llm = std::shared_ptr<netllm::llm::MiniGpt>;

/// A tiny backbone with room (112 positions) for a 4-step ABR/CJS window.
inline Llm tiny_llm(std::uint64_t seed = 1, std::int64_t n_layers = 1) {
  netllm::llm::MiniGptConfig cfg;
  cfg.vocab = netllm::llm::Tokenizer().vocab_size();
  cfg.d_model = 16;
  cfg.n_heads = 2;
  cfg.n_layers = n_layers;
  cfg.d_ff = 32;
  cfg.max_seq = 112;
  Rng rng(seed);
  return std::make_shared<netllm::llm::MiniGpt>(cfg, rng);
}

inline std::vector<netllm::vp::VpSample> vp_data(int max_samples = 8) {
  auto setting = netllm::vp::vp_default_train();
  setting.num_traces = 1;
  return netllm::vp::build_dataset(setting, max_samples);
}

inline std::vector<ad::AbrTrajectory> abr_pool() {
  auto setting = netllm::abr::abr_default_train();
  setting.num_traces = 2;
  netllm::baselines::Bba bba;
  return ad::api::RL_Collect(bba, setting, 1, 0.1, 3);
}

inline netllm::cjs::WorkloadConfig cjs_workload() {
  netllm::cjs::WorkloadConfig wl;
  wl.num_job_requests = 6;
  wl.executor_units_k = 4;
  wl.scale = 1.0;
  wl.seed = 5;
  return wl;
}

inline std::vector<ad::CjsTrajectory> cjs_pool() {
  netllm::baselines::FairScheduler fair;
  return ad::api::RL_Collect(fair, cjs_workload(), 2, 7);
}

inline std::shared_ptr<ad::VpAdapter> make_vp(Llm llm, Rng& rng) {
  ad::VpAdapterConfig cfg;
  cfg.lora_rank = 2;
  return std::make_shared<ad::VpAdapter>(std::move(llm), cfg, rng);
}

inline std::shared_ptr<ad::AbrAdapter> make_abr(Llm llm, Rng& rng) {
  ad::AbrAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.context_window = 4;
  return std::make_shared<ad::AbrAdapter>(std::move(llm), cfg, rng);
}

inline std::shared_ptr<ad::CjsAdapter> make_cjs(Llm llm, Rng& rng) {
  ad::CjsAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.context_window = 4;
  return std::make_shared<ad::CjsAdapter>(std::move(llm), cfg, rng);
}

enum class Task { kVp, kAbr, kCjs };

inline std::string task_name(Task task) {
  const char* names[] = {"vp", "abr", "cjs"};
  return names[static_cast<int>(task)];
}

/// Test-name generator for suites parameterized over `Task`.
inline std::string task_param_name(const ::testing::TestParamInfo<Task>& info) {
  return task_name(info.param);
}

inline auto all_tasks() { return ::testing::Values(Task::kVp, Task::kAbr, Task::kCjs); }

/// One task's adapter with its training data bound.
struct AdaptCase {
  std::shared_ptr<netllm::nn::Module> adapter;
  std::function<ad::AdaptStats(int steps, float lr, std::uint64_t seed)> adapt;
  /// One deterministic inference pass of the adapted model, as numbers.
  std::function<std::vector<double>()> decide;
};

inline AdaptCase make_case(Task task, Llm llm, Rng& rng) {
  if (task == Task::kVp) {
    auto a = make_vp(std::move(llm), rng);
    const auto data = vp_data();
    return {a, [a, data](int n, float lr, std::uint64_t seed) { return a->adapt(data, n, lr, seed); },
            [a, data] {
              std::vector<double> out;
              for (const auto& v : a->predict(data[0].history, data[0].saliency, 3)) {
                out.insert(out.end(), {v.roll, v.pitch, v.yaw});
              }
              return out;
            }};
  }
  if (task == Task::kAbr) {
    auto a = make_abr(std::move(llm), rng);
    return {a, [a, pool = abr_pool()](int n, float lr, std::uint64_t seed) {
              return a->adapt(pool, n, lr, seed);
            },
            [a] {
              auto setting = netllm::abr::abr_default_test();
              setting.num_traces = 1;
              return netllm::abr::evaluate_qoe(*a, netllm::abr::video_for(setting),
                                               netllm::abr::traces_for(setting));
            }};
  }
  auto a = make_cjs(std::move(llm), rng);
  return {a, [a, pool = cjs_pool()](int n, float lr, std::uint64_t seed) {
            return a->adapt(pool, n, lr, seed);
          },
          [a] { return netllm::cjs::run_workload(cjs_workload(), *a).jct_s; }};
}

using ParamImage = std::vector<std::vector<float>>;

inline ParamImage snap(const netllm::nn::Module& m) {
  ParamImage out;
  for (const auto& [name, t] : m.named_parameters()) {
    auto d = t.data();
    out.emplace_back(d.begin(), d.end());
  }
  return out;
}

inline void expect_bitwise_equal(const ParamImage& a, const ParamImage& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size()) << "param " << i;
    EXPECT_EQ(std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(float)), 0)
        << "param " << i << " differs";
  }
}

}  // namespace adapt_cases
