// The paper's integration surface (Fig. 9): three APIs that plug NetLLM
// into an existing SL/RL codebase — `Adapt` fine-tunes the LLM on a dataset
// and returns a snapshot, `Test` evaluates the adapted LLM on environments
// generated from simulation settings, and `RL_Collect` builds the
// experience dataset for RL tasks using an existing policy.
//
// These are thin facades over the task adapters; examples/ uses them to
// show the end-to-end flow in a few lines.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>

#include "core/stats.hpp"
#include "netllm/abr_adapter.hpp"
#include "netllm/cjs_adapter.hpp"
#include "netllm/guarded.hpp"
#include "netllm/serve.hpp"
#include "netllm/vp_adapter.hpp"

namespace netllm::adapt::api {

struct AdaptOptions {
  int steps = 400;
  float lr = 1e-3f;
  std::uint64_t seed = 7;
  std::string snapshot_path;  // optional: where to save the adapted weights
  // Durable-session knobs (see session.hpp): with `session_dir` set the run
  // checkpoints periodically, drains cleanly on SIGINT/SIGTERM, and `Resume`
  // continues it bitwise-identically.
  std::string session_dir;
  int checkpoint_every = 64;
  int keep_last = 3;
  // Backbone weight dtype for the adapter that comes out of `Adapt`
  // (DESIGN.md §15): kQ8_0/kQ4_0 quantize the frozen projections for
  // inference. Training itself always runs on the fp32 masters
  // (ScopedQuantPause), so checkpoints are bitwise dtype-invariant.
  tensor::quant::Dtype backbone_dtype = tensor::quant::Dtype::kF32;
};

namespace detail {
/// The `Adapt` body shared by the three tasks: build the adapter, quantize
/// its backbone for serving when asked, adapt, save the snapshot.
template <typename Adapter, typename Data, typename Config>
std::shared_ptr<Adapter> adapt(std::shared_ptr<llm::MiniGpt> llm, std::span<const Data> data,
                               const Config& cfg, const AdaptOptions& opts, core::Rng& rng,
                               bool resume = false) {
  // Resume requires evidence of an interrupted run: a fresh `Adapt` on a
  // mistyped directory should not silently train from scratch.
  if (resume && opts.session_dir.empty()) {
    throw std::invalid_argument("Resume: AdaptOptions::session_dir is empty");
  }
  if (resume && !TrainSession::latest_step(opts.session_dir)) {
    throw std::invalid_argument("Resume: no checkpoint found in " + opts.session_dir);
  }
  auto adapter = std::make_shared<Adapter>(std::move(llm), cfg, rng);
  if (opts.backbone_dtype != tensor::quant::Dtype::kF32) {
    adapter->llm_shared()->quantize_backbone(opts.backbone_dtype);
  }
  adapter->adapt(data, opts.steps, opts.lr, opts.seed,
                 SessionOptions{opts.session_dir, opts.checkpoint_every, opts.keep_last,
                                /*handle_signals=*/true});
  // Snapshot saves are atomic (tmp + fsync + rename) and retried with capped
  // exponential backoff, so a finished adaptation is not lost to a transient
  // I/O failure.
  if (!opts.snapshot_path.empty()) {
    tensor::save_params_retry(opts.snapshot_path, adapter->named_parameters());
  }
  return adapter;
}
}  // namespace detail

// ---- VP (SL pipeline, Eq. 1) ----

inline std::shared_ptr<VpAdapter> Adapt(std::shared_ptr<llm::MiniGpt> llm,
                                        std::span<const vp::VpSample> dataset,
                                        const VpAdapterConfig& cfg, const AdaptOptions& opts,
                                        core::Rng& rng) {
  return detail::adapt<VpAdapter>(std::move(llm), dataset, cfg, opts, rng);
}

/// Continue an interrupted VP adaptation from `opts.session_dir`; throws
/// std::invalid_argument when the directory holds no checkpoint. The options
/// must match the interrupted run (fingerprint-checked — see SessionMismatch).
inline std::shared_ptr<VpAdapter> Resume(std::shared_ptr<llm::MiniGpt> llm,
                                         std::span<const vp::VpSample> dataset,
                                         const VpAdapterConfig& cfg, const AdaptOptions& opts,
                                         core::Rng& rng) {
  return detail::adapt<VpAdapter>(std::move(llm), dataset, cfg, opts, rng, /*resume=*/true);
}

/// Mean MAE of any VP predictor on the environments of a Table 2 setting.
inline double Test(vp::VpPredictor& model, const vp::VpSetting& setting, int max_samples = 0) {
  const auto samples = vp::build_dataset(setting, max_samples);
  return core::mean(vp::evaluate_mae(model, samples));
}

// ---- ABR (data-driven RL pipeline, Eqs. 2-4) ----

inline std::vector<AbrTrajectory> RL_Collect(abr::AbrPolicy& policy,
                                             const abr::AbrSetting& setting, int epochs,
                                             double epsilon, std::uint64_t seed) {
  const auto video = abr::video_for(setting);
  const auto traces = abr::traces_for(setting);
  return collect_abr_experience(policy, video, traces, epochs, epsilon, seed);
}

inline std::shared_ptr<AbrAdapter> Adapt(std::shared_ptr<llm::MiniGpt> llm,
                                         std::span<const AbrTrajectory> pool,
                                         const AbrAdapterConfig& cfg, const AdaptOptions& opts,
                                         core::Rng& rng) {
  return detail::adapt<AbrAdapter>(std::move(llm), pool, cfg, opts, rng);
}

/// Continue an interrupted ABR adaptation (see the VP overload).
inline std::shared_ptr<AbrAdapter> Resume(std::shared_ptr<llm::MiniGpt> llm,
                                          std::span<const AbrTrajectory> pool,
                                          const AbrAdapterConfig& cfg, const AdaptOptions& opts,
                                          core::Rng& rng) {
  return detail::adapt<AbrAdapter>(std::move(llm), pool, cfg, opts, rng, /*resume=*/true);
}

/// Mean QoE of any ABR policy on the environments of a Table 3 setting.
inline double Test(abr::AbrPolicy& policy, const abr::AbrSetting& setting) {
  const auto video = abr::video_for(setting);
  const auto traces = abr::traces_for(setting);
  return core::mean(abr::evaluate_qoe(policy, video, traces));
}

// ---- CJS (data-driven RL pipeline, Eqs. 2-4) ----

inline std::vector<CjsTrajectory> RL_Collect(cjs::SchedPolicy& policy,
                                             const cjs::WorkloadConfig& base, int episodes,
                                             std::uint64_t seed) {
  return collect_cjs_experience(policy, base, episodes, seed);
}

inline std::shared_ptr<CjsAdapter> Adapt(std::shared_ptr<llm::MiniGpt> llm,
                                         std::span<const CjsTrajectory> pool,
                                         const CjsAdapterConfig& cfg, const AdaptOptions& opts,
                                         core::Rng& rng) {
  return detail::adapt<CjsAdapter>(std::move(llm), pool, cfg, opts, rng);
}

/// Continue an interrupted CJS adaptation (see the VP overload).
inline std::shared_ptr<CjsAdapter> Resume(std::shared_ptr<llm::MiniGpt> llm,
                                          std::span<const CjsTrajectory> pool,
                                          const CjsAdapterConfig& cfg, const AdaptOptions& opts,
                                          core::Rng& rng) {
  return detail::adapt<CjsAdapter>(std::move(llm), pool, cfg, opts, rng, /*resume=*/true);
}

/// Mean JCT of any scheduler on a Table 4 workload setting.
inline double Test(cjs::SchedPolicy& policy, const cjs::WorkloadConfig& setting) {
  const auto result = cjs::run_workload(setting, policy);
  return core::mean(result.jct_s);
}

// ---- Guarded serving (robustness layer) ----
// Wrap any adapted model for production-style serving: latency budget,
// output validation, rule-based fallback (LR / BBA / FIFO) and a circuit
// breaker. The guarded object satisfies the same policy interface, so it
// drops into `Test` and the benches unchanged.

inline std::shared_ptr<GuardedVpPredictor> Guard(std::shared_ptr<vp::VpPredictor> model,
                                                 GuardConfig cfg = {}) {
  return std::make_shared<GuardedVpPredictor>(std::move(model), nullptr, std::move(cfg));
}

inline std::shared_ptr<GuardedAbrPolicy> Guard(std::shared_ptr<abr::AbrPolicy> policy,
                                               GuardConfig cfg = {}) {
  return std::make_shared<GuardedAbrPolicy>(std::move(policy), nullptr, std::move(cfg));
}

inline std::shared_ptr<GuardedSchedPolicy> Guard(std::shared_ptr<cjs::SchedPolicy> policy,
                                                 GuardConfig cfg = {}) {
  return std::make_shared<GuardedSchedPolicy>(std::move(policy), nullptr, std::move(cfg));
}

// ---- Batched serving (KV-cache era, DESIGN.md §10) ----
// Queue concurrent VP/ABR/CJS requests and drain them over the shared
// thread pool, each request individually guarded (budget, validity,
// breaker, rule-based fallback). Any subset of the three models may be
// null; submitting to a missing backend throws.

inline std::shared_ptr<serve::InferenceEngine> Serve(
    std::shared_ptr<vp::VpPredictor> vp_model, std::shared_ptr<abr::AbrPolicy> abr_policy = nullptr,
    std::shared_ptr<cjs::SchedPolicy> cjs_policy = nullptr, serve::EngineConfig cfg = {}) {
  return std::make_shared<serve::InferenceEngine>(std::move(vp_model), std::move(abr_policy),
                                                  std::move(cjs_policy), std::move(cfg));
}

/// As above, with explicit fallbacks — e.g. a cheaper adapted model as the
/// degraded-mode server instead of the rule-based defaults. Null fallbacks
/// still default to LR / BBA / FIFO.
inline std::shared_ptr<serve::InferenceEngine> Serve(
    std::shared_ptr<vp::VpPredictor> vp_model, std::shared_ptr<abr::AbrPolicy> abr_policy,
    std::shared_ptr<cjs::SchedPolicy> cjs_policy, serve::EngineConfig cfg,
    std::shared_ptr<vp::VpPredictor> vp_fallback, std::shared_ptr<abr::AbrPolicy> abr_fallback,
    std::shared_ptr<cjs::SchedPolicy> cjs_fallback = nullptr) {
  return std::make_shared<serve::InferenceEngine>(
      std::move(vp_model), std::move(abr_policy), std::move(cjs_policy), std::move(cfg),
      std::move(vp_fallback), std::move(abr_fallback), std::move(cjs_fallback));
}

}  // namespace netllm::adapt::api
