// The benchmark's workloads (see perfbench/README.md for why each exists).
#pragma once

#include <vector>

#include "bench.hpp"
#include "envs/vp/dataset.hpp"

namespace perfbench {

/// Open loop of independent 360-degree viewers (d64 f32 backbone): a
/// nominal phase for latency, then an overload phase for goodput.
void run_vp_crowd(const Options& opts, Report& report);
/// Backlog of unique VP prompts on the 512-wide q8_0 backbone.
void run_vp_wide(const Options& opts, Report& report);
/// Closed loop: ABR streaming sessions plus one CJS episode (d64 f32).
void run_dt_sessions(const Options& opts, Report& report);

/// Base VP samples (history + saliency) drawn from the run seed.
std::vector<netllm::vp::VpSample> vp_base_samples(std::uint64_t seed);
/// The request a prompt reference stands for: the base sample's history,
/// shifted by a tiny per-request yaw offset when the prompt is unique.
netllm::serve::VpRequest vp_request(const std::vector<netllm::vp::VpSample>& base,
                                    const PromptRef& ref, int horizon);

/// Generator and statistics self-test; returns the number of failures.
int selftest();

}  // namespace perfbench
