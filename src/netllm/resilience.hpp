// Training resilience for the Adapt pipelines: NaN/Inf escaping a training
// step must not poison the adapted model. `TrainGuard` watches the
// adaptation loop (`run_adapt`, session.hpp) — it vetoes steps whose loss or
// gradients are non-finite, scans the optimised parameters after every
// applied step, and restores a periodically refreshed in-memory last-good
// snapshot when corruption lands in the weights anyway.
//
// Skip/restore totals are also counted in the `core::metrics` registry
// ("adapt.skipped_steps", "adapt.restores") for bench reports.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "tensor/tensor.hpp"

namespace netllm::adapt {

class TrainGuard {
 public:
  /// Guards the given parameter set; `snapshot_every` applied steps between
  /// last-good snapshot refreshes.
  explicit TrainGuard(std::vector<tensor::Tensor> params, int snapshot_every = 16);

  /// False when the loss is non-finite: the caller must skip this step
  /// (no backward, no optimizer step).
  bool loss_ok(float loss_value);

  /// Call after backward, before the optimizer step. False when any gradient
  /// is non-finite: the caller must zero grads and skip the step.
  bool grads_ok();

  /// Call after each applied optimizer step. Verifies the parameters are
  /// still finite — restores the last-good snapshot if not (returns true),
  /// refreshes the snapshot on schedule otherwise.
  /// Fault-injection site: "adapter.params" (corrupts the first parameter,
  /// exercising the restore path).
  bool after_step();

  int skipped_steps() const { return skipped_; }
  int restores() const { return restores_; }

  /// Append the guard's resume state — last-good snapshot, snapshot cadence
  /// position, skip/restore counters — to `out`. Durable sessions persist
  /// this so a resumed run restores corruption to the *same* values an
  /// uninterrupted run would have.
  void save_state(std::string& out) const;
  /// Restore a `save_state` blob; throws std::runtime_error on a truncated
  /// blob or a parameter-count/size mismatch.
  void load_state(std::string_view blob);

 private:
  void capture();
  void restore();
  bool params_finite() const;

  std::vector<tensor::Tensor> params_;
  std::vector<std::vector<float>> good_;  // last-good values, aligned with params_
  int snapshot_every_;
  int steps_since_snapshot_ = 0;
  int skipped_ = 0;
  int restores_ = 0;
};

}  // namespace netllm::adapt
