#include "netllm/vp_adapter.hpp"

#include <cmath>
#include <stdexcept>

#include "core/trace.hpp"

namespace netllm::adapt {

namespace {
using namespace netllm::tensor;

constexpr float kRollScale = 20.0f, kPitchScale = 60.0f, kYawScale = 160.0f;

}  // namespace

VpAdapter::VpAdapter(std::shared_ptr<llm::MiniGpt> llm, const VpAdapterConfig& cfg,
                     core::Rng& rng)
    : llm_(std::move(llm)), cfg_(cfg) {
  if (!llm_) throw std::invalid_argument("VpAdapter: null LLM");
  const auto d = llm_->config().d_model;
  image_encoder_ = std::make_shared<ImageEncoder>(d, rng);
  viewport_encoder_ = std::make_shared<ScalarEncoder>(3, d, rng);
  head_ = std::make_shared<RegressionHead>(d, 3, rng);
  llm_->freeze_backbone();
  if (cfg_.use_lora) lora_ = llm_->enable_lora(cfg_.lora_rank, cfg_.lora_alpha, rng);
}

Tensor VpAdapter::viewport_token(const vp::Viewport& v) const {
  const float coords[] = {static_cast<float>(v.roll) / kRollScale,
                          static_cast<float>(v.pitch) / kPitchScale,
                          static_cast<float>(v.yaw) / kYawScale};
  return viewport_encoder_->forward(coords);
}

Tensor VpAdapter::build_sequence(std::span<const vp::Viewport> history,
                                 std::span<const vp::Viewport> future_teacher,
                                 const Tensor& saliency) const {
  std::vector<Tensor> tokens;
  tokens.reserve(1 + history.size() + future_teacher.size());
  tokens.push_back(image_encoder_->forward(saliency));
  for (const auto& v : history) tokens.push_back(viewport_token(v));
  for (const auto& v : future_teacher) tokens.push_back(viewport_token(v));
  return concat_rows(tokens);
}

Tensor VpAdapter::loss(const vp::VpSample& sample) const {
  if (sample.history.empty() || sample.future.empty()) {
    throw std::invalid_argument("VpAdapter::loss: empty sample");
  }
  // Teacher forcing: feed history plus all-but-last future viewports; the
  // features at positions hw-1 .. hw+pw-2 (offset by the image token)
  // predict the per-step normalized deltas.
  const auto hw = static_cast<std::int64_t>(sample.history.size());
  const auto pw = static_cast<std::int64_t>(sample.future.size());
  auto seq = build_sequence(sample.history,
                            {sample.future.data(), sample.future.size() - 1}, sample.saliency);
  auto features = llm_->forward_embeddings(seq);
  auto pred = head_->forward(slice_rows(features, hw, pw));  // image token shifts by 1
  std::vector<float> target;
  target.reserve(static_cast<std::size_t>(pw * 3));
  const vp::Viewport* prev = &sample.history.back();
  for (const auto& f : sample.future) {
    target.push_back(static_cast<float>(f.roll - prev->roll) / cfg_.delta_scale_deg);
    target.push_back(static_cast<float>(f.pitch - prev->pitch) / cfg_.delta_scale_deg);
    target.push_back(static_cast<float>(f.yaw - prev->yaw) / cfg_.delta_scale_deg);
    prev = &f;
  }
  return mse_loss(pred, Tensor::from(std::move(target), {pw, 3}));
}

namespace {

bool all_finite(std::span<const float> xs) {
  for (float x : xs) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

}  // namespace

std::vector<vp::Viewport> VpAdapter::predict(std::span<const vp::Viewport> history,
                                             const Tensor& saliency, int horizon) {
  if (history.empty() || horizon <= 0) throw std::invalid_argument("VpAdapter: bad inputs");
  // Encode the prompt (image token + history viewports) exactly once.
  const auto prompt = [&] {
    core::trace::Span span(core::trace::Phase::kEncode);
    return build_sequence(history, {}, saliency);
  }();
  const auto prompt_len = prompt.dim(0);
  // The rollout appends horizon-1 generated viewports after the prompt.
  const auto rows_needed = prompt_len + horizon - 1;

  // Per-layer caches: a pooled arena lease when attached (may throw the
  // named KvArena::Exhausted — the serve engine sheds that request), else a
  // private reserved set.
  nn::KvArena::Lease lease;
  std::vector<nn::KvCache> own;
  std::span<nn::KvCache> layers;
  if (arena_) {
    lease = arena_->lease(rows_needed);
    layers = lease.layers();
  } else {
    own.resize(static_cast<std::size_t>(llm_->config().n_layers));
    for (auto& c : own) {
      c.d_model = llm_->config().d_model;
      c.reserve(rows_needed);
    }
    layers = own;
  }

  // Prefix sharing: requests carrying the same DT-style prompt skeleton
  // (identical image + history embeddings, byte-for-byte) adopt the
  // published K/V rows and last-position features instead of re-running the
  // backbone prefill. The floats are the published request's own prefill
  // output, so a hit is bitwise a cold prefill.
  const auto d_model = llm_->config().d_model;
  const std::uint64_t key = arena_ ? nn::KvArena::prefix_key(prompt.data()) : 0;
  Tensor features_last;
  std::vector<float> warm_features;
  if (arena_ && arena_->adopt(key, prompt.data(), lease, &warm_features)) {
    features_last = Tensor::from(std::move(warm_features), {1, d_model});
  } else {
    auto features = llm_->prefill_embeddings(prompt, layers);
    features_last = slice_rows(features, prompt_len - 1, 1);
    // Never publish poisoned features: an armed llm.forward NaN fault must
    // degrade this one request, not seed the warm cache for every later hit.
    if (arena_ && all_finite(features_last.data())) {
      arena_->publish(key, prompt.data(), {layers.data(), layers.size()}, prompt_len,
                      features_last.data());
    }
  }

  std::vector<vp::Viewport> rollout;
  rollout.reserve(static_cast<std::size_t>(horizon));
  vp::Viewport cur = history.back();
  for (int k = 0; k < horizon; ++k) {
    auto delta = [&] {
      core::trace::Span span(core::trace::Phase::kHead);
      return head_->forward(features_last);
    }();
    cur.roll += static_cast<double>(delta.at(0)) * cfg_.delta_scale_deg;
    cur.pitch += static_cast<double>(delta.at(1)) * cfg_.delta_scale_deg;
    cur.yaw += static_cast<double>(delta.at(2)) * cfg_.delta_scale_deg;
    rollout.push_back(cur);
    if (k + 1 == horizon) break;
    // One incremental backbone step over the newly generated viewport —
    // bitwise the last row of the full forward predict_uncached re-runs.
    const auto tok = [&] {
      core::trace::Span span(core::trace::Phase::kEncode);
      return viewport_token(cur);
    }();
    features_last = llm_->embeddings_step(tok, layers);
  }
  return rollout;
}

std::vector<vp::Viewport> VpAdapter::predict_uncached(std::span<const vp::Viewport> history,
                                                      const Tensor& saliency, int horizon) {
  if (history.empty() || horizon <= 0) throw std::invalid_argument("VpAdapter: bad inputs");
  std::vector<vp::Viewport> rollout;
  rollout.reserve(static_cast<std::size_t>(horizon));
  vp::Viewport cur = history.back();
  std::vector<vp::Viewport> generated;
  for (int k = 0; k < horizon; ++k) {
    // Per-phase spans (DESIGN.md §11): encoder → backbone (prefill, inside
    // forward_embeddings) → networking head.
    auto seq = [&] {
      core::trace::Span span(core::trace::Phase::kEncode);
      return build_sequence(history, generated, saliency);
    }();
    auto features = llm_->forward_embeddings(seq);
    auto delta = [&] {
      core::trace::Span span(core::trace::Phase::kHead);
      return head_->forward(slice_rows(features, features.dim(0) - 1, 1));
    }();
    cur.roll += static_cast<double>(delta.at(0)) * cfg_.delta_scale_deg;
    cur.pitch += static_cast<double>(delta.at(1)) * cfg_.delta_scale_deg;
    cur.yaw += static_cast<double>(delta.at(2)) * cfg_.delta_scale_deg;
    rollout.push_back(cur);
    generated.push_back(cur);
  }
  return rollout;
}

AdaptStats VpAdapter::adapt(std::span<const vp::VpSample> dataset, int steps, float lr,
                            std::uint64_t seed, const SessionOptions& session) {
  if (dataset.empty()) throw std::invalid_argument("VpAdapter::adapt: empty dataset");
  const auto last = static_cast<std::int64_t>(dataset.size()) - 1;
  return run_adapt({.name = "vp",
                    .adapter = *this,
                    .llm = *llm_,
                    .train_backbone = cfg_.train_backbone,
                    .step_loss = [&](core::Rng& rng) -> std::vector<Tensor> {
                      return {loss(dataset[static_cast<std::size_t>(rng.randint(0, last))])};
                    }},
                   steps, lr, seed, session);
}

void VpAdapter::collect_params(NamedParams& out, const std::string& prefix) const {
  image_encoder_->collect_params(out, prefix + "image_encoder.");
  viewport_encoder_->collect_params(out, prefix + "viewport_encoder.");
  head_->collect_params(out, prefix + "head.");
  for (std::size_t i = 0; i < lora_.size(); ++i) {
    out.emplace_back(prefix + "lora." + std::to_string(i), lora_[i]);
  }
}

}  // namespace netllm::adapt
