#include "nn/transformer.hpp"

#include <cmath>
#include <stdexcept>

#include "core/metrics.hpp"
#include "core/threadpool.hpp"

namespace netllm::nn {

namespace {
using namespace netllm::tensor;

/// Concatenate [T, d_i] tensors along columns via transpose + concat_rows.
Tensor concat_cols(const std::vector<Tensor>& xs) {
  std::vector<Tensor> transposed;
  transposed.reserve(xs.size());
  for (const auto& x : xs) transposed.push_back(transpose(x));
  return transpose(concat_rows(transposed));
}

/// A projection runs through its LoRA wrapper once one is enabled.
Tensor project(const std::shared_ptr<Linear>& base, const std::shared_ptr<LoRALinear>& lora,
               const Tensor& x) {
  return lora ? lora->forward(x) : base->forward(x);
}

/// Validated before the division: n_heads == 0 must throw, not raise SIGFPE.
std::int64_t head_width(std::int64_t d_model, std::int64_t n_heads) {
  if (d_model <= 0 || n_heads <= 0 || d_model % n_heads != 0) {
    throw std::invalid_argument(
        "MultiHeadAttention: d_model must be a positive multiple of n_heads");
  }
  return d_model / n_heads;
}

}  // namespace

KvCache::KvCache(const KvCache& other) : d_model(other.d_model), len(other.len) {
  if (other.k_buf_.defined()) {
    // Deep copy: the buffers are mutable in place, so sharing node handles
    // between two caches would alias their futures.
    k_buf_ = Tensor::from(other.k(), {len, other.k_buf_.dim(1)});
    v_buf_ = Tensor::from(other.v(), {len, other.v_buf_.dim(1)});
  }
}

KvCache& KvCache::operator=(const KvCache& other) {
  if (this != &other) *this = KvCache(other);
  return *this;
}

void KvCache::clear() {
  len = 0;
  // Reset the width too: a cleared cache must be reusable with a
  // different-width model (the sticky d_model used to make the next append
  // throw "row width does not match d_model"). The buffers keep their
  // capacity; a different-width append below swaps them out.
  d_model = 0;
  if (k_buf_.defined()) {
    buffer_clear_rows(k_buf_);
    buffer_clear_rows(v_buf_);
  }
}

void KvCache::reserve(std::int64_t rows) {
  if (d_model <= 0) {
    throw std::invalid_argument("KvCache::reserve: d_model not set yet");
  }
  if (k_buf_.defined() && k_buf_.dim(1) == d_model && buffer_capacity_rows(k_buf_) >= rows) {
    return;
  }
  // Every cache is reserved before its prefill, so fresh buffers never have
  // to carry rows over.
  if (len != 0) throw std::invalid_argument("KvCache::reserve: cannot grow a non-empty cache");
  k_buf_ = tensor::make_row_buffer(d_model, rows);
  v_buf_ = tensor::make_row_buffer(d_model, rows);
}

void KvCache::append(std::span<const float> k_row, std::span<const float> v_row) {
  if (d_model == 0) d_model = static_cast<std::int64_t>(k_row.size());
  if (static_cast<std::int64_t>(k_row.size()) != d_model ||
      static_cast<std::int64_t>(v_row.size()) != d_model) {
    throw std::invalid_argument("KvCache::append: row width does not match d_model");
  }
  reserve(0);  // buffers at this width; an existing reservation is kept
  buffer_append_row(k_buf_, k_row);
  buffer_append_row(v_buf_, v_row);
  ++len;
  // KV-cache growth feeds capacity planning: rows resident per decode and
  // the bytes they pin (K and V) are the §10/§13 memory budget inputs.
  static core::metrics::Counter& rows = core::metrics::counter("kv.appended_rows");
  static core::metrics::Counter& bytes = core::metrics::counter("kv.appended_bytes");
  rows.add();
  bytes.add(static_cast<std::int64_t>(2 * sizeof(float)) * d_model);
}

namespace {
const std::vector<float>& empty_floats() {
  static const std::vector<float> kEmpty;
  return kEmpty;
}
}  // namespace

const std::vector<float>& KvCache::k() const {
  return k_buf_.defined() ? k_buf_.node()->value : empty_floats();
}

const std::vector<float>& KvCache::v() const {
  return v_buf_.defined() ? v_buf_.node()->value : empty_floats();
}

Tensor KvCache::k_view() const { return k_buf_; }

Tensor KvCache::v_view() const { return v_buf_; }

std::int64_t KvCache::capacity_rows() const {
  return k_buf_.defined() ? tensor::buffer_capacity_rows(k_buf_) : 0;
}

MultiHeadAttention::MultiHeadAttention(std::int64_t d_model, std::int64_t n_heads, bool causal,
                                       core::Rng& rng)
    : d_model_(d_model), n_heads_(n_heads), d_head_(head_width(d_model, n_heads)),
      causal_(causal) {
  wq_ = std::make_shared<Linear>(d_model, d_model, rng);
  wk_ = std::make_shared<Linear>(d_model, d_model, rng);
  wv_ = std::make_shared<Linear>(d_model, d_model, rng);
  wo_ = std::make_shared<Linear>(d_model, d_model, rng);
}

Tensor MultiHeadAttention::attend(const Tensor& q, const Tensor& k, const Tensor& v,
                                  bool causal) const {
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(d_head_));

  // Heads are independent in the forward pass (they only read q/k/v and
  // build disjoint graph nodes), so they evaluate concurrently on the pool.
  // Tensor ops inside a head run inline (no nested parallelism), and the
  // result slot per head is fixed, so output order — and therefore the
  // autograd graph — is identical to the serial loop for any thread count.
  std::vector<Tensor> heads(static_cast<std::size_t>(n_heads_));
  core::parallel_for(n_heads_, 1, [&](std::int64_t h0, std::int64_t h1) {
    for (std::int64_t h = h0; h < h1; ++h) {
      const auto qh = slice_cols(q, h * d_head_, d_head_);
      const auto kh = slice_cols(k, h * d_head_, d_head_);
      const auto vh = slice_cols(v, h * d_head_, d_head_);
      auto scores = scale(matmul(qh, transpose(kh)), inv_sqrt);
      auto attn = causal ? causal_masked_softmax(scores) : softmax_rows(scores);
      heads[static_cast<std::size_t>(h)] = matmul(attn, vh);
    }
  });
  return project(wo_, lo_, concat_cols(heads));
}

Tensor MultiHeadAttention::forward(const Tensor& x, KvCache* cache) const {
  if (x.rank() != 2 || x.dim(1) != d_model_) {
    throw std::invalid_argument("MultiHeadAttention: expected [T, d_model] input");
  }
  const auto t = x.dim(0);
  if (cache && t > 1 && cache->len != 0) {
    // A prefill's causal mask covers only its own rows; rows after cached
    // ones would need an offset mask. Refuse rather than return wrong rows.
    throw std::invalid_argument(
        "MultiHeadAttention::forward: a multi-row forward needs an empty cache");
  }
  const auto q = project(wq_, lq_, x);
  const auto k = project(wk_, lk_, x);
  const auto v = project(wv_, lv_, x);
  // Only a multi-row pass needs the mask. A single row sees every cached
  // position, and over one column softmax_rows and causal_masked_softmax
  // share the same per-row kernel.
  const bool mask = causal_ && t > 1;
  if (!cache) return attend(q, k, v, mask);
  // A [1, d] x [d, d] matmul row accumulates in the same order as the
  // matching row of the full [T, d] x [d, d] product, so the appended rows
  // are bitwise the full forward's. Attention then reads zero-copy views of
  // the cache buffers: caching is inference-only, so the graph never reaches
  // back into earlier steps, and no append happens mid-attend. A decode
  // row's full-row softmax over the cache equals the causal-masked last row
  // of the full forward, because masked zero weights contribute no terms to
  // the attn·V accumulation (the matmul kernel skips exact zeros).
  const std::size_t d = static_cast<std::size_t>(d_model_);
  for (std::int64_t i = 0; i < t; ++i) {
    cache->append(k.data().subspan(static_cast<std::size_t>(i) * d, d),
                  v.data().subspan(static_cast<std::size_t>(i) * d, d));
  }
  return attend(q, cache->k_view(), cache->v_view(), mask);
}

void MultiHeadAttention::collect_params(NamedParams& out, const std::string& prefix) const {
  // When LoRA wraps a projection, the LoRALinear reports both the (frozen)
  // base weights and its low-rank matrices; otherwise report the base alone.
  auto emit = [&](const char* name, const std::shared_ptr<Linear>& base,
                  const std::shared_ptr<LoRALinear>& lora) {
    if (lora) {
      lora->collect_params(out, prefix + name + std::string("."));
    } else {
      base->collect_params(out, prefix + name + std::string("."));
    }
  };
  emit("wq", wq_, lq_);
  emit("wk", wk_, lk_);
  emit("wv", wv_, lv_);
  emit("wo", wo_, lo_);
}

std::vector<Tensor> MultiHeadAttention::enable_lora(std::int64_t rank, float alpha,
                                                    core::Rng& rng) {
  lq_ = std::make_shared<LoRALinear>(wq_, rank, alpha, rng);
  lk_ = std::make_shared<LoRALinear>(wk_, rank, alpha, rng);
  lv_ = std::make_shared<LoRALinear>(wv_, rank, alpha, rng);
  lo_ = std::make_shared<LoRALinear>(wo_, rank, alpha, rng);
  std::vector<Tensor> lora;
  for (const auto& l : {lq_, lk_, lv_, lo_}) {
    for (auto& t : l->lora_parameters()) lora.push_back(t);
  }
  return lora;
}

TransformerBlock::TransformerBlock(std::int64_t d_model, std::int64_t n_heads, std::int64_t d_ff,
                                   bool causal, core::Rng& rng) {
  ln1_ = std::make_shared<LayerNorm>(d_model);
  ln2_ = std::make_shared<LayerNorm>(d_model);
  attn_ = std::make_shared<MultiHeadAttention>(d_model, n_heads, causal, rng);
  fc1_ = std::make_shared<Linear>(d_model, d_ff, rng);
  fc2_ = std::make_shared<Linear>(d_ff, d_model, rng);
}

Tensor TransformerBlock::ff(const Tensor& x) const {
  return project(fc2_, lfc2_, gelu(project(fc1_, lfc1_, x)));
}

Tensor TransformerBlock::forward(const Tensor& x, KvCache* cache) const {
  auto h = add(x, attn_->forward(ln1_->forward(x), cache));
  return add(h, ff(ln2_->forward(h)));
}

void TransformerBlock::collect_params(NamedParams& out, const std::string& prefix) const {
  ln1_->collect_params(out, prefix + "ln1.");
  attn_->collect_params(out, prefix + "attn.");
  ln2_->collect_params(out, prefix + "ln2.");
  if (lfc1_) {
    lfc1_->collect_params(out, prefix + "fc1.");
  } else {
    fc1_->collect_params(out, prefix + "fc1.");
  }
  if (lfc2_) {
    lfc2_->collect_params(out, prefix + "fc2.");
  } else {
    fc2_->collect_params(out, prefix + "fc2.");
  }
}

std::vector<Tensor> TransformerBlock::enable_lora(std::int64_t rank, float alpha,
                                                  core::Rng& rng) {
  auto lora = attn_->enable_lora(rank, alpha, rng);
  lfc1_ = std::make_shared<LoRALinear>(fc1_, rank, alpha, rng);
  lfc2_ = std::make_shared<LoRALinear>(fc2_, rank, alpha, rng);
  for (const auto& l : {lfc1_, lfc2_}) {
    for (auto& t : l->lora_parameters()) lora.push_back(t);
  }
  return lora;
}

}  // namespace netllm::nn
