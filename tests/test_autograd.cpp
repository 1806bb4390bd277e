// Gradient correctness: every differentiable op is validated against central
// finite differences. This is the safety net the whole training stack rests
// on — a silent autograd bug would invalidate every experiment downstream.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/threadpool.hpp"
#include "tensor/tensor.hpp"

namespace nt = netllm::tensor;
using netllm::core::Rng;

namespace {

// Compares analytic gradients of `loss_fn(inputs)` (scalar output) against
// central differences for every element of every input tensor.
void check_gradients(const std::vector<nt::Tensor>& inputs,
                     const std::function<nt::Tensor()>& loss_fn, float eps = 1e-3f,
                     float tol = 2e-2f) {
  // Analytic pass.
  for (const auto& in : inputs) in.zero_grad();
  auto loss = loss_fn();
  ASSERT_EQ(loss.numel(), 1);
  loss.backward();
  std::vector<std::vector<float>> analytic;
  for (const auto& in : inputs) {
    analytic.emplace_back(in.grad().begin(), in.grad().end());
  }
  // Numeric pass.
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    auto data = const_cast<nt::Tensor&>(inputs[k]).mutable_data();
    for (std::size_t i = 0; i < data.size(); ++i) {
      const float orig = data[i];
      data[i] = orig + eps;
      const float up = loss_fn().item();
      data[i] = orig - eps;
      const float down = loss_fn().item();
      data[i] = orig;
      const float numeric = (up - down) / (2.0f * eps);
      const float a = analytic[k][i];
      const float denom = std::max({std::abs(numeric), std::abs(a), 1.0f});
      EXPECT_NEAR(a / denom, numeric / denom, tol)
          << "input " << k << " element " << i << " analytic=" << a
          << " numeric=" << numeric;
    }
  }
}

nt::Tensor rand_input(nt::Shape shape, Rng& rng) {
  return nt::Tensor::randn(std::move(shape), rng, 0.7f, /*requires_grad=*/true);
}

}  // namespace

TEST(Autograd, Add) {
  Rng rng(1);
  auto a = rand_input({2, 3}, rng);
  auto b = rand_input({2, 3}, rng);
  check_gradients({a, b}, [&] { return nt::sum_all(nt::mul(nt::add(a, b), nt::add(a, b))); });
}

TEST(Autograd, MulAndScale) {
  Rng rng(3);
  auto a = rand_input({3, 2}, rng);
  auto b = rand_input({3, 2}, rng);
  check_gradients({a, b}, [&] { return nt::sum_all(nt::scale(nt::mul(a, b), 1.5f)); });
}

TEST(Autograd, AddN) {
  Rng rng(4);
  auto a = rand_input({2, 2}, rng);
  auto b = rand_input({2, 2}, rng);
  auto c = rand_input({2, 2}, rng);
  check_gradients({a, b, c}, [&] {
    auto s = nt::add_n({a, b, c, a});  // `a` contributes twice
    return nt::sum_all(nt::mul(s, s));
  });
}

TEST(Autograd, Relu) {
  Rng rng(5);
  auto a = nt::Tensor::from({-1.3f, 0.5f, 2.0f, -0.2f}, {4}, true);
  check_gradients({a}, [&] { return nt::sum_all(nt::mul(nt::relu(a), nt::relu(a))); });
}

TEST(Autograd, Gelu) {
  Rng rng(6);
  auto a = rand_input({5}, rng);
  check_gradients({a}, [&] { return nt::sum_all(nt::gelu(a)); });
}

TEST(Autograd, TanhSigmoid) {
  Rng rng(7);
  auto a = rand_input({6}, rng);
  check_gradients({a}, [&] { return nt::sum_all(nt::mul(nt::tanh_t(a), nt::sigmoid_t(a))); });
}

TEST(Autograd, Matmul) {
  Rng rng(8);
  auto a = rand_input({3, 4}, rng);
  auto b = rand_input({4, 2}, rng);
  check_gradients({a, b}, [&] {
    auto c = nt::matmul(a, b);
    return nt::sum_all(nt::mul(c, c));
  });
}

TEST(Autograd, Transpose) {
  Rng rng(9);
  auto a = rand_input({2, 3}, rng);
  auto b = rand_input({2, 3}, rng);
  check_gradients({a, b}, [&] {
    auto c = nt::matmul(nt::transpose(a), b);  // [3,2]x... no: [3,2]x[2,3]
    return nt::sum_all(nt::mul(c, c));
  });
}

TEST(Autograd, AddBias) {
  Rng rng(10);
  auto a = rand_input({3, 4}, rng);
  auto b = rand_input({4}, rng);
  check_gradients({a, b}, [&] {
    auto c = nt::add_bias(a, b);
    return nt::sum_all(nt::mul(c, c));
  });
}

TEST(Autograd, SoftmaxRows) {
  Rng rng(11);
  auto a = rand_input({3, 5}, rng);
  auto w = rand_input({3, 5}, rng);
  check_gradients({a, w}, [&] { return nt::sum_all(nt::mul(nt::softmax_rows(a), w)); });
}

TEST(Autograd, LogSoftmaxRows) {
  Rng rng(12);
  auto a = rand_input({2, 4}, rng);
  auto w = rand_input({2, 4}, rng);
  check_gradients({a, w}, [&] { return nt::sum_all(nt::mul(nt::log_softmax_rows(a), w)); });
}

TEST(Autograd, CausalMaskedSoftmax) {
  Rng rng(13);
  auto a = rand_input({4, 4}, rng);
  auto w = rand_input({4, 4}, rng);
  check_gradients({a, w}, [&] {
    return nt::sum_all(nt::mul(nt::causal_masked_softmax(a), w));
  });
}

TEST(Autograd, LayerNormRows) {
  Rng rng(14);
  auto a = rand_input({3, 6}, rng);
  auto gamma = nt::Tensor::from({1.1f, 0.9f, 1.2f, 0.8f, 1.0f, 1.3f}, {6}, true);
  auto beta = rand_input({6}, rng);
  auto w = rand_input({3, 6}, rng);
  check_gradients({a, gamma, beta}, [&] {
    return nt::sum_all(nt::mul(nt::layer_norm_rows(a, gamma, beta), w));
  });
}

TEST(Autograd, Embedding) {
  Rng rng(15);
  auto w = rand_input({5, 3}, rng);
  const int ids[] = {1, 4, 1, 0};
  auto mask = rand_input({4, 3}, rng);
  check_gradients({w}, [&] { return nt::sum_all(nt::mul(nt::embedding(w, ids), mask)); });
}

TEST(Autograd, Conv1d) {
  Rng rng(16);
  auto x = rand_input({2, 6}, rng);
  auto w = rand_input({3, 2, 3}, rng);
  auto b = rand_input({3}, rng);
  check_gradients({x, w, b}, [&] {
    auto y = nt::conv1d(x, w, b, 1);
    return nt::sum_all(nt::mul(y, y));
  });
}

TEST(Autograd, Conv1dNoPadding) {
  Rng rng(17);
  auto x = rand_input({1, 5}, rng);
  auto w = rand_input({2, 1, 2}, rng);
  auto b = rand_input({2}, rng);
  check_gradients({x, w, b}, [&] { return nt::sum_all(nt::conv1d(x, w, b, 0)); });
}

TEST(Autograd, ConcatSliceReshape) {
  Rng rng(18);
  auto a = rand_input({2, 3}, rng);
  auto b = rand_input({1, 3}, rng);
  check_gradients({a, b}, [&] {
    auto c = nt::concat_rows({a, b});           // [3,3]
    auto s = nt::slice_rows(c, 1, 2);            // [2,3]
    auto r = nt::reshape(s, {3, 2});
    return nt::sum_all(nt::mul(r, r));
  });
}

TEST(Autograd, SliceCols) {
  Rng rng(19);
  auto a = rand_input({3, 5}, rng);
  check_gradients({a}, [&] {
    auto s = nt::slice_cols(a, 1, 3);
    return nt::sum_all(nt::mul(s, s));
  });
}

TEST(Autograd, MeanOverRows) {
  Rng rng(20);
  auto a = rand_input({4, 3}, rng);
  auto w = rand_input({1, 3}, rng);
  check_gradients({a, w}, [&] { return nt::sum_all(nt::mul(nt::mean_over_rows(a), w)); });
}

TEST(Autograd, MseLoss) {
  Rng rng(21);
  auto pred = rand_input({2, 3}, rng);
  auto target = nt::Tensor::randn({2, 3}, rng, 1.0f);
  check_gradients({pred}, [&] { return nt::mse_loss(pred, target); });
}

TEST(Autograd, CrossEntropyRows) {
  Rng rng(22);
  auto logits = rand_input({4, 5}, rng);
  const int targets[] = {0, 2, 4, 1};
  check_gradients({logits}, [&] { return nt::cross_entropy_rows(logits, targets); });
}

TEST(Autograd, CrossEntropyWithMaskedRows) {
  Rng rng(23);
  auto logits = rand_input({3, 4}, rng);
  const int targets[] = {1, -1, 3};
  check_gradients({logits}, [&] { return nt::cross_entropy_rows(logits, targets); });
}

TEST(Autograd, NllWeighted) {
  Rng rng(24);
  auto logits = rand_input({3, 4}, rng);
  const int targets[] = {0, 3, 2};
  const float weights[] = {1.0f, -0.5f, 2.0f};
  check_gradients({logits}, [&] {
    return nt::nll_weighted(nt::log_softmax_rows(logits), targets, weights);
  });
}

TEST(Autograd, SharedSubexpressionAccumulates) {
  // f(x) = sum((x + x) * x) = 2 * sum(x^2); df/dx = 4x.
  auto x = nt::Tensor::from({1.0f, -2.0f}, {2}, true);
  auto y = nt::sum_all(nt::mul(nt::add(x, x), x));
  y.backward();
  EXPECT_NEAR(x.grad()[0], 4.0f, 1e-5f);
  EXPECT_NEAR(x.grad()[1], -8.0f, 1e-5f);
}

TEST(Autograd, NoGradFlowsToNonRequiresGradLeaves) {
  auto x = nt::Tensor::from({1.0f}, {1}, true);
  auto c = nt::Tensor::from({2.0f}, {1}, false);
  auto y = nt::mul(x, c);
  y.backward();
  EXPECT_NEAR(x.grad()[0], 2.0f, 1e-6f);
  EXPECT_TRUE(c.grad().empty() || c.grad()[0] == 0.0f);
}

TEST(Autograd, BackwardRequiresScalarRoot) {
  auto x = nt::Tensor::zeros({2}, true);
  EXPECT_THROW(nt::add(x, x).backward(), std::invalid_argument);
}

TEST(Autograd, TwoLayerMlpEndToEnd) {
  // Composite check: linear -> gelu -> layernorm -> linear -> CE.
  Rng rng(25);
  auto x = nt::Tensor::randn({4, 6}, rng, 1.0f);
  auto w1 = rand_input({6, 8}, rng);
  auto b1 = rand_input({8}, rng);
  auto g = nt::Tensor::full({8}, 1.0f, true);
  auto be = nt::Tensor::zeros({8}, true);
  auto w2 = rand_input({8, 3}, rng);
  auto b2 = rand_input({3}, rng);
  const int targets[] = {0, 1, 2, 1};
  check_gradients({w1, b1, g, be, w2, b2}, [&] {
    auto h = nt::gelu(nt::add_bias(nt::matmul(x, w1), b1));
    auto n = nt::layer_norm_rows(h, g, be);
    auto logits = nt::add_bias(nt::matmul(n, w2), b2);
    return nt::cross_entropy_rows(logits, targets);
  });
}

// ---- bitwise pin of the pointwise and row-softmax ops ----
//
// check_gradients above is tolerance-only; this pins every kept pointwise op
// (add, mul, scale, relu, gelu, tanh_t, sigmoid_t) and the three softmax ops
// *bitwise*: an FNV-1a digest over each op's forward values and its inputs'
// gradients, with upstream gradients from sum_all(mul(op(..), w)) for a
// random w. Inputs carry ±0, ±inf, NaN, denormals and saturating values, and
// w is ±inf wherever x <= 0 in the leading elements, so relu's backward must
// add nothing there (adding g*0 would turn inf into NaN). The 40000-element
// case is above the elementwise grain, so it is split across the pool; every
// case runs at 1 and 4 threads and must hit the same digest.
namespace {

std::uint64_t fnv1a(std::uint64_t h, std::span<const float> xs) {
  for (float x : xs) {
    // NaN payloads are not part of the contract: every NaN hashes alike.
    std::uint32_t bits = 0x7fc00000u;
    if (!std::isnan(x)) std::memcpy(&bits, &x, sizeof bits);
    for (int k = 0; k < 4; ++k) {
      h ^= (bits >> (8 * k)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

std::vector<float> pin_values(std::int64_t n, Rng& rng) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f,     -0.0f,   kInf,   -kInf,  std::nanf(""),
                            1e-45f,   -1e-45f, 3e-39f, -3e-39f, 1.17549435e-38f,
                            88.8f,    -88.8f,  100.0f, -100.0f, 1e-4f,
                            -1e-4f,   9.0f,    -9.0f};
  std::vector<float> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<float>(rng.gaussian(0.0, 2.0));
  // Specials at a stride of 7 from both ends, so a split run meets them in
  // its first and last chunk.
  for (std::size_t k = 0; k < std::size(specials); ++k) {
    if (7 * k >= v.size()) break;
    v[7 * k] = specials[k];
    v[v.size() - 1 - 7 * k] = specials[k];
  }
  return v;
}

/// Upstream weights: random, but ±inf wherever x <= 0 among the first 48.
std::vector<float> pin_weights(std::span<const float> x, Rng& rng) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  std::vector<float> w(x.size());
  for (auto& v : w) v = static_cast<float>(rng.gaussian(0.0, 1.0));
  for (std::size_t i = 0; i < std::min<std::size_t>(48, x.size()); ++i) {
    if (x[i] <= 0.0f) w[i] = (i % 2) ? -kInf : kInf;
  }
  return w;
}

/// Digest of y = op(inputs) and of every grad-requiring input's gradient
/// under loss = sum_all(mul(y, w)).
std::uint64_t pin_digest(const std::vector<nt::Tensor>& inputs,
                         const std::function<nt::Tensor()>& op, std::uint64_t seed) {
  auto y = op();
  Rng rng(seed);
  const std::vector<float> yv(y.data().begin(), y.data().end());
  auto w = nt::Tensor::from(pin_weights(inputs[0].data(), rng), y.shape());
  nt::sum_all(nt::mul(y, w)).backward();
  std::uint64_t h = fnv1a(kFnvBasis, yv);
  for (const auto& in : inputs) {
    if (in.requires_grad()) h = fnv1a(h, in.grad());
  }
  return h;
}

std::vector<std::pair<std::string, std::uint64_t>> pin_all() {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  auto leaf = [](nt::Shape shape, std::uint64_t seed, bool rg = true) {
    Rng rng(seed);
    const auto n = nt::shape_numel(shape);
    return nt::Tensor::from(pin_values(n, rng), std::move(shape), rg);
  };
  for (const std::int64_t n : {std::int64_t{67}, std::int64_t{40000}}) {
    const std::string sz = "/" + std::to_string(n);
    auto unary = [&](const std::string& name, auto fn) {
      auto x = leaf({n}, 100 + static_cast<std::uint64_t>(n));
      out.emplace_back(name + sz, pin_digest({x}, [&] { return fn(x); }, 7));
    };
    unary("relu", [](const nt::Tensor& x) { return nt::relu(x); });
    unary("gelu", [](const nt::Tensor& x) { return nt::gelu(x); });
    unary("tanh_t", [](const nt::Tensor& x) { return nt::tanh_t(x); });
    unary("sigmoid_t", [](const nt::Tensor& x) { return nt::sigmoid_t(x); });
    unary("scale", [](const nt::Tensor& x) { return nt::scale(x, -1.75f); });
    auto binary = [&](const std::string& name, auto fn, bool a_rg, bool b_rg) {
      auto a = leaf({n}, 200 + static_cast<std::uint64_t>(n), a_rg);
      auto b = leaf({n}, 300 + static_cast<std::uint64_t>(n), b_rg);
      out.emplace_back(name + sz, pin_digest({a, b}, [&] { return fn(a, b); }, 8));
    };
    auto add = [](const nt::Tensor& a, const nt::Tensor& b) { return nt::add(a, b); };
    auto mul = [](const nt::Tensor& a, const nt::Tensor& b) { return nt::mul(a, b); };
    binary("add", add, true, true);
    binary("add/const_a", add, false, true);
    binary("mul", mul, true, true);
    binary("mul/const_b", mul, true, false);
    // One leaf as both parents: both accumulations land in one grad buffer.
    auto x = leaf({n}, 400 + static_cast<std::uint64_t>(n));
    out.emplace_back("add/self" + sz, pin_digest({x}, [&] { return nt::add(x, x); }, 9));
    x.zero_grad();
    out.emplace_back("mul/self" + sz, pin_digest({x}, [&] { return nt::mul(x, x); }, 9));
  }
  // 70 rows and 45 rows are above the softmax row grain, so these split too.
  auto rows = [&](const std::string& name, nt::Shape shape, auto fn) {
    auto x = leaf(shape, 500 + static_cast<std::uint64_t>(out.size()));
    out.emplace_back(name, pin_digest({x}, [&] { return fn(x); }, 10));
  };
  rows("softmax_rows", {70, 9}, [](const nt::Tensor& x) { return nt::softmax_rows(x); });
  rows("log_softmax_rows", {70, 9},
       [](const nt::Tensor& x) { return nt::log_softmax_rows(x); });
  rows("causal_masked_softmax", {45, 45},
       [](const nt::Tensor& x) { return nt::causal_masked_softmax(x); });
  return out;
}

}  // namespace

TEST(Autograd, PointwiseAndSoftmaxDigestsPinned) {
  // Recorded from the hand-written per-op loops the scaffolds replaced.
  const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
    {"relu/67", 0x4abc94b149da08e6ull},
    {"gelu/67", 0xb9e251786ce596ccull},
    {"tanh_t/67", 0x9fff94657b845494ull},
    {"sigmoid_t/67", 0xbf2d7c750e1ea856ull},
    {"scale/67", 0x3a33bdf4aa51ceffull},
    {"add/67", 0x8000497e045fda00ull},
    {"add/const_a/67", 0x9ea565f9603b39f3ull},
    {"mul/67", 0x90527951a68941bdull},
    {"mul/const_b/67", 0x0f81d655dc329d06ull},
    {"add/self/67", 0xed93e4b92b861fe3ull},
    {"mul/self/67", 0xee066f1b4b30f2d1ull},
    {"relu/40000", 0xd2a00a07b568b002ull},
    {"gelu/40000", 0x0f6e53c57b4e18cbull},
    {"tanh_t/40000", 0x21f17196b23b1ed6ull},
    {"sigmoid_t/40000", 0x0111ce1dc83145f0ull},
    {"scale/40000", 0x926c2bb853f707e1ull},
    {"add/40000", 0x7d0bf37e1c8be46bull},
    {"add/const_a/40000", 0xab7639c2d0959a6full},
    {"mul/40000", 0x0f7e029931220fc9ull},
    {"mul/const_b/40000", 0x207723f9f6722b5bull},
    {"add/self/40000", 0x1a11c7574844d29cull},
    {"mul/self/40000", 0xafdbb3adb7b2a098ull},
    {"softmax_rows", 0x3ca07ce9202cf9fbull},
    {"log_softmax_rows", 0xa2f38e01bd2e2f57ull},
    {"causal_masked_softmax", 0x36e9fe3c17e1eb8full},
  };
  // The digests include libm's tanh/exp/log results, so they are checked on
  // x86-64 glibc only; elsewhere 1 and 4 threads must still agree.
#if defined(__x86_64__) && defined(__GLIBC__)
  constexpr bool kPinnedHost = true;
#else
  constexpr bool kPinnedHost = false;
#endif
  struct ThreadReset {
    ~ThreadReset() { netllm::core::set_global_threads(0); }
  } reset;
  netllm::core::set_global_threads(1);
  const auto serial = pin_all();
  netllm::core::set_global_threads(4);
  const auto threaded = pin_all();
  ASSERT_EQ(serial.size(), pinned.size());
  ASSERT_EQ(threaded.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << serial[i].first << ": 1 vs 4 threads";
    if (kPinnedHost) {
      EXPECT_EQ(serial[i], pinned[i]) << pinned[i].first;
    }
  }
}
