// Unit tests for tensor forward semantics, optimizers and serialization.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "core/rng.hpp"
#include "tensor/optim.hpp"
#include "tensor/serialize.hpp"
#include "tensor/tensor.hpp"

namespace nt = netllm::tensor;
using netllm::core::Rng;

TEST(Tensor, ConstructionAndShape) {
  auto t = nt::Tensor::zeros({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.rank(), 2u);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  for (float v : t.data()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FromRejectsSizeMismatch) {
  EXPECT_THROW(nt::Tensor::from({1, 2, 3}, {2, 2}), std::invalid_argument);
}

TEST(Tensor, ItemRequiresScalar) {
  EXPECT_THROW(nt::Tensor::zeros({2}).item(), std::invalid_argument);
  EXPECT_EQ(nt::Tensor::scalar(5.0f).item(), 5.0f);
}

TEST(Tensor, ElementwiseForward) {
  auto a = nt::Tensor::from({1, 2, 3}, {3});
  auto b = nt::Tensor::from({4, 5, 6}, {3});
  auto s = nt::add(a, b);
  auto m = nt::mul(a, b);
  EXPECT_EQ(s.at(1), 7.0f);
  EXPECT_EQ(m.at(0), 4.0f);
  EXPECT_EQ(nt::scale(a, 2.0f).at(2), 6.0f);
}

TEST(Tensor, ShapeMismatchThrows) {
  auto a = nt::Tensor::zeros({2});
  auto b = nt::Tensor::zeros({3});
  EXPECT_THROW(nt::add(a, b), std::invalid_argument);
  EXPECT_THROW(nt::mul(a, b), std::invalid_argument);
}

TEST(Tensor, MatmulForward) {
  auto a = nt::Tensor::from({1, 2, 3, 4, 5, 6}, {2, 3});
  auto b = nt::Tensor::from({7, 8, 9, 10, 11, 12}, {3, 2});
  auto c = nt::matmul(a, b);
  ASSERT_EQ(c.shape(), (nt::Shape{2, 2}));
  EXPECT_EQ(c.at(0), 58.0f);
  EXPECT_EQ(c.at(1), 64.0f);
  EXPECT_EQ(c.at(2), 139.0f);
  EXPECT_EQ(c.at(3), 154.0f);
}

TEST(Tensor, TransposeForward) {
  auto a = nt::Tensor::from({1, 2, 3, 4, 5, 6}, {2, 3});
  auto t = nt::transpose(a);
  ASSERT_EQ(t.shape(), (nt::Shape{3, 2}));
  EXPECT_EQ(t.at(0), 1.0f);
  EXPECT_EQ(t.at(1), 4.0f);
  EXPECT_EQ(t.at(4), 3.0f);
}

TEST(Tensor, AddBiasBroadcastsOverRows) {
  auto a = nt::Tensor::from({1, 2, 3, 4}, {2, 2});
  auto b = nt::Tensor::from({10, 20}, {2});
  auto c = nt::add_bias(a, b);
  EXPECT_EQ(c.at(0), 11.0f);
  EXPECT_EQ(c.at(3), 24.0f);
}

TEST(Tensor, SoftmaxRowsSumToOne) {
  auto a = nt::Tensor::from({1, 2, 3, -1, 0, 1}, {2, 3});
  auto s = nt::softmax_rows(a);
  for (int i = 0; i < 2; ++i) {
    float sum = 0.0f;
    for (int j = 0; j < 3; ++j) sum += s.at(i * 3 + j);
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
  EXPECT_GT(s.at(2), s.at(1));
}

TEST(Tensor, SoftmaxNumericallyStableForLargeLogits) {
  auto a = nt::Tensor::from({1000, 1001, 1002}, {1, 3});
  auto s = nt::softmax_rows(a);
  float sum = 0.0f;
  for (int j = 0; j < 3; ++j) {
    EXPECT_FALSE(std::isnan(s.at(j)));
    sum += s.at(j);
  }
  EXPECT_NEAR(sum, 1.0f, 1e-6f);
}

TEST(Tensor, CausalMaskedSoftmaxZeroesFuture) {
  auto a = nt::Tensor::from({0, 9, 9, 1, 1, 9, 1, 1, 1}, {3, 3});
  auto s = nt::causal_masked_softmax(a);
  EXPECT_NEAR(s.at(0), 1.0f, 1e-6f);
  EXPECT_EQ(s.at(1), 0.0f);
  EXPECT_EQ(s.at(2), 0.0f);
  EXPECT_NEAR(s.at(3) + s.at(4), 1.0f, 1e-6f);
  EXPECT_EQ(s.at(5), 0.0f);
  EXPECT_NEAR(s.at(6) + s.at(7) + s.at(8), 1.0f, 1e-6f);
}

TEST(Tensor, LayerNormRowsNormalises) {
  auto a = nt::Tensor::from({1, 2, 3, 4, 10, 20, 30, 40}, {2, 4});
  auto gamma = nt::Tensor::full({4}, 1.0f);
  auto beta = nt::Tensor::zeros({4});
  auto y = nt::layer_norm_rows(a, gamma, beta);
  for (int i = 0; i < 2; ++i) {
    float mu = 0.0f, var = 0.0f;
    for (int j = 0; j < 4; ++j) mu += y.at(i * 4 + j);
    mu /= 4.0f;
    for (int j = 0; j < 4; ++j) var += (y.at(i * 4 + j) - mu) * (y.at(i * 4 + j) - mu);
    EXPECT_NEAR(mu, 0.0f, 1e-5f);
    EXPECT_NEAR(var / 4.0f, 1.0f, 1e-3f);
  }
}

TEST(Tensor, EmbeddingGathersRows) {
  auto w = nt::Tensor::from({1, 2, 3, 4, 5, 6}, {3, 2});
  const int ids[] = {2, 0, 2};
  auto e = nt::embedding(w, ids);
  ASSERT_EQ(e.shape(), (nt::Shape{3, 2}));
  EXPECT_EQ(e.at(0), 5.0f);
  EXPECT_EQ(e.at(2), 1.0f);
  EXPECT_EQ(e.at(5), 6.0f);
}

TEST(Tensor, EmbeddingRejectsOutOfRangeIds) {
  auto w = nt::Tensor::zeros({3, 2});
  const int bad[] = {3};
  EXPECT_THROW(nt::embedding(w, bad), std::invalid_argument);
}

TEST(Tensor, Conv1dIdentityKernel) {
  auto x = nt::Tensor::from({1, 2, 3, 4}, {1, 4});
  auto w = nt::Tensor::from({0, 1, 0}, {1, 1, 3});  // identity with pad=1
  auto b = nt::Tensor::zeros({1});
  auto y = nt::conv1d(x, w, b, 1);
  ASSERT_EQ(y.shape(), (nt::Shape{1, 4}));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(y.at(i), x.at(i));
}

TEST(Tensor, Conv1dValidSum) {
  auto x = nt::Tensor::from({1, 2, 3, 4}, {1, 4});
  auto w = nt::Tensor::from({1, 1}, {1, 1, 2});
  auto b = nt::Tensor::from({0.5f}, {1});
  auto y = nt::conv1d(x, w, b, 0);
  ASSERT_EQ(y.shape(), (nt::Shape{1, 3}));
  EXPECT_EQ(y.at(0), 3.5f);
  EXPECT_EQ(y.at(2), 7.5f);
}

TEST(Tensor, ConcatAndSliceRows) {
  auto a = nt::Tensor::from({1, 2}, {1, 2});
  auto b = nt::Tensor::from({3, 4, 5, 6}, {2, 2});
  auto c = nt::concat_rows({a, b});
  ASSERT_EQ(c.shape(), (nt::Shape{3, 2}));
  EXPECT_EQ(c.at(4), 5.0f);
  auto s = nt::slice_rows(c, 1, 2);
  ASSERT_EQ(s.shape(), (nt::Shape{2, 2}));
  EXPECT_EQ(s.at(0), 3.0f);
}

TEST(Tensor, SliceCols) {
  auto a = nt::Tensor::from({1, 2, 3, 4, 5, 6}, {2, 3});
  auto s = nt::slice_cols(a, 1, 2);
  ASSERT_EQ(s.shape(), (nt::Shape{2, 2}));
  EXPECT_EQ(s.at(0), 2.0f);
  EXPECT_EQ(s.at(3), 6.0f);
}

TEST(Tensor, MeanOverRows) {
  auto a = nt::Tensor::from({1, 2, 3, 4}, {2, 2});
  auto m = nt::mean_over_rows(a);
  ASSERT_EQ(m.shape(), (nt::Shape{1, 2}));
  EXPECT_EQ(m.at(0), 2.0f);
  EXPECT_EQ(m.at(1), 3.0f);
}

TEST(Tensor, Reductions) {
  auto a = nt::Tensor::from({1, 2, 3, 4}, {2, 2});
  EXPECT_EQ(nt::sum_all(a).item(), 10.0f);
  EXPECT_EQ(nt::mean_all(a).item(), 2.5f);
}

TEST(Tensor, LossValues) {
  auto pred = nt::Tensor::from({1, 2}, {2});
  auto target = nt::Tensor::from({0, 4}, {2});
  EXPECT_NEAR(nt::mse_loss(pred, target).item(), (1.0f + 4.0f) / 2.0f, 1e-6f);

  auto logits = nt::Tensor::from({10, 0, 0, 0, 10, 0}, {2, 3});
  const int targets[] = {0, 1};
  EXPECT_NEAR(nt::cross_entropy_rows(logits, targets).item(), 0.0f, 1e-3f);
  const int wrong[] = {1, 0};
  EXPECT_GT(nt::cross_entropy_rows(logits, wrong).item(), 5.0f);
}

TEST(Tensor, CrossEntropyIgnoresMaskedRows) {
  auto logits = nt::Tensor::from({10, 0, 0, 10}, {2, 2});
  const int targets[] = {0, -1};
  EXPECT_NEAR(nt::cross_entropy_rows(logits, targets).item(), 0.0f, 1e-3f);
}

namespace {

// Runs fn and expects a std::invalid_argument whose message contains `what`.
template <typename Fn>
void expect_invalid(Fn fn, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << "no exception, expected \"" << what << "\"";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos) << e.what();
  }
}

}  // namespace

TEST(Tensor, SoftmaxRejectsZeroWidthRows) {
  const auto empty_rows = nt::Tensor::zeros({3, 0}, true);
  expect_invalid([&] { nt::softmax_rows(empty_rows); }, "softmax_rows: zero-width rows");
  expect_invalid([&] { nt::log_softmax_rows(empty_rows); }, "log_softmax_rows: zero-width rows");
  // No rows at all is not a zero-width row: an empty result, no error.
  EXPECT_EQ(nt::softmax_rows(nt::Tensor::zeros({0, 4})).shape(), (nt::Shape{0, 4}));
  EXPECT_EQ(nt::log_softmax_rows(nt::Tensor::zeros({0, 0})).numel(), 0);
  EXPECT_EQ(nt::causal_masked_softmax(nt::Tensor::zeros({0, 0})).numel(), 0);
}

TEST(Tensor, MseLossRejectsEmptyInput) {
  const auto empty = nt::Tensor::zeros({0}, true);
  expect_invalid([&] { nt::mse_loss(empty, nt::Tensor::zeros({0})); }, "mse_loss: empty tensor");
}

TEST(Tensor, NllWeightedRejectsEmptyBatch) {
  const auto log_probs = nt::Tensor::zeros({0, 3}, true);
  expect_invalid([&] { nt::nll_weighted(log_probs, {}, {}); }, "nll_weighted: empty batch");
}

TEST(Tensor, MeanAllRejectsEmptyInput) {
  expect_invalid([] { nt::mean_all(nt::Tensor::zeros({2, 0}, true)); }, "mean_all: empty tensor");
}

TEST(Tensor, DetachBreaksHistory) {
  auto a = nt::Tensor::from({2.0f}, {1}, true);
  auto b = nt::scale(a, 3.0f).detach();
  EXPECT_FALSE(b.requires_grad());
  EXPECT_EQ(b.item(), 6.0f);
}

TEST(Optim, SgdDescendsQuadratic) {
  auto x = nt::Tensor::from({5.0f}, {1}, true);
  nt::Sgd opt({x}, 0.1f);
  for (int i = 0; i < 100; ++i) {
    opt.zero_grad();
    auto loss = nt::mul(x, x);
    loss.backward();
    opt.step();
  }
  EXPECT_NEAR(x.item(), 0.0f, 1e-3f);
}

TEST(Optim, AdamFitsLinearRegression) {
  Rng rng(5);
  auto w = nt::Tensor::from({0.0f, 0.0f}, {2, 1}, true);
  auto b = nt::Tensor::zeros({1}, true);
  // Data: y = 3 x0 - 2 x1 + 1
  std::vector<float> xs, ys;
  for (int i = 0; i < 64; ++i) {
    const float x0 = static_cast<float>(rng.uniform(-1, 1));
    const float x1 = static_cast<float>(rng.uniform(-1, 1));
    xs.push_back(x0);
    xs.push_back(x1);
    ys.push_back(3.0f * x0 - 2.0f * x1 + 1.0f);
  }
  auto x = nt::Tensor::from(xs, {64, 2});
  auto y = nt::Tensor::from(ys, {64, 1});
  nt::Adam opt({w, b}, 0.05f);
  for (int step = 0; step < 400; ++step) {
    opt.zero_grad();
    auto pred = nt::add_bias(nt::matmul(x, w), b);
    auto loss = nt::mse_loss(pred, y);
    loss.backward();
    opt.step();
  }
  EXPECT_NEAR(w.at(0), 3.0f, 0.05f);
  EXPECT_NEAR(w.at(1), -2.0f, 0.05f);
  EXPECT_NEAR(b.at(0), 1.0f, 0.05f);
}

TEST(Optim, AdamBiasCorrectionIsDoublePrecision) {
  // Regression: the corrections were computed with float pow, which drifts
  // for long runs. Pin the double closed form and its shape.
  for (const std::int64_t t : {std::int64_t{1}, std::int64_t{10}, std::int64_t{100},
                               std::int64_t{10000}, std::int64_t{250000}}) {
    EXPECT_DOUBLE_EQ(nt::adam_bias_correction(0.9, t), 1.0 - std::pow(0.9, double(t)));
    EXPECT_DOUBLE_EQ(nt::adam_bias_correction(0.999, t), 1.0 - std::pow(0.999, double(t)));
  }
  // Strictly positive from the first step and monotone toward 1.
  double prev = 0.0;
  for (std::int64_t t = 1; t <= 2000; ++t) {
    const double bc = nt::adam_bias_correction(0.999, t);
    EXPECT_GT(bc, 0.0);
    EXPECT_GT(bc, prev);
    EXPECT_LE(bc, 1.0);
    prev = bc;
  }
}

TEST(Optim, AdamLongRunMatchesDoubleCorrectedReference) {
  // 20k steps on one parameter vs a mirror implementation that keeps float
  // m/v state but double bias corrections — long runs must not drift.
  auto p = nt::Tensor::from({1.0f}, {1}, true);
  nt::Adam opt({p}, 1e-3f);
  p.zero_grad();  // size the grad buffer
  float m = 0.0f, v = 0.0f;
  double ref = 1.0;
  for (std::int64_t t = 1; t <= 20000; ++t) {
    const float g = std::sin(0.01f * static_cast<float>(t));
    p.node()->grad[0] = g;
    opt.step();
    m = 0.9f * m + 0.1f * g;
    v = 0.999f * v + 0.001f * g * g;
    const double bc1 = 1.0 - std::pow(0.9, double(t));
    const double bc2 = 1.0 - std::pow(0.999, double(t));
    ref -= 1e-3 * (double(m) / bc1) / (std::sqrt(double(v) / bc2) + 1e-8);
  }
  EXPECT_TRUE(std::isfinite(p.at(0)));
  EXPECT_NEAR(p.at(0), static_cast<float>(ref), 2e-3);
}

TEST(Optim, ClipGradNormScalesDown) {
  auto x = nt::Tensor::from({3.0f, 4.0f}, {2}, true);
  nt::Sgd opt({x}, 0.0f);
  auto loss = nt::sum_all(nt::mul(x, x));
  loss.backward();  // grad = (6, 8), norm = 10
  const double pre = opt.clip_grad_norm(1.0);
  EXPECT_NEAR(pre, 10.0, 1e-5);
  double post_sq = 0.0;
  for (float g : x.grad()) post_sq += g * g;
  EXPECT_NEAR(std::sqrt(post_sq), 1.0, 1e-5);
}

TEST(Optim, ParamCountAndStateBytes) {
  auto a = nt::Tensor::zeros({4, 4}, true);
  auto b = nt::Tensor::zeros({4}, true);
  nt::Adam adam({a, b}, 1e-3f);
  EXPECT_EQ(adam.param_count(), 20);
  EXPECT_EQ(adam.state_bytes(), 2 * 20 * 4);
}

TEST(Serialize, RoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "netllm_params_test.bin";
  Rng rng(1);
  auto w1 = nt::Tensor::randn({3, 4}, rng, 1.0f, true);
  auto w2 = nt::Tensor::randn({5}, rng, 1.0f, true);
  nt::save_params(path.string(), {{"w1", w1}, {"w2", w2}});

  auto r1 = nt::Tensor::zeros({3, 4}, true);
  auto r2 = nt::Tensor::zeros({5}, true);
  nt::load_params(path.string(), {{"w1", r1}, {"w2", r2}});
  for (int i = 0; i < 12; ++i) EXPECT_EQ(r1.at(i), w1.at(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(r2.at(i), w2.at(i));
  std::filesystem::remove(path);
}

TEST(Serialize, ShapeMismatchThrows) {
  const auto path = std::filesystem::temp_directory_path() / "netllm_params_mismatch.bin";
  auto w = nt::Tensor::zeros({2, 2}, true);
  nt::save_params(path.string(), {{"w", w}});
  auto bad = nt::Tensor::zeros({3}, true);
  EXPECT_THROW(nt::load_params(path.string(), {{"w", bad}}), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Serialize, MissingParamThrows) {
  const auto path = std::filesystem::temp_directory_path() / "netllm_params_missing.bin";
  auto w = nt::Tensor::zeros({2}, true);
  nt::save_params(path.string(), {{"w", w}});
  auto other = nt::Tensor::zeros({2}, true);
  EXPECT_THROW(nt::load_params(path.string(), {{"nope", other}}), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Memory, InstrumentationTracksAllocations) {
  const auto before = nt::live_float_count();
  {
    auto t = nt::Tensor::zeros({100});
    EXPECT_GE(nt::live_float_count(), before + 100);
  }
  EXPECT_EQ(nt::live_float_count(), before);
  nt::reset_peak_float_count();
  {
    auto t = nt::Tensor::zeros({1000});
    EXPECT_GE(nt::peak_float_count(), before + 1000);
  }
}

// ---- Optimizer state round trips (durable-session satellite) ----

namespace {

/// One noisy quadratic-descent step shared by the resume-equivalence tests.
void noisy_quadratic_step(nt::Adam& opt, nt::Tensor& x, int t) {
  opt.zero_grad();
  auto loss = nt::mul(x, x);
  loss.backward();
  x.node()->grad[0] += 0.1f * std::sin(0.37f * static_cast<float>(t));
  opt.step();
}

}  // namespace

TEST(Optim, SgdStateRoundTrips) {
  auto x = nt::Tensor::from({5.0f}, {1}, true);
  nt::Sgd opt({x}, 0.1f);
  std::string blob;
  opt.save_state(blob);
  EXPECT_FALSE(blob.empty());  // tagged header even though SGD is stateless
  nt::Sgd other({x}, 0.1f);
  EXPECT_NO_THROW(other.load_state(blob));
}

TEST(Optim, SgdRejectsAdamState) {
  auto x = nt::Tensor::from({5.0f}, {1}, true);
  nt::Adam adam({x}, 0.1f);
  std::string blob;
  adam.save_state(blob);
  nt::Sgd sgd({x}, 0.1f);
  EXPECT_THROW(sgd.load_state(blob), std::runtime_error);
}

TEST(Optim, AdamStateRoundTripResumesBitwise) {
  // adapt(2N) ≡ adapt(N) -> save -> restore -> adapt(N), at the optimizer
  // level: moments and step count must survive the round trip exactly.
  auto a = nt::Tensor::from({4.0f}, {1}, true);
  nt::Adam ref({a}, 0.05f);
  for (int t = 0; t < 40; ++t) noisy_quadratic_step(ref, a, t);

  auto b = nt::Tensor::from({4.0f}, {1}, true);
  nt::Adam first({b}, 0.05f);
  for (int t = 0; t < 20; ++t) noisy_quadratic_step(first, b, t);
  std::string blob;
  first.save_state(blob);
  const float mid = b.at(0);

  auto c = nt::Tensor::from({mid}, {1}, true);
  nt::Adam second({c}, 0.05f);
  second.load_state(blob);
  EXPECT_EQ(second.step_count(), 20);
  for (int t = 20; t < 40; ++t) noisy_quadratic_step(second, c, t);

  // Bitwise, not approximate: a fresh-moment resume would only be close.
  EXPECT_EQ(a.at(0), c.at(0));
}

TEST(Optim, AdamLoadStateNamesOffendingParam) {
  auto a = nt::Tensor::zeros({2}, true);
  auto b = nt::Tensor::zeros({3}, true);
  nt::Adam src({a, b}, 1e-3f);
  std::string blob;
  src.save_state(blob);

  auto a2 = nt::Tensor::zeros({2}, true);
  auto b2 = nt::Tensor::zeros({4}, true);  // wrong size
  nt::Adam dst({a2, b2}, 1e-3f);
  const std::string names[] = {"enc.w", "head.w"};
  try {
    dst.load_state(blob, names);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("head.w"), std::string::npos) << e.what();
  }
  // Failed loads must not half-overwrite: the destination still steps from
  // fresh state without throwing.
  EXPECT_EQ(dst.step_count(), 0);
}

TEST(Optim, AdamLoadStateRejectsParamCountMismatch) {
  auto a = nt::Tensor::zeros({2}, true);
  nt::Adam src({a}, 1e-3f);
  std::string blob;
  src.save_state(blob);
  auto b = nt::Tensor::zeros({2}, true);
  auto c = nt::Tensor::zeros({2}, true);
  nt::Adam dst({b, c}, 1e-3f);
  EXPECT_THROW(dst.load_state(blob), std::runtime_error);
}
