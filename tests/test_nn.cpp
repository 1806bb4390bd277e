// Tests for NN modules: shape contracts, parameter registry / freezing,
// LoRA semantics, and small end-to-end learning checks per architecture.
#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.hpp"
#include "nn/graph.hpp"
#include "nn/layers.hpp"
#include "nn/lstm.hpp"
#include "nn/transformer.hpp"
#include "nn/vit.hpp"
#include "tensor/optim.hpp"

namespace nt = netllm::tensor;
namespace nn = netllm::nn;
using netllm::core::Rng;

TEST(Linear, ForwardShapeAndBias) {
  Rng rng(1);
  nn::Linear fc(3, 5, rng);
  auto y = fc.forward(nt::Tensor::zeros({2, 3}));
  ASSERT_EQ(y.shape(), (nt::Shape{2, 5}));
  for (float v : y.data()) EXPECT_EQ(v, 0.0f);  // zero input + zero bias
}

TEST(Linear, ParameterRegistry) {
  Rng rng(2);
  nn::Linear fc(4, 2, rng);
  auto named = fc.named_parameters("fc.");
  ASSERT_EQ(named.size(), 2u);
  EXPECT_EQ(named[0].first, "fc.weight");
  EXPECT_EQ(named[1].first, "fc.bias");
  EXPECT_EQ(fc.param_count(), 4 * 2 + 2);
  EXPECT_EQ(fc.trainable_param_count(), fc.param_count());
  fc.freeze();
  EXPECT_EQ(fc.trainable_param_count(), 0);
  fc.unfreeze();
  EXPECT_EQ(fc.trainable_param_count(), fc.param_count());
}

TEST(LoRALinear, StartsAtBaseFunction) {
  Rng rng(3);
  auto base = std::make_shared<nn::Linear>(4, 4, rng);
  nn::LoRALinear lora(base, 2, 4.0f, rng);
  auto x = nt::Tensor::randn({3, 4}, rng, 1.0f);
  auto y_base = base->forward(x);
  auto y_lora = lora.forward(x);
  for (int i = 0; i < 12; ++i) EXPECT_NEAR(y_lora.at(i), y_base.at(i), 1e-6f);
}

TEST(LoRALinear, OnlyLowRankMatricesTrainWhenBaseFrozen) {
  Rng rng(4);
  auto base = std::make_shared<nn::Linear>(4, 4, rng);
  base->freeze();
  nn::LoRALinear lora(base, 2, 4.0f, rng);
  EXPECT_EQ(lora.trainable_param_count(), 4 * 2 + 2 * 4);
  EXPECT_EQ(lora.param_count(), 4 * 4 + 4 + 4 * 2 + 2 * 4);

  // Training the LoRA matrices can still change the function.
  auto x = nt::Tensor::randn({8, 4}, rng, 1.0f);
  auto target = nt::Tensor::randn({8, 4}, rng, 1.0f);
  nt::Adam opt(lora.trainable_parameters(), 0.05f);
  float first_loss = 0.0f, last_loss = 0.0f;
  for (int step = 0; step < 200; ++step) {
    opt.zero_grad();
    auto loss = nt::mse_loss(lora.forward(x), target);
    if (step == 0) first_loss = loss.item();
    last_loss = loss.item();
    loss.backward();
    opt.step();
  }
  EXPECT_LT(last_loss, first_loss * 0.5f);
  // Base weight unchanged.
  auto named = base->named_parameters();
  EXPECT_TRUE(named[0].second.grad().empty() ||
              std::all_of(named[0].second.grad().begin(), named[0].second.grad().end(),
                          [](float g) { return g == 0.0f; }));
}

TEST(Mlp, LearnsXor) {
  Rng rng(5);
  nn::Mlp mlp({2, 8, 1}, rng, nn::Activation::kTanh);
  auto x = nt::Tensor::from({0, 0, 0, 1, 1, 0, 1, 1}, {4, 2});
  auto y = nt::Tensor::from({0, 1, 1, 0}, {4, 1});
  nt::Adam opt(mlp.trainable_parameters(), 0.05f);
  for (int step = 0; step < 500; ++step) {
    opt.zero_grad();
    auto loss = nt::mse_loss(mlp.forward(x), y);
    loss.backward();
    opt.step();
  }
  auto pred = mlp.forward(x);
  EXPECT_LT(std::abs(pred.at(0) - 0.0f), 0.2f);
  EXPECT_LT(std::abs(pred.at(1) - 1.0f), 0.2f);
  EXPECT_LT(std::abs(pred.at(2) - 1.0f), 0.2f);
  EXPECT_LT(std::abs(pred.at(3) - 0.0f), 0.2f);
}

TEST(Conv1d, PreservesLengthWithSamePadding) {
  Rng rng(6);
  nn::Conv1d conv(2, 4, 3, rng);
  auto y = conv.forward(nt::Tensor::zeros({2, 10}));
  ASSERT_EQ(y.shape(), (nt::Shape{4, 10}));
}

TEST(MultiHeadAttention, OutputShapeAndCausality) {
  Rng rng(7);
  nn::MultiHeadAttention mha(8, 2, /*causal=*/true, rng);
  auto x = nt::Tensor::randn({5, 8}, rng, 1.0f);
  auto y1 = mha.forward(x);
  ASSERT_EQ(y1.shape(), (nt::Shape{5, 8}));

  // Causality: changing a later token must not change earlier outputs.
  auto x2v = std::vector<float>(x.data().begin(), x.data().end());
  for (int j = 0; j < 8; ++j) x2v[4 * 8 + j] += 5.0f;  // perturb last position
  auto y2 = mha.forward(nt::Tensor::from(std::move(x2v), {5, 8}));
  for (int i = 0; i < 4 * 8; ++i) EXPECT_NEAR(y1.at(i), y2.at(i), 1e-5f);
  // ...but it should change the final position.
  float diff = 0.0f;
  for (int j = 0; j < 8; ++j) diff += std::abs(y1.at(4 * 8 + j) - y2.at(4 * 8 + j));
  EXPECT_GT(diff, 1e-3f);
}

TEST(MultiHeadAttention, NonCausalAttendsToFuture) {
  Rng rng(8);
  nn::MultiHeadAttention mha(8, 2, /*causal=*/false, rng);
  auto x = nt::Tensor::randn({4, 8}, rng, 1.0f);
  auto y1 = mha.forward(x);
  auto x2v = std::vector<float>(x.data().begin(), x.data().end());
  for (int j = 0; j < 8; ++j) x2v[3 * 8 + j] += 5.0f;
  auto y2 = mha.forward(nt::Tensor::from(std::move(x2v), {4, 8}));
  float diff = 0.0f;
  for (int j = 0; j < 8; ++j) diff += std::abs(y1.at(j) - y2.at(j));
  EXPECT_GT(diff, 1e-4f);  // first position sees the change
}

TEST(MultiHeadAttention, RejectsIndivisibleHeads) {
  Rng rng(9);
  EXPECT_THROW(nn::MultiHeadAttention(10, 3, true, rng), std::invalid_argument);
  // Checked before the division, so n_heads = 0 throws instead of SIGFPE.
  EXPECT_THROW(nn::MultiHeadAttention(8, 0, true, rng), std::invalid_argument);
}

TEST(TransformerBlock, MultiRowForwardIntoNonEmptyCacheThrows) {
  Rng rng(11);
  nn::TransformerBlock block(8, 2, 16, /*causal=*/true, rng);
  auto x = nt::Tensor::randn({5, 8}, rng, 1.0f);
  nn::KvCache cache;
  block.forward(nt::slice_rows(x, 0, 3), &cache);
  ASSERT_EQ(cache.len, 3);
  // Two rows after a prefill would be masked as if they started at position
  // 0: the forward refuses and leaves the cache untouched.
  EXPECT_THROW(block.forward(nt::slice_rows(x, 3, 2), &cache), std::invalid_argument);
  EXPECT_EQ(cache.len, 3);
  // One row at a time is the decode step: bitwise the full forward's rows.
  const auto full = block.forward(x);
  for (std::int64_t t = 3; t < 5; ++t) {
    const auto step = block.forward(nt::slice_rows(x, t, 1), &cache);
    for (std::int64_t j = 0; j < 8; ++j) ASSERT_EQ(step.at(j), full.at(t * 8 + j));
  }
}

TEST(TransformerBlock, ForwardShapeAndGradientFlow) {
  Rng rng(10);
  nn::TransformerBlock block(8, 2, 16, /*causal=*/true, rng);
  auto x = nt::Tensor::randn({6, 8}, rng, 1.0f);
  auto y = block.forward(x);
  ASSERT_EQ(y.shape(), (nt::Shape{6, 8}));
  auto loss = nt::mean_all(nt::mul(y, y));
  loss.backward();
  // Every trainable parameter should receive some gradient signal.
  int nonzero_params = 0;
  for (auto& p : block.trainable_parameters()) {
    bool any = false;
    for (float g : p.grad()) any |= (g != 0.0f);
    nonzero_params += any;
  }
  EXPECT_GT(nonzero_params, 10);
}

TEST(TransformerBlock, EnableLoraAddsTrainablesAndPreservesFunction) {
  Rng rng(11);
  nn::TransformerBlock block(8, 2, 16, true, rng);
  auto x = nt::Tensor::randn({4, 8}, rng, 1.0f);
  auto before = block.forward(x);
  block.freeze();
  auto lora = block.enable_lora(2, 4.0f, rng);
  EXPECT_EQ(lora.size(), 12u);  // 4 attention proj + 2 MLP, each (A, B)
  auto after = block.forward(x);
  for (int i = 0; i < 32; ++i) EXPECT_NEAR(before.at(i), after.at(i), 1e-6f);
  // Trainables are exactly the LoRA matrices (LayerNorms were frozen too).
  std::int64_t lora_count = 0;
  for (auto& t : lora) lora_count += t.numel();
  EXPECT_EQ(block.trainable_param_count(), lora_count);
}

TEST(Lstm, ShapesAndSequenceSensitivity) {
  Rng rng(12);
  nn::Lstm lstm(3, 6, rng);
  auto x = nt::Tensor::randn({5, 3}, rng, 1.0f);
  auto hs = lstm.forward(x);
  ASSERT_EQ(hs.shape(), (nt::Shape{5, 6}));
  auto last = lstm.last_hidden(x);
  ASSERT_EQ(last.shape(), (nt::Shape{1, 6}));
  for (int j = 0; j < 6; ++j) EXPECT_EQ(last.at(j), hs.at(4 * 6 + j));
}

TEST(Lstm, LearnsToSumSequence) {
  Rng rng(13);
  nn::Lstm lstm(1, 8, rng);
  nn::Linear head(8, 1, rng);
  std::vector<nt::Tensor> params = lstm.trainable_parameters();
  for (auto& p : head.trainable_parameters()) params.push_back(p);
  nt::Adam opt(params, 0.02f);
  Rng data_rng(99);
  float final_loss = 1e9f;
  for (int step = 0; step < 300; ++step) {
    std::vector<float> seq(4);
    float total = 0.0f;
    for (auto& v : seq) {
      v = static_cast<float>(data_rng.uniform(-1, 1));
      total += v;
    }
    opt.zero_grad();
    auto x = nt::Tensor::from(seq, {4, 1});
    auto pred = head.forward(lstm.last_hidden(x));
    auto loss = nt::mse_loss(pred, nt::Tensor::from({total}, {1, 1}));
    final_loss = loss.item();
    loss.backward();
    opt.step();
  }
  EXPECT_LT(final_loss, 0.1f);
}

TEST(Graph, TopologicalOrderRespectsDependencies) {
  nn::DagTopology topo;
  topo.num_nodes = 4;
  topo.children = {{1, 2}, {3}, {3}, {}};  // 3 -> {1,2} -> 0
  auto order = nn::topological_order(topo);
  std::vector<int> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  EXPECT_LT(pos[3], pos[1]);
  EXPECT_LT(pos[3], pos[2]);
  EXPECT_LT(pos[1], pos[0]);
  EXPECT_LT(pos[2], pos[0]);
}

TEST(Graph, CycleDetection) {
  nn::DagTopology topo;
  topo.num_nodes = 2;
  topo.children = {{1}, {0}};
  EXPECT_THROW(nn::topological_order(topo), std::invalid_argument);
}

TEST(Graph, EncoderShapesAndMessageFlow) {
  Rng rng(14);
  nn::GraphEncoder enc(3, 8, rng);
  nn::DagTopology topo;
  topo.num_nodes = 3;
  topo.children = {{1, 2}, {}, {}};
  auto feats = nt::Tensor::randn({3, 3}, rng, 1.0f);
  auto out = enc.forward(feats, topo);
  ASSERT_EQ(out.node_embeddings.shape(), (nt::Shape{3, 8}));
  ASSERT_EQ(out.global_summary.shape(), (nt::Shape{1, 8}));

  // Perturbing a child's features must change the parent's embedding.
  auto f2 = std::vector<float>(feats.data().begin(), feats.data().end());
  f2[1 * 3 + 0] += 3.0f;
  auto out2 = enc.forward(nt::Tensor::from(std::move(f2), {3, 3}), topo);
  float diff = 0.0f;
  for (int j = 0; j < 8; ++j) diff += std::abs(out.node_embeddings.at(j) - out2.node_embeddings.at(j));
  EXPECT_GT(diff, 1e-4f);
}

TEST(Graph, EncoderLearnsNodeProperty) {
  // Learn to score each node by (own feature + sum of children's features).
  Rng rng(15);
  nn::GraphEncoder enc(1, 8, rng);
  nn::Linear head(8, 1, rng);
  std::vector<nt::Tensor> params = enc.trainable_parameters();
  for (auto& p : head.trainable_parameters()) params.push_back(p);
  nt::Adam opt(params, 0.01f);
  nn::DagTopology topo;
  topo.num_nodes = 3;
  topo.children = {{1, 2}, {}, {}};
  Rng data_rng(42);
  float final_loss = 1e9f;
  for (int step = 0; step < 400; ++step) {
    std::vector<float> f(3);
    for (auto& v : f) v = static_cast<float>(data_rng.uniform(0, 1));
    const std::vector<float> target = {f[0] + f[1] + f[2], f[1], f[2]};
    opt.zero_grad();
    auto out = enc.forward(nt::Tensor::from(f, {3, 1}), topo);
    auto pred = head.forward(out.node_embeddings);
    auto loss = nt::mse_loss(pred, nt::Tensor::from(target, {3, 1}));
    final_loss = loss.item();
    loss.backward();
    opt.step();
  }
  EXPECT_LT(final_loss, 0.05f);
}

TEST(ViT, PatchAndPooledShapes) {
  Rng rng(16);
  nn::ViTConfig cfg;
  cfg.image_size = 8;
  cfg.patch_size = 4;
  cfg.d_model = 16;
  cfg.n_heads = 2;
  cfg.n_layers = 1;
  cfg.d_ff = 32;
  nn::ViTLite vit(cfg, rng);
  EXPECT_EQ(vit.num_patches(), 4);
  auto img = nt::Tensor::randn({8, 8}, rng, 1.0f);
  auto patches = vit.forward_patches(img);
  ASSERT_EQ(patches.shape(), (nt::Shape{4, 16}));
  auto pooled = vit.forward_pooled(img);
  ASSERT_EQ(pooled.shape(), (nt::Shape{1, 16}));
}

TEST(ViT, RejectsBadGeometry) {
  Rng rng(17);
  nn::ViTConfig cfg;
  cfg.image_size = 10;
  cfg.patch_size = 4;
  EXPECT_THROW(nn::ViTLite(cfg, rng), std::invalid_argument);
}

TEST(ViT, DistinguishesImages) {
  Rng rng(18);
  nn::ViTConfig cfg;
  cfg.image_size = 8;
  cfg.patch_size = 4;
  cfg.d_model = 16;
  cfg.n_heads = 2;
  cfg.n_layers = 1;
  cfg.d_ff = 32;
  nn::ViTLite vit(cfg, rng);
  auto a = vit.forward_pooled(nt::Tensor::zeros({8, 8}));
  auto b = vit.forward_pooled(nt::Tensor::full({8, 8}, 1.0f));
  float diff = 0.0f;
  for (int j = 0; j < 16; ++j) diff += std::abs(a.at(j) - b.at(j));
  EXPECT_GT(diff, 1e-4f);
}

TEST(Module, SaveLoadRoundTripThroughRegistry) {
  Rng rng(19);
  nn::Mlp a({3, 5, 2}, rng);
  nn::Mlp b({3, 5, 2}, rng);
  const auto path = std::string("/tmp/netllm_mlp_roundtrip.bin");
  a.save(path);
  b.load(path);
  auto x = nt::Tensor::randn({4, 3}, rng, 1.0f);
  auto ya = a.forward(x);
  auto yb = b.forward(x);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(ya.at(i), yb.at(i));
  std::remove(path.c_str());
}
