// Tests for the LLM substrate: tokenizer round-trips, corpus generation,
// MiniGPT forward/generation semantics, LoRA injection, pre-training
// convergence and the zoo snapshot cache.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/rng.hpp"
#include "llm/corpus.hpp"
#include "llm/minigpt.hpp"
#include "llm/tokenizer.hpp"
#include "llm/zoo.hpp"
#include "tensor/optim.hpp"

namespace nt = netllm::tensor;
namespace nl = netllm::llm;
using netllm::core::Rng;

TEST(Tokenizer, RoundTripsAlphabetText) {
  nl::Tokenizer tok;
  const std::string text = "abr bitrate: 42.5 (kbps) [ok]\n";
  auto ids = tok.encode(text);
  EXPECT_EQ(tok.decode(ids), text);
}

TEST(Tokenizer, FoldsCaseAndMapsUnknownToSpace) {
  nl::Tokenizer tok;
  EXPECT_EQ(tok.decode(tok.encode("ABC")), "abc");
  EXPECT_EQ(tok.decode(tok.encode("a\tb")), "a b");
}

TEST(Tokenizer, SpecialTokensFramedCorrectly) {
  nl::Tokenizer tok;
  auto ids = tok.encode("hi", /*add_bos=*/true, /*add_eos=*/true);
  ASSERT_EQ(ids.size(), 4u);
  EXPECT_EQ(ids.front(), nl::Tokenizer::kBos);
  EXPECT_EQ(ids.back(), nl::Tokenizer::kEos);
  // Specials decode to nothing.
  EXPECT_EQ(tok.decode(ids), "hi");
}

TEST(Tokenizer, CharToIdFoldsCaseLikeEncode) {
  // Regression: char_to_id('A') used to return nullopt while encode("A")
  // folded to 'a' — the two paths must agree.
  nl::Tokenizer tok;
  ASSERT_TRUE(tok.char_to_id('A').has_value());
  EXPECT_EQ(*tok.char_to_id('A'), *tok.char_to_id('a'));
  EXPECT_EQ(tok.encode("A")[0], *tok.char_to_id('A'));
  // Round-trip: the id maps back to the folded character.
  for (char c : std::string("AzB9 .")) {
    const auto id = tok.char_to_id(c);
    ASSERT_TRUE(id.has_value()) << "char " << c;
    const auto back = tok.id_to_char(*id);
    ASSERT_TRUE(back.has_value()) << "char " << c;
    const char folded = (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
    EXPECT_EQ(*back, folded);
  }
  // Characters outside the alphabet still report no id.
  EXPECT_FALSE(tok.char_to_id('\t').has_value());
}

TEST(Tokenizer, VocabCoversEveryEncodedId) {
  nl::Tokenizer tok;
  auto ids = tok.encode("the quick brown fox 0123456789 .,:;()[]{}<>=+-*/%_#");
  for (int id : ids) {
    EXPECT_GE(id, 0);
    EXPECT_LT(id, tok.vocab_size());
  }
}

TEST(Corpus, DeterministicForSeed) {
  nl::CorpusConfig cfg;
  cfg.num_documents = 20;
  nl::CorpusGenerator g1(cfg, 5), g2(cfg, 5);
  EXPECT_EQ(g1.generate(), g2.generate());
}

TEST(Corpus, RespectsMaxChars) {
  nl::CorpusConfig cfg;
  cfg.num_documents = 50;
  cfg.max_chars = 40;
  nl::CorpusGenerator g(cfg, 9);
  for (const auto& doc : g.generate()) EXPECT_LE(doc.size(), 40u);
}

TEST(Corpus, KindsProduceDistinctDistributions) {
  nl::CorpusConfig pattern;
  pattern.kind = nl::CorpusKind::kPatternRich;
  pattern.num_documents = 100;
  nl::CorpusConfig text;
  text.kind = nl::CorpusKind::kTextOnly;
  text.num_documents = 100;
  auto count_digits = [](const std::vector<std::string>& docs) {
    int n = 0;
    for (const auto& d : docs) {
      for (char c : d) n += (c >= '0' && c <= '9');
    }
    return n;
  };
  const int pattern_digits = count_digits(nl::CorpusGenerator(pattern, 3).generate());
  const int text_digits = count_digits(nl::CorpusGenerator(text, 3).generate());
  EXPECT_GT(pattern_digits, 10 * (text_digits + 1));
}

namespace {

nl::MiniGptConfig tiny_config() {
  nl::MiniGptConfig cfg;
  cfg.vocab = nl::Tokenizer().vocab_size();
  cfg.d_model = 16;
  cfg.n_heads = 2;
  cfg.n_layers = 1;
  cfg.d_ff = 32;
  cfg.max_seq = 48;
  return cfg;
}

}  // namespace

TEST(MiniGpt, ForwardTokensShape) {
  Rng rng(1);
  nl::MiniGpt model(tiny_config(), rng);
  const int ids[] = {1, 5, 6, 7};
  auto logits = model.forward_tokens(ids);
  ASSERT_EQ(logits.shape(), (nt::Shape{4, tiny_config().vocab}));
}

TEST(MiniGpt, RejectsOverlongSequence) {
  Rng rng(2);
  nl::MiniGpt model(tiny_config(), rng);
  std::vector<int> ids(100, 3);
  EXPECT_THROW(model.forward_tokens(ids), std::invalid_argument);
}

TEST(MiniGpt, RejectsBadConfig) {
  // n_heads = 0 must throw, not raise SIGFPE; n_layers <= 0 would build a
  // zero-block model whose cached decode runs every token at position 0.
  for (auto field : {&nl::MiniGptConfig::d_model, &nl::MiniGptConfig::n_heads,
                     &nl::MiniGptConfig::n_layers, &nl::MiniGptConfig::d_ff}) {
    for (std::int64_t bad : {0, -1}) {
      auto cfg = tiny_config();
      cfg.*field = bad;
      Rng rng(3);
      EXPECT_THROW(nl::MiniGpt(cfg, rng), std::invalid_argument) << "value " << bad;
    }
  }
}

TEST(MiniGpt, ForwardEmbeddingsShapeAndPositionSensitivity) {
  Rng rng(3);
  nl::MiniGpt model(tiny_config(), rng);
  auto e = nt::Tensor::randn({5, 16}, rng, 1.0f);
  auto f = model.forward_embeddings(e);
  ASSERT_EQ(f.shape(), (nt::Shape{5, 16}));
  // Same embedding content at different positions -> different features
  // (positional embeddings are added inside).
  auto row = nt::Tensor::randn({1, 16}, rng, 1.0f);
  auto rep = nt::concat_rows({row, row});
  auto f2 = model.forward_embeddings(rep);
  float diff = 0.0f;
  for (int j = 0; j < 16; ++j) diff += std::abs(f2.at(j) - f2.at(16 + j));
  EXPECT_GT(diff, 1e-4f);
}

TEST(MiniGpt, GenerateStopsAtStopToken) {
  Rng rng(4);
  nl::MiniGpt model(tiny_config(), rng);
  auto out = model.generate({1, 4, 5}, 10, /*stop_token=*/nl::Tokenizer::kEos);
  EXPECT_LE(out.size(), 10u);
  for (int id : out) EXPECT_NE(id, nl::Tokenizer::kEos);
}

TEST(MiniGpt, GenerateSlidesContextWindowPastMaxSeq) {
  Rng rng(5);
  auto cfg = tiny_config();
  cfg.max_seq = 8;
  nl::MiniGpt model(cfg, rng);
  // Generation no longer stops at the context boundary: the model attends
  // over a sliding window of the last max_seq tokens and keeps producing
  // (test_decode pins the window semantics and cached/uncached equality).
  auto out = model.generate({1, 4, 5, 6, 7}, 20, -1);
  EXPECT_EQ(out.size(), 20u);
}

TEST(MiniGpt, MemorisesShortSequence) {
  // Overfit check: LM loss on one document should approach zero.
  Rng rng(6);
  nl::MiniGpt model(tiny_config(), rng);
  nl::Tokenizer tok;
  auto ids = tok.encode("abcabcabcabcabc", true, true);
  nt::Adam opt(model.trainable_parameters(), 3e-3f);
  float loss_val = 1e9f;
  for (int step = 0; step < 300 && loss_val > 0.05f; ++step) {
    opt.zero_grad();
    auto loss = model.lm_loss(ids);
    loss_val = loss.item();
    loss.backward();
    opt.clip_grad_norm(1.0);
    opt.step();
  }
  EXPECT_LT(loss_val, 0.2f);
}

TEST(MiniGpt, LoraPreservesFunctionAndIsolatesTraining) {
  Rng rng(7);
  nl::MiniGpt model(tiny_config(), rng);
  const int ids[] = {1, 5, 6, 7, 8};
  auto before = model.forward_tokens(ids);
  model.freeze_backbone();
  auto lora = model.enable_lora(4, 8.0f, rng);
  EXPECT_EQ(lora.size(), 12u * 1u);  // 1 layer x (4 attn + 2 mlp) x (A,B)
  auto after = model.forward_tokens(ids);
  for (std::int64_t i = 0; i < before.numel(); ++i) {
    EXPECT_NEAR(before.at(i), after.at(i), 1e-6f);
  }
  std::int64_t lora_count = 0;
  for (auto& t : lora) lora_count += t.numel();
  EXPECT_EQ(model.trainable_param_count(), lora_count);
  EXPECT_LT(static_cast<double>(lora_count) / static_cast<double>(model.param_count()), 0.25);
}

TEST(Pretrain, LossDecreases) {
  Rng rng(8);
  nl::MiniGpt model(tiny_config(), rng);
  nl::Tokenizer tok;
  nl::CorpusConfig ccfg;
  ccfg.max_chars = 40;
  nl::CorpusGenerator corpus(ccfg, 11);
  nl::PretrainConfig pt;
  pt.steps = 120;
  pt.lr = 2e-3f;
  auto stats = nl::pretrain_lm(model, tok, corpus, pt);
  EXPECT_LT(stats.final_loss, stats.initial_loss * 0.8f);
}

TEST(Zoo, EntriesExistAndScaleMonotonically) {
  for (const auto& name : nl::zoo_names()) {
    const auto e = nl::zoo_entry(name);
    EXPECT_EQ(e.cfg.d_model % e.cfg.n_heads, 0) << name;
    EXPECT_GT(e.pretrain_steps, 0) << name;
  }
  // OPT ladder grows in capacity with the simulated parameter count.
  const auto small = nl::zoo_entry("opt-lite-0.35b");
  const auto large = nl::zoo_entry("opt-lite-6.7b");
  EXPECT_LT(small.cfg.d_model, large.cfg.d_model);
  EXPECT_LT(small.cfg.n_layers, large.cfg.n_layers);
  EXPECT_THROW(nl::zoo_entry("gpt-17"), std::invalid_argument);
}

TEST(Zoo, SnapshotCacheRoundTrip) {
  const auto cache = std::filesystem::temp_directory_path() / "netllm_zoo_cache_test";
  std::filesystem::remove_all(cache);
  // First build pre-trains (tiny model keeps this fast) and saves a snapshot.
  auto m1 = nl::build_pretrained("opt-lite-0.35b", 3, cache.string());
  ASSERT_TRUE(std::filesystem::exists(cache));
  // Second build must load the identical snapshot.
  auto m2 = nl::build_pretrained("opt-lite-0.35b", 3, cache.string());
  const int ids[] = {1, 5, 9, 12};
  auto l1 = m1->forward_tokens(ids);
  auto l2 = m2->forward_tokens(ids);
  for (std::int64_t i = 0; i < l1.numel(); ++i) EXPECT_EQ(l1.at(i), l2.at(i));
  std::filesystem::remove_all(cache);
}

TEST(Zoo, NonPretrainedBuildSkipsCacheAndDiffers) {
  const auto cache = std::filesystem::temp_directory_path() / "netllm_zoo_cache_test2";
  std::filesystem::remove_all(cache);
  auto random_model = nl::build_pretrained("opt-lite-0.35b", 3, cache.string(),
                                           /*pretrained=*/false);
  EXPECT_FALSE(std::filesystem::exists(cache));
  auto trained_model = nl::build_pretrained("opt-lite-0.35b", 3, cache.string());
  const int ids[] = {1, 5, 9, 12};
  auto lr_ = random_model->forward_tokens(ids);
  auto lt = trained_model->forward_tokens(ids);
  float diff = 0.0f;
  for (std::int64_t i = 0; i < lr_.numel(); ++i) diff += std::abs(lr_.at(i) - lt.at(i));
  EXPECT_GT(diff, 1.0f);
  std::filesystem::remove_all(cache);
}
