// Continuous-batching scheduler + pooled KV arena suite (ctest -L sched),
// DESIGN.md §13.
//
// Pinned claims:
//   - the KV-cached VpAdapter rollout is bitwise the legacy re-forward loop
//     (predict_uncached), at any NETLLM_THREADS,
//   - MiniGpt's embedding-path prefill/step pair reproduces the full forward
//     row-for-row, float-exact,
//   - the run-loop scheduler (bounded in-flight slots pulling jobs in
//     priority-then-admission order) serves every request bitwise identical
//     to the sequential drain, at any thread count,
//   - arena exhaustion is a deterministic shed-to-fallback, never an escaped
//     exception, and leases recycle so a serial drain fits a one-lease budget,
//   - a warm prefix hit serves the same floats as a cold prefill,
//   - tickets resolve continuously: a finished request's response is readable
//     while the batch is still draining, and unfinished/stale tickets throw,
//   - the KvCache bugfix sweep: clear() forgets the width, reserve() pins the
//     allocation, and Block admission wakes by notification, not by polling.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.hpp"
#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "core/signal.hpp"
#include "core/threadpool.hpp"
#include "envs/abr/policy.hpp"
#include "llm/minigpt.hpp"
#include "llm/tokenizer.hpp"
#include "netllm/serve.hpp"
#include "netllm/vp_adapter.hpp"
#include "nn/kv_arena.hpp"
#include "nn/transformer.hpp"

namespace ad = netllm::adapt;
namespace llm = netllm::llm;
namespace nc = netllm::core;
namespace nm = netllm::core::metrics;
namespace nn = netllm::nn;
namespace serve = netllm::serve;
namespace vp = netllm::vp;
using netllm::core::Rng;
using netllm::tensor::Tensor;

namespace {

class Sched : public ::testing::Test {
 protected:
  void SetUp() override {
    nm::set_enabled(true);
    nm::reset();
    netllm::core::fault::disarm_all();
    nc::clear_stop();
  }
  void TearDown() override {
    netllm::core::fault::disarm_all();
    nc::clear_stop();
    nm::reset();
    nc::set_global_threads(0);
  }
};

llm::MiniGptConfig tiny_config(std::int64_t max_seq = 112) {
  llm::MiniGptConfig cfg;
  cfg.vocab = llm::Tokenizer().vocab_size();
  cfg.d_model = 16;
  cfg.n_heads = 2;
  cfg.n_layers = 2;
  cfg.d_ff = 32;
  cfg.max_seq = max_seq;
  return cfg;
}

std::shared_ptr<llm::MiniGpt> tiny_llm(std::uint64_t seed, std::int64_t max_seq = 112) {
  Rng rng(seed);
  return std::make_shared<llm::MiniGpt>(tiny_config(max_seq), rng);
}

std::shared_ptr<ad::VpAdapter> vp_adapter(std::uint64_t seed = 1) {
  ad::VpAdapterConfig cfg;
  cfg.lora_rank = 2;
  cfg.lora_alpha = 4.0f;
  Rng rng(seed);
  return std::make_shared<ad::VpAdapter>(tiny_llm(seed), cfg, rng);
}

std::vector<vp::VpSample> vp_samples(int n) {
  auto setting = vp::vp_default_train();
  setting.num_traces = 1;
  return vp::build_dataset(setting, n);
}

void expect_same_rollout(const std::vector<vp::Viewport>& a, const std::vector<vp::Viewport>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].roll, b[j].roll) << "step " << j;
    EXPECT_EQ(a[j].pitch, b[j].pitch) << "step " << j;
    EXPECT_EQ(a[j].yaw, b[j].yaw) << "step " << j;
  }
}

std::vector<float> to_vec(const Tensor& t) { return {t.data().begin(), t.data().end()}; }

}  // namespace

// ---------- cached rollout == legacy re-forward loop ----------

TEST_F(Sched, CachedPredictBitwiseMatchesUncachedAcrossThreadCounts) {
  const auto samples = vp_samples(3);
  auto adapter = vp_adapter(5);  // no arena attached: private reserved caches
  for (int threads : {1, 4}) {
    nc::set_global_threads(threads);
    for (const auto& s : samples) {
      const auto cached = adapter->predict(s.history, s.saliency, 4);
      const auto legacy = adapter->predict_uncached(s.history, s.saliency, 4);
      expect_same_rollout(cached, legacy);
    }
  }
}

TEST_F(Sched, PrefillAndStepEmbeddingsBitwiseMatchFullForward) {
  using netllm::tensor::quant::Dtype;
  // prefill_len 1 is the single-row causal prefill.
  for (Dtype dtype : {Dtype::kF32, Dtype::kQ8_0, Dtype::kQ4_0}) {
    for (std::int64_t prefill_len : {1, 4}) {
      SCOPED_TRACE(std::string(netllm::tensor::quant::dtype_name(dtype)) +
                   " prefill_len=" + std::to_string(prefill_len));
      auto gpt = tiny_llm(17);
      gpt->quantize_backbone(dtype);
      const auto d = gpt->config().d_model;
      Rng rng(23);
      const std::int64_t total = 7;
      std::vector<float> rows(static_cast<std::size_t>(total * d));
      for (auto& x : rows) x = static_cast<float>(rng.uniform(-1.0, 1.0));
      auto first_rows = [&](std::int64_t t) {
        return Tensor::from({rows.begin(), rows.begin() + t * d}, {t, d});
      };

      std::vector<nn::KvCache> layers(static_cast<std::size_t>(gpt->config().n_layers));
      const auto prefill = gpt->prefill_embeddings(first_rows(prefill_len), layers);
      ASSERT_EQ(to_vec(prefill), to_vec(gpt->forward_embeddings(first_rows(prefill_len))));
      for (std::int64_t t = prefill_len; t < total; ++t) {
        const auto row =
            Tensor::from({rows.begin() + t * d, rows.begin() + (t + 1) * d}, {1, d});
        const auto step = to_vec(gpt->embeddings_step(row, layers));
        const auto full = to_vec(gpt->forward_embeddings(first_rows(t + 1)));
        ASSERT_EQ(step.size(), static_cast<std::size_t>(d));
        for (std::int64_t j = 0; j < d; ++j) {
          // Each incremental step is float-exact the last row of the uncached
          // forward over the grown sequence — no tolerance.
          ASSERT_EQ(step[static_cast<std::size_t>(j)],
                    full[static_cast<std::size_t>((t * d) + j)])
              << "t=" << t << " j=" << j;
        }
      }
    }
  }
}

// ---------- scheduler: slots + priorities, bitwise vs sequential ----------

TEST_F(Sched, SlottedDrainBitwiseMatchesSequentialAcrossThreadCounts) {
  const auto samples = vp_samples(6);
  // The reference: the legacy uncached loop on a twin adapter (same seed).
  auto reference = vp_adapter(3);
  std::vector<std::vector<vp::Viewport>> expected;
  for (const auto& s : samples) {
    expected.push_back(reference->predict_uncached(s.history, s.saliency, 4));
  }
  for (int threads : {1, 4}) {
    nc::set_global_threads(threads);
    serve::EngineConfig cfg;
    cfg.max_slots = 2;  // fewer slots than requests: slots must pull new work
    auto engine =
        std::make_shared<serve::InferenceEngine>(vp_adapter(3), nullptr, nullptr, cfg);
    ASSERT_NE(engine->kv_arena(), nullptr);  // arena is on by default for adapters
    for (const auto& s : samples) {
      engine->submit(serve::VpRequest{s.history, s.saliency, 4});
    }
    const auto report = engine->run();
    EXPECT_EQ(report.requests, samples.size());
    EXPECT_EQ(report.llm, samples.size());
    ASSERT_EQ(engine->vp_responses().size(), samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      expect_same_rollout(engine->vp_responses()[i].viewports, expected[i]);
    }
  }
}

namespace {

/// Records execution order (threads=1 makes the order the schedule).
class RecordingVp : public vp::VpPredictor {
 public:
  RecordingVp(std::vector<std::string>* log, std::mutex* mu) : log_(log), mu_(mu) {}
  std::string name() const override { return "recording"; }
  std::vector<vp::Viewport> predict(std::span<const vp::Viewport> history, const Tensor&,
                                    int horizon) override {
    std::lock_guard<std::mutex> lock(*mu_);
    log_->push_back("vp" + std::to_string(horizon));
    return std::vector<vp::Viewport>(static_cast<std::size_t>(horizon), history.back());
  }

 private:
  std::vector<std::string>* log_;
  std::mutex* mu_;
};

class RecordingAbr : public netllm::abr::AbrPolicy {
 public:
  RecordingAbr(std::vector<std::string>* log, std::mutex* mu) : log_(log), mu_(mu) {}
  std::string name() const override { return "recording"; }
  int choose_level(const netllm::abr::Observation&) override {
    std::lock_guard<std::mutex> lock(*mu_);
    log_->push_back("abr");
    return 0;
  }

 private:
  std::vector<std::string>* log_;
  std::mutex* mu_;
};

netllm::abr::Observation abr_observation() {
  netllm::abr::Observation obs;
  obs.past_throughput_mbps.assign(netllm::abr::Observation::kHistory, 3.0);
  obs.past_delay_s.assign(netllm::abr::Observation::kHistory, 0.1);
  obs.next_chunk_sizes_mbytes = {0.5, 1.0, 2.0, 4.0};
  obs.future_chunk_sizes_mbytes.assign(netllm::abr::Observation::kHorizon * 4, 1.0);
  obs.buffer_s = 10.0;
  obs.chunks_remaining = 10;
  obs.num_levels = 4;
  return obs;
}

serve::VpRequest small_vp_request(int horizon) {
  vp::Viewport a, b;
  a.roll = 0.0, a.pitch = 0.0, a.yaw = 5.0;
  b.roll = 1.0, b.pitch = 2.0, b.yaw = 7.0;
  return serve::VpRequest{{a, b}, Tensor::zeros({4, 4}), horizon};
}

}  // namespace

TEST_F(Sched, PriorityOrdersTasksAdmissionOrderBreaksTies) {
  nc::set_global_threads(1);  // the pull order IS the execution order
  std::vector<std::string> log;
  std::mutex mu;
  serve::EngineConfig cfg;
  cfg.abr_priority = 1;  // ABR outranks VP (both default 0 otherwise)
  auto engine = std::make_shared<serve::InferenceEngine>(
      std::make_shared<RecordingVp>(&log, &mu), std::make_shared<RecordingAbr>(&log, &mu),
      nullptr, cfg);
  engine->submit(small_vp_request(2));
  engine->submit(small_vp_request(3));
  engine->submit(serve::AbrRequest{abr_observation()});
  engine->run();
  // The late-submitted ABR request jumps the queue; the VP pair keeps its
  // admission order (stable sort on equal priorities).
  ASSERT_EQ(log, (std::vector<std::string>{"abr", "vp2", "vp3"}));
}

// ---------- arena: exhaustion sheds, leases recycle ----------

TEST_F(Sched, ArenaExhaustionShedsDeterministicallyAndLeasesRecycle) {
  const auto samples = vp_samples(4);
  const int horizon = 4;
  auto probe = vp_adapter(9);
  const auto& lcfg = probe->llm().config();
  const std::int64_t page_rows = 16;
  const auto rows = static_cast<std::int64_t>(1 + samples[0].history.size()) + horizon - 1;
  const std::int64_t pages_per_lease =
      lcfg.n_layers * 2 * std::max<std::int64_t>((rows + page_rows - 1) / page_rows, 1);

  // Budget one page short of a single lease: every request is shed — a
  // deterministic fallback answer, never an escaped Exhausted.
  nc::set_global_threads(1);
  serve::EngineConfig starved;
  starved.arena_pages = pages_per_lease - 1;
  starved.arena_page_rows = page_rows;
  auto engine =
      std::make_shared<serve::InferenceEngine>(vp_adapter(9), nullptr, nullptr, starved);
  for (const auto& s : samples) engine->submit(serve::VpRequest{s.history, s.saliency, horizon});
  serve::BatchReport report;
  ASSERT_NO_THROW(report = engine->run());
  EXPECT_EQ(report.requests, samples.size());
  EXPECT_EQ(report.shed, samples.size());
  EXPECT_EQ(report.llm, 0u);
  for (const auto& r : engine->vp_responses()) {
    EXPECT_EQ(r.meta.source, serve::Source::kShed);
    EXPECT_EQ(r.viewports.size(), static_cast<std::size_t>(horizon));
  }
  // Shedding on pool pressure is load, not model failure.
  EXPECT_EQ(engine->vp_health(), ad::Health::kHealthy);
  EXPECT_EQ(nm::counter("serve.vp.shed").value(), static_cast<std::int64_t>(samples.size()));

  // Budget exactly one lease + one serial slot: every request is served —
  // returning a lease funds (and recycles buffers for) the next one.
  serve::EngineConfig serial;
  serial.arena_pages = pages_per_lease;
  serial.arena_page_rows = page_rows;
  serial.arena_prefix_entries = 0;  // no warm set: the budget fits leases only
  serial.max_slots = 1;
  auto engine2 =
      std::make_shared<serve::InferenceEngine>(vp_adapter(9), nullptr, nullptr, serial);
  for (const auto& s : samples) engine2->submit(serve::VpRequest{s.history, s.saliency, horizon});
  const auto report2 = engine2->run();
  EXPECT_EQ(report2.llm, samples.size());
  EXPECT_EQ(engine2->kv_arena()->pages_in_use(), 0);  // all leases returned

  // Oversubscribed slots at 4 threads racing one lease of budget: requests
  // may shed, but all of them resolve and nothing escapes run().
  nc::set_global_threads(4);
  auto engine3 =
      std::make_shared<serve::InferenceEngine>(vp_adapter(9), nullptr, nullptr, serial);
  for (const auto& s : samples) engine3->submit(serve::VpRequest{s.history, s.saliency, horizon});
  serve::BatchReport report3;
  ASSERT_NO_THROW(report3 = engine3->run());
  EXPECT_EQ(report3.requests, samples.size());
  EXPECT_EQ(report3.llm + report3.retried + report3.fallback + report3.shed, report3.requests);
}

TEST_F(Sched, PrefixHitServesBitwiseTheColdPrefillAnswer) {
  nc::set_global_threads(1);
  const auto samples = vp_samples(1);
  auto engine = std::make_shared<serve::InferenceEngine>(vp_adapter(13), nullptr, nullptr);
  const auto arena = engine->kv_arena();
  ASSERT_NE(arena, nullptr);
  // Same prompt skeleton twice in one batch: the first request publishes its
  // prefill, the second adopts it.
  engine->submit(serve::VpRequest{samples[0].history, samples[0].saliency, 4});
  engine->submit(serve::VpRequest{samples[0].history, samples[0].saliency, 4});
  const auto report = engine->run();
  EXPECT_EQ(report.llm, 2u);
  EXPECT_EQ(report.prefix_hits, 1u);
  EXPECT_EQ(arena->prefix_hits(), 1u);
  EXPECT_EQ(arena->prefix_misses(), 1u);
  EXPECT_EQ(nm::counter("kv.prefix.hits").value(), 1);
  // The adopted rows are the published request's own floats: the warm answer
  // is bitwise the cold one.
  ASSERT_EQ(engine->vp_responses().size(), 2u);
  expect_same_rollout(engine->vp_responses()[1].viewports, engine->vp_responses()[0].viewports);
  // The whole batch done, every lease is back; only the warm entry holds pages.
  EXPECT_EQ(arena->pages_in_use(), nm::gauge("kv.arena.pages_in_use").value());
  EXPECT_GT(arena->pages_in_use(), 0);  // the published prefix stays warm
}

// ---------- continuous ticket resolution ----------

namespace {

/// On its second call, resolves the batch's first ticket (already finished
/// at threads=1) and probes its own (must still be stale).
class ResolvingVp : public vp::VpPredictor {
 public:
  std::string name() const override { return "resolving"; }
  std::vector<vp::Viewport> predict(std::span<const vp::Viewport> history, const Tensor&,
                                    int horizon) override {
    if (++calls == 2 && engine) {
      try {
        first_resolved_mid_drain = engine->vp_response(first).viewports.size() == 2;
      } catch (const serve::StaleTicket&) {
        first_resolved_mid_drain = false;
      }
      try {
        engine->vp_response(serve::Ticket{first.epoch, 1, first.task});
        own_was_stale = false;
      } catch (const serve::StaleTicket&) {
        own_was_stale = true;  // this request's own slot is not done yet
      }
    }
    return std::vector<vp::Viewport>(static_cast<std::size_t>(horizon), history.back());
  }

  serve::InferenceEngine* engine = nullptr;
  serve::Ticket first;
  int calls = 0;
  bool first_resolved_mid_drain = false;
  bool own_was_stale = false;
};

}  // namespace

TEST_F(Sched, TicketsResolveContinuouslyWhileTheBatchDrains) {
  nc::set_global_threads(1);
  auto primary = std::make_shared<ResolvingVp>();
  auto engine = std::make_shared<serve::InferenceEngine>(primary, nullptr, nullptr);
  primary->engine = engine.get();
  primary->first = engine->submit(small_vp_request(2));
  engine->submit(small_vp_request(2));
  // Before any drain, the ticket is stale-by-definition.
  EXPECT_THROW(engine->vp_response(primary->first), serve::StaleTicket);
  engine->run();
  EXPECT_EQ(primary->calls, 2);
  EXPECT_TRUE(primary->first_resolved_mid_drain);
  EXPECT_TRUE(primary->own_was_stale);
  // After the drain both resolve; after a later run() the generation is gone.
  EXPECT_NO_THROW(engine->vp_response(primary->first));
  engine->submit(small_vp_request(2));
  engine->run();
  EXPECT_THROW(engine->vp_response(primary->first), serve::StaleTicket);
}

// ---------- KvCache bugfix sweep ----------

TEST_F(Sched, KvCacheClearForgetsTheWidthForReuse) {
  nn::KvCache c;
  const std::vector<float> w4(4, 1.0f), w6(6, 2.0f);
  c.append(w4, w4);
  ASSERT_EQ(c.d_model, 4);
  ASSERT_EQ(c.len, 1);
  c.clear();
  // A cleared cache is indistinguishable from a fresh one: the width resets
  // with the rows (it used to stay sticky, poisoning cross-model reuse).
  EXPECT_EQ(c.d_model, 0);
  EXPECT_EQ(c.len, 0);
  c.append(w6, w6);
  EXPECT_EQ(c.d_model, 6);
  EXPECT_EQ(c.len, 1);
  EXPECT_EQ(c.k().size(), 6u);
  EXPECT_EQ(c.k_view().dim(1), 6);
}

TEST_F(Sched, KvCacheReservePinsTheAllocation) {
  nn::KvCache c;
  c.d_model = 8;
  const std::int64_t rows = 32;
  c.reserve(rows);
  const auto capacity = c.capacity_rows();
  ASSERT_GE(capacity, rows);
  std::vector<float> row(8, 0.5f);
  for (std::int64_t i = 0; i < rows; ++i) c.append(row, row);
  EXPECT_EQ(c.len, rows);
  // Every append landed inside the reservation: zero reallocations (the bare
  // insert used to grow geometrically, reallocating mid-decode).
  EXPECT_EQ(c.capacity_rows(), capacity);
  EXPECT_EQ(c.k().size(), static_cast<std::size_t>(rows * 8));
  // A covered reservation is a no-op; growing a non-empty cache throws.
  c.reserve(rows);
  EXPECT_EQ(c.capacity_rows(), capacity);
  EXPECT_THROW(c.reserve(capacity + 1), std::invalid_argument);
  EXPECT_EQ(c.len, rows);
}

TEST_F(Sched, BlockAdmissionWakesByNotificationNotPolling) {
  serve::EngineConfig cfg;
  cfg.max_queue = 1;
  cfg.admission = serve::AdmissionPolicy::kBlock;
  auto engine = std::make_shared<serve::InferenceEngine>(
      std::make_shared<ResolvingVp>(), nullptr, nullptr, cfg);
  engine->submit(small_vp_request(2));
  std::atomic<bool> admitted{false};
  std::thread producer([&] {
    engine->submit(small_vp_request(3));  // blocks on the full queue
    admitted.store(true);
  });
  // Hold the producer blocked long enough that a 5 ms poll loop would rack
  // up ~30 wakeups, then drain. The predicate wait wakes once, on notify.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  engine->run();
  producer.join();
  EXPECT_TRUE(admitted.load());
  const auto wakeups = nm::counter("serve.admission.wakeups").value();
  EXPECT_GE(wakeups, 1);  // the instrumented predicate wait actually ran
  EXPECT_LE(wakeups, 4);  // and it did not poll the 150 ms away in slices
}
