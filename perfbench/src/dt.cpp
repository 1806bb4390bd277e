// dt_sessions: a closed loop of one ABR client (streaming sessions back to
// back) and one CJS client (one scheduling episode at a time). Each client
// drives its own engine, holding the real AbrAdapter or CjsAdapter, from its
// own thread: it submits, drains the engine and reads its decision before
// its simulator advances, so no decision waits on a hand-off between
// threads. Every decision re-runs the backbone over the whole
// decision-transformer window, so the backbone is used prefill-style, with
// no KV cache.
#include <algorithm>
#include <deque>
#include <exception>
#include <memory>
#include <thread>

#include "core/rng.hpp"
#include "envs/abr/policy.hpp"
#include "envs/cjs/job.hpp"
#include "llm/zoo.hpp"
#include "netllm/abr_adapter.hpp"
#include "netllm/cjs_adapter.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ad = netllm::adapt;
namespace abr = netllm::abr;
namespace cjs = netllm::cjs;
namespace serve = netllm::serve;
namespace llm = netllm::llm;
using netllm::tensor::Tensor;

namespace {

constexpr std::uint64_t kModelSeed = 7;
constexpr std::uint64_t kAbrSeed = 13;
constexpr std::uint64_t kCjsSeed = 17;
// Each client thread is the calling lane of its own engine's drains;
// 2 client threads + 2 pool lanes = 4 cores on the reference host.
constexpr int kLanes = 2;
constexpr int kClients = 2;
constexpr int kAbrTraces = 32;
constexpr int kCjsJobRequests = 80;  // x the default scale 0.25 = 20 jobs per episode
constexpr std::size_t kAbrCheckSessions = 3;  // replayed whole on the twin
constexpr std::size_t kCjsCheckDecisions = 120;  // replayed from the episode start
// Observations are kept only where the replay may need them, so the
// benchmark's own records do not grow peak RSS with the decision count.
constexpr std::size_t kAbrKeepSessions = 2 * kAbrCheckSessions;

template <typename Adapter, typename Config>
std::shared_ptr<Adapter> make_adapter(std::uint64_t adapter_seed) {
  netllm::core::Rng mrng(kModelSeed);
  auto gpt = std::make_shared<llm::MiniGpt>(llm::zoo_entry("llama2-lite").cfg, mrng);
  netllm::core::Rng arng(adapter_seed);
  return std::make_shared<Adapter>(std::move(gpt), Config{}, arng);
}

/// One ABR decision and the outcome fed back to the policy.
struct AbrStep {
  abr::Observation obs;
  Answer answer;
  abr::ChunkResult result;
  double qoe = 0.0;
  int index_in_session = 0;  // 1-based
};
using AbrSession = std::deque<AbrStep>;

/// Calls the CJS simulator made on its policy, in order.
struct CjsEvent {
  enum Kind { kBegin, kReward, kChoose } kind = kBegin;
  double reward = 0.0;
  cjs::SchedObservation obs;
  Answer answer;
  int index_in_episode = 0;  // 1-based, kChoose only
};

/// Thrown by the CJS client to end an episode when the run's time is up.
struct TimeUp {};

/// The scheduler the CJS simulator sees: forwards every call to the engine,
/// drains it for each decision, and records the calls for the replay check.
class EngineScheduler final : public cjs::SchedPolicy {
 public:
  EngineScheduler(serve::InferenceEngine& engine, std::deque<CjsEvent>& events,
                  std::vector<double>& drains, Clock::time_point run_t0, Clock::time_point end)
      : engine_(engine), events_(events), drains_(drains), run_t0_(run_t0), end_(end) {}

  std::string name() const override { return "engine"; }
  void begin_episode() override {
    engine_.begin_cjs_episode();
    events_.push_back({CjsEvent::kBegin, 0.0, {}, {}, 0});
    decisions_ = 0;
    ++episodes_;
  }
  void observe_reward(double reward) override {
    engine_.observe_cjs_reward(reward);
    events_.push_back({CjsEvent::kReward, reward, {}, {}, 0});
  }
  cjs::SchedAction choose(const cjs::SchedObservation& obs) override {
    const auto now = Clock::now();
    if (decisions_ > 0) sim_s_ += std::chrono::duration<double>(now - returned_).count();
    if (now >= end_) throw TimeUp{};
    auto& ev = events_.emplace_back();
    ev.kind = CjsEvent::kChoose;
    ev.index_in_episode = ++decisions_;
    if (episodes_ == 1 && static_cast<std::size_t>(decisions_) <= kCjsCheckDecisions) ev.obs = obs;
    ev.answer.submit_s = ev.answer.due_s = seconds_since(run_t0_);
    const auto ticket = engine_.submit(serve::CjsRequest{obs});
    drains_.push_back(static_cast<double>(engine_.run().requests));
    const auto& r = engine_.cjs_response(ticket);
    ev.answer.record(r.meta);
    ev.answer.action = r.action;
    const auto& a = r.action;
    ev.answer.valid = a.runnable_index >= 0 &&
                      a.runnable_index < static_cast<int>(obs.runnable_rows.size()) &&
                      a.cap_choice >= 0 && a.cap_choice < cjs::kNumCapChoices;
    if (!ev.answer.valid) throw std::runtime_error("engine returned an invalid CJS action");
    returned_ = Clock::now();
    return a;
  }
  /// Time the simulator ran between decisions of an episode.
  double sim_s() const { return sim_s_; }

 private:
  serve::InferenceEngine& engine_;
  std::deque<CjsEvent>& events_;
  std::vector<double>& drains_;
  const Clock::time_point run_t0_, end_;
  int decisions_ = 0;
  int episodes_ = 0;
  Clock::time_point returned_{};
  double sim_s_ = 0.0;
};

struct Stack {
  std::shared_ptr<ad::AbrAdapter> abr;
  std::unique_ptr<serve::InferenceEngine> abr_engine;
  std::shared_ptr<ad::CjsAdapter> cjs;
  std::unique_ptr<serve::InferenceEngine> cjs_engine;
};

Stack build_stack() {
  Stack stack;
  stack.abr = make_adapter<ad::AbrAdapter, ad::AbrAdapterConfig>(kAbrSeed);
  stack.abr_engine = std::make_unique<serve::InferenceEngine>(nullptr, stack.abr, nullptr);
  stack.cjs = make_adapter<ad::CjsAdapter, ad::CjsAdapterConfig>(kCjsSeed);
  stack.cjs_engine = std::make_unique<serve::InferenceEngine>(nullptr, nullptr, stack.cjs);
  return stack;
}

/// Replays recorded ABR sessions on the twin; returns mismatched decisions.
std::uint64_t check_abr(const std::vector<AbrSession>& sessions, Report& report) {
  auto twin = make_adapter<ad::AbrAdapter, ad::AbrAdapterConfig>(kAbrSeed);
  std::uint64_t checked = 0, mismatches = 0;
  std::size_t replayed = 0;
  for (const auto& session : sessions) {
    if (replayed == kAbrCheckSessions) break;
    bool all_primary = !session.empty();
    for (const auto& s : session) all_primary = all_primary && s.answer.primary();
    if (!all_primary) continue;  // the primary's context skipped a step
    ++replayed;
    twin->begin_session();
    for (const auto& s : session) {
      ++checked;
      if (twin->choose_level(s.obs) != s.answer.level) ++mismatches;
      twin->observe_result(s.result, s.qoe);
    }
  }
  report.note("correctness: " + std::to_string(checked) + " ABR decisions in " +
              std::to_string(replayed) + " sessions replayed on the twin, " +
              std::to_string(mismatches) + " mismatches");
  if (checked == 0) report.fail_check("no ABR session could be replayed on the twin");
  if (mismatches > 0) report.fail_check("served ABR decisions differ from the twin's replay");
  return mismatches;
}

/// Replays the first episode's opening decisions on the twin.
std::uint64_t check_cjs(const std::deque<CjsEvent>& events, Report& report) {
  auto twin = make_adapter<ad::CjsAdapter, ad::CjsAdapterConfig>(kCjsSeed);
  std::uint64_t checked = 0, mismatches = 0;
  for (const auto& ev : events) {
    if (ev.kind == CjsEvent::kBegin) {
      if (checked > 0) break;  // only the first episode
      twin->begin_episode();
    } else if (ev.kind == CjsEvent::kReward) {
      twin->observe_reward(ev.reward);
    } else {
      if (checked == kCjsCheckDecisions || !ev.answer.primary()) break;
      const auto a = twin->choose(ev.obs);
      ++checked;
      if (a.runnable_index != ev.answer.action.runnable_index ||
          a.cap_choice != ev.answer.action.cap_choice) {
        ++mismatches;
      }
    }
  }
  report.note("correctness: " + std::to_string(checked) +
              " CJS decisions replayed on the twin from the episode start, " +
              std::to_string(mismatches) + " mismatches");
  if (checked == 0) report.fail_check("no CJS decision could be replayed on the twin");
  if (mismatches > 0) report.fail_check("served CJS decisions differ from the twin's replay");
  return mismatches;
}

}  // namespace

void run_dt_sessions(const Options& opts, Report& report) {
  configure_lanes(kLanes, kClients, report);
  if (opts.setup_probe) return time_setup(report, build_stack);
  auto stack = build_stack();
  fingerprint(report, "f32", kClients);
  auto& abr_engine = *stack.abr_engine;
  const auto video = abr::VideoModel::envivio(derive_seed(opts.seed, 40));
  const auto traces = abr::generate_traces(abr::TracePreset::kFcc, kAbrTraces,
                                           derive_seed(opts.seed, 41));
  // Short episodes (20 jobs at the default-test load), so a run averages
  // over several episodes' DAG sizes instead of riding one episode's queue.
  auto workload = cjs::cjs_default_test();
  workload.num_job_requests = kCjsJobRequests;

  std::vector<AbrSession> sessions;
  sessions.reserve(4096);
  std::deque<CjsEvent> cjs_events;
  std::vector<double> abr_drains, cjs_drains;
  double abr_sim_s = 0.0, cjs_sim_s = 0.0;
  int episodes = 0;
  std::exception_ptr abr_error, cjs_error;

  std::uint64_t allocs_before = 0;
  if (opts.trace) {
    start_trace_window();
    allocs_before = alloc::total();
  }
  const auto run_t0 = Clock::now();
  const auto end = run_t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(opts.seconds));
  std::thread abr_client([&] {
    try {
      const abr::QoeWeights weights;
      for (std::size_t t = 0; Clock::now() < end; ++t) {
        abr::StreamingSession sim(video, traces[t % traces.size()]);
        abr_engine.begin_abr_session();
        auto& session = sessions.emplace_back();
        int prev_level = -1;
        while (!sim.done() && Clock::now() < end) {
          auto& step = session.emplace_back();
          step.obs = sim.observe();
          step.index_in_session = static_cast<int>(session.size());
          step.answer.submit_s = step.answer.due_s = seconds_since(run_t0);
          const auto ticket = abr_engine.submit(serve::AbrRequest{step.obs});
          abr_drains.push_back(static_cast<double>(abr_engine.run().requests));
          const auto& r = abr_engine.abr_response(ticket);
          step.answer.record(r.meta);
          step.answer.level = r.level;
          const int level = r.level;
          step.answer.valid = level >= 0 && level < step.obs.num_levels;
          if (!step.answer.valid) throw std::runtime_error("engine returned an invalid ABR level");
          const auto sim_t0 = Clock::now();
          step.result = sim.step(level);
          const double prev_kbps = video.bitrate_kbps(prev_level < 0 ? level : prev_level);
          step.qoe = abr::qoe_chunk(weights, video.bitrate_kbps(level), prev_kbps,
                                    step.result.rebuffer_s);
          abr_sim_s += seconds_since(sim_t0);
          abr_engine.observe_abr_result(step.result, step.qoe);
          prev_level = level;
          if (sessions.size() > kAbrKeepSessions) step.obs = {};
        }
      }
    } catch (...) {
      abr_error = std::current_exception();
    }
  });
  std::thread cjs_client([&] {
    EngineScheduler policy(*stack.cjs_engine, cjs_events, cjs_drains, run_t0, end);
    try {
      while (Clock::now() < end) {
        workload.seed = derive_seed(opts.seed, 50 + static_cast<std::uint64_t>(episodes));
        ++episodes;
        cjs::run_workload(workload, policy);
      }
    } catch (const TimeUp&) {
    } catch (...) {
      cjs_error = std::current_exception();
    }
    cjs_sim_s = policy.sim_s();
  });
  abr_client.join();
  cjs_client.join();
  const double wall_s = seconds_since(run_t0);
  const std::uint64_t allocs = opts.trace ? alloc::total() - allocs_before : 0;
  std::unique_ptr<Registry> reg;
  if (opts.trace) reg = std::make_unique<Registry>();
  if (abr_error) std::rethrow_exception(abr_error);
  if (cjs_error) std::rethrow_exception(cjs_error);
  report.set("peak_rss_mb", peak_rss_mb(), "MB");

  // Tally both tasks, pooled and in kBlocks blocks by submit time.
  Tally all;
  std::vector<Tally> blocks(kBlocks);
  for (auto& b : blocks) b.wall_s = opts.seconds / kBlocks;
  std::uint64_t abr_primary = 0, cjs_primary = 0;
  std::vector<double> abr_ms, cjs_ms;
  double rows = 0.0;
  LedgerInputs in;
  const auto tally = [&](const Answer& a, std::vector<double>& task_ms, std::uint64_t& primary,
                         double window_rows) {
    all.add(a, kDeadlineMs);
    blocks[std::min<std::size_t>(kBlocks - 1,
                                 static_cast<std::size_t>(a.submit_s / opts.seconds * kBlocks))]
        .add(a, kDeadlineMs);
    in.admission_ms.push_back(a.admission_ms);
    if (!a.primary()) return;
    ++primary;
    rows += window_rows;
    in.compute_ms.push_back(a.latency_ms - a.policy_wait_ms);
    in.policy_wait_ms.push_back(a.policy_wait_ms);
    if (a.valid) task_ms.push_back(a.e2e_ms());
  };
  // Window rows per decision follow the adapters' token layouts: 6 tokens
  // per ABR step over a 10-step window, 5 per CJS step over 20, minus the
  // open action tokens of the step being decided.
  const ad::AbrAdapterConfig abr_cfg;
  const ad::CjsAdapterConfig cjs_cfg;
  std::size_t abr_sessions = 0;
  for (const auto& session : sessions) {
    abr_sessions += session.empty() ? 0 : 1;
    for (const auto& s : session) {
      tally(s.answer, abr_ms, abr_primary,
            6.0 * std::min(s.index_in_session, abr_cfg.context_window) - 1.0);
    }
  }
  for (const auto& ev : cjs_events) {
    if (ev.kind != CjsEvent::kChoose) continue;
    tally(ev.answer, cjs_ms, cjs_primary,
          5.0 * std::min(ev.index_in_episode, cjs_cfg.context_window) - 1.0);
  }
  report.note(all.summary("closed loop: " + std::to_string(abr_sessions) + " ABR sessions, " +
                          std::to_string(episodes) + " CJS episodes"));
  report.note(fmt_pct("p50_ms pooled", percentile(all.e2e_ms, 50.0), "ms"));
  report.note(fmt_pct("p99_ms pooled", percentile(all.e2e_ms, 99.0), "ms"));
  report.note(fmt_pct("abr.p50_ms", percentile(abr_ms, 50.0), "ms"));
  report.note(fmt_pct("abr.p99_ms", percentile(abr_ms, 99.0), "ms"));
  report.note(fmt_pct("cjs.p50_ms", percentile(cjs_ms, 50.0), "ms"));
  report.note(fmt_pct("cjs.p99_ms", percentile(cjs_ms, 99.0), "ms"));
  report_blocks(report, blocks, blocks);
  const std::uint64_t n = all.n, invalid = all.invalid;
  report.attempted = n;
  report.failed = invalid;
  report.failed += check_abr(sessions, report);
  report.failed += check_cjs(cjs_events, report);

  if (opts.trace) {
    const std::uint64_t primary = abr_primary + cjs_primary;
    check_count(report, "serve.abr.llm_ok", reg->counter("serve.abr.llm_ok"), abr_primary);
    check_count(report, "serve.cjs.llm_ok", reg->counter("serve.cjs.llm_ok"), cjs_primary);
    check_count(report, "trace.prefill.count", reg->counter("trace.prefill.count"), primary);
    check_count(report, "trace.encode.count", reg->counter("trace.encode.count"), primary);
    check_count(report, "trace.head.count", reg->counter("trace.head.count"), primary);
    check_count(report, "trace.sched.step.count", reg->counter("trace.sched.step.count"), n);
    in.decisions = primary;
    in.wall_s = wall_s;
    in.drain_sizes = abr_drains;
    in.drain_sizes.insert(in.drain_sizes.end(), cjs_drains.begin(), cjs_drains.end());
    in.allocations = allocs;
    in.client_busy_share = (abr_sim_s + cjs_sim_s) / (kClients * wall_s);
    in.rows_per_decision = primary > 0 ? rows / static_cast<double>(primary) : 0.0;

    // Isolated replay on a twin backbone: the ABR (60-row) and CJS (100-row)
    // windows, and a VP-shaped prefill + steps for comparison.
    auto twin = make_adapter<ad::AbrAdapter, ad::AbrAdapterConfig>(kAbrSeed);
    const auto& gpt = twin->llm();
    netllm::core::Rng rng(5);
    const auto d = gpt.config().d_model;
    const auto w60 = Tensor::randn({60, d}, rng, 1.0f);
    const auto w100 = Tensor::randn({100, d}, rng, 1.0f);
    const auto row = Tensor::randn({1, d}, rng, 1.0f);
    const double ms60 = median_ms(20, [&] { gpt.forward_embeddings(w60); });
    in.window_isolated_ms = median_ms(20, [&] { gpt.forward_embeddings(w100); });
    auto st = gpt.make_decode_state();
    gpt.prefill_embeddings(Tensor::randn({11, d}, rng, 1.0f), st.layers);
    in.step_isolated_ms = median_ms(19, [&] { gpt.embeddings_step(row, st.layers); });
    report.note("isolated forward_embeddings: 60 rows " + std::to_string(ms60) + " ms, 100 rows " +
                std::to_string(in.window_isolated_ms) + " ms");
    const auto& probe = sessions.front().front().obs;
    twin->begin_session();
    in.trace_overhead_ratio = trace_overhead(10, [&] { twin->choose_level(probe); });
    ledger(report, *reg, in);
  }
}

}  // namespace perfbench
