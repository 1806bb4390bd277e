// VP workloads: `vp_crowd` (open loop, d64 f32) and `vp_wide` (backlog,
// d512 q8_0). Both serve the real VpAdapter through the engine, so the
// engine attaches its KV arena (prefix cache) and applies backbone_dtype.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <thread>

#include "core/rng.hpp"
#include "llm/minigpt.hpp"
#include "llm/tokenizer.hpp"
#include "llm/zoo.hpp"
#include "netllm/vp_adapter.hpp"
#include "nn/kv_arena.hpp"
#include "tensor/quants.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace ad = netllm::adapt;
namespace serve = netllm::serve;
namespace vp = netllm::vp;
namespace llm = netllm::llm;
using netllm::tensor::Tensor;

namespace {

constexpr int kHorizon = 20;           // the paper's default pw = 4 s at 5 Hz
constexpr std::uint64_t kModelSeed = 7;
constexpr std::uint64_t kAdapterSeed = 11;
constexpr std::size_t kCheckSamples = 16;  // served answers re-derived on the twin

// vp_crowd. The rates are fixed, not derived from a measured capacity, so a
// faster program shows as lower latency at the same nominal rate and as more
// goodput under the same overload. On the 4-core reference host the seed
// serves about 350-450 req/s at 3 lanes. Nominal is about a quarter of
// that: at half, queueing amplified the host's own speed swings until the
// latency spread between runs exceeded any usable bound. Overload is about
// 4x capacity, so a 3x faster program is still overloaded.
//
// The hot share and the 70/30 time split have no traffic data behind them.
// The repository ships no viewer-arrival or prompt-repeat trace, and a hot
// request repeats a whole prompt (image plus history) byte for byte, which
// real viewers of one video rarely do. The share is an arbitrary probe that
// keeps the KV-arena prefix cache in the served path; every run prints the
// prefix-hit ratio it produced next to it. The split gives the nominal
// phase, whose latency percentiles need samples, most of the time.
constexpr int kCrowdLanes = 3;
constexpr double kNominalRate = 100.0;
constexpr double kOverloadRate = 1600.0;
constexpr double kWarmupS = 0.5;
constexpr double kNominalShare = 0.7;  // of --seconds; the rest is overload
constexpr double kHotShare = 0.25;     // requests repeating one of the hot prompts
constexpr std::uint32_t kHotPrompts = 4;
constexpr std::size_t kMaxQueue = 32;

// vp_wide: waves of unique prompts, 8 per lane, each due when submitted.
constexpr int kWideLanes = 3;
constexpr int kWavePerLane = 8;
constexpr double kWaveDeadlineMs = 1000.0;

llm::MiniGptConfig d64_config() { return llm::zoo_entry("llama2-lite").cfg; }

llm::MiniGptConfig d512_config() {
  llm::MiniGptConfig cfg;
  cfg.name = "bench-512";
  cfg.vocab = llm::Tokenizer().vocab_size();
  cfg.d_model = 512;
  cfg.n_heads = 8;
  cfg.n_layers = 4;
  cfg.d_ff = 1280;
  cfg.max_seq = 64;
  return cfg;
}

/// Seeded random weights: the backbone shape, not its training, sets the
/// serving cost, and fixed seeds make the twin bitwise the served model.
std::shared_ptr<ad::VpAdapter> make_adapter(const llm::MiniGptConfig& cfg) {
  netllm::core::Rng mrng(kModelSeed);
  auto gpt = std::make_shared<llm::MiniGpt>(cfg, mrng);
  netllm::core::Rng arng(kAdapterSeed);
  return std::make_shared<ad::VpAdapter>(std::move(gpt), ad::VpAdapterConfig{}, arng);
}

struct VpStack {
  std::shared_ptr<ad::VpAdapter> adapter;
  std::unique_ptr<serve::InferenceEngine> engine;
};

VpStack build_stack(const llm::MiniGptConfig& cfg, const serve::EngineConfig& ecfg) {
  auto adapter = make_adapter(cfg);
  auto engine = std::make_unique<serve::InferenceEngine>(adapter, nullptr, nullptr, ecfg);
  return VpStack{std::move(adapter), std::move(engine)};
}

/// Served answers kept for the correctness check, with their requests.
struct Sampled {
  serve::VpRequest req;
  const Answer* answer = nullptr;
};

/// Re-derives sampled primary answers with `predict` on a twin adapter built
/// from the same seeds; any bitwise difference fails the run.
std::uint64_t check_against_twin(ad::VpAdapter& twin, const std::vector<Sampled>& sampled,
                                 Report& report) {
  std::uint64_t mismatches = 0, checked = 0;
  for (const auto& s : sampled) {
    if (!s.answer->primary() || !s.answer->valid) continue;
    const auto want = twin.predict(s.req.history, s.req.saliency, s.req.horizon);
    const auto& got = s.answer->viewports;
    ++checked;
    if (want.size() != got.size() ||
        std::memcmp(want.data(), got.data(), want.size() * sizeof(vp::Viewport)) != 0) {
      ++mismatches;
    }
  }
  report.note("correctness: " + std::to_string(checked) + " served VP answers re-derived on the twin, " +
              std::to_string(mismatches) + " mismatches");
  if (checked == 0) report.fail_check("no primary VP answer was sampled for the twin check");
  if (mismatches > 0) report.fail_check("served VP answers differ from the twin's predict()");
  return mismatches;
}

/// Isolated replay of the backbone at the VP shapes: one prefill of the
/// prompt, then horizon-1 single-row steps, on the twin's backbone.
void isolated_vp(const llm::MiniGpt& gpt, std::int64_t prompt_len, int reps, LedgerInputs& in,
                 Report& report) {
  netllm::core::Rng rng(5);
  const auto d = gpt.config().d_model;
  const auto prompt = Tensor::randn({prompt_len, d}, rng, 1.0f);
  const auto row = Tensor::randn({1, d}, rng, 1.0f);
  std::vector<double> window_ms, step_ms;
  for (int r = 0; r < reps; ++r) {
    auto st = gpt.make_decode_state();
    auto t0 = Clock::now();
    gpt.prefill_embeddings(prompt, st.layers);
    window_ms.push_back(seconds_since(t0) * 1e3);
    for (int k = 0; k + 1 < kHorizon; ++k) {
      t0 = Clock::now();
      gpt.embeddings_step(row, st.layers);
      step_ms.push_back(seconds_since(t0) * 1e3);
    }
  }
  in.window_isolated_ms = percentile(window_ms, 50.0).value;
  in.step_isolated_ms = percentile(step_ms, 50.0).value;
  report.note(fmt_pct("isolated prefill_embeddings T=" + std::to_string(prompt_len),
                      percentile(window_ms, 50.0), "ms"));
  report.note(fmt_pct("isolated embeddings_step", percentile(step_ms, 50.0), "ms"));
}

/// Registry cross-checks: the program's own counts must match what the
/// benchmark saw, so stale or foreign samples cannot leak into the ledger.
void cross_check_vp(const Registry& reg, std::uint64_t primary, std::uint64_t answered,
                    Report& report) {
  const auto hits = reg.counter("kv.prefix.hits");
  const auto misses = reg.counter("kv.prefix.misses");
  check_count(report, "serve.vp.llm_ok", reg.counter("serve.vp.llm_ok"), primary);
  check_count(report, "kv.prefix.hits+misses", hits + misses, primary);
  check_count(report, "trace.prefill.count", reg.counter("trace.prefill.count"),
              static_cast<std::uint64_t>(misses));
  check_count(report, "trace.decode_step.count", reg.counter("trace.decode_step.count"),
              primary * (kHorizon - 1));
  check_count(report, "trace.sched.step.count", reg.counter("trace.sched.step.count"), answered);
}

/// Rows the backbone processed per primary decision: each prefill covers the
/// whole prompt (1 image token + the history), each step one row.
double vp_rows_per_decision(const Registry& reg, std::uint64_t primary, std::int64_t prompt_len) {
  const double rows = static_cast<double>(reg.counter("trace.prefill.count")) * prompt_len +
                      static_cast<double>(reg.counter("trace.decode_step.count"));
  return primary > 0 ? rows / static_cast<double>(primary) : 0.0;
}

/// Samples the arena's leased plus warm pages through the traced window. It
/// starts before the allocation counter is on, and polling allocates nothing.
std::unique_ptr<PeakSampler> start_page_sampler(const netllm::nn::KvArena* arena) {
  if (!arena) return nullptr;
  return std::make_unique<PeakSampler>([arena] { return static_cast<double>(arena->pages_in_use()); });
}

void add_ledger_answers(const std::vector<Answer>& answers, LedgerInputs& in) {
  for (const auto& a : answers) {
    in.admission_ms.push_back(a.admission_ms);
    if (!a.primary()) continue;  // sheds never reach the model
    in.compute_ms.push_back(a.latency_ms - a.policy_wait_ms);
    in.policy_wait_ms.push_back(a.policy_wait_ms);
  }
}

}  // namespace

std::vector<vp::VpSample> vp_base_samples(std::uint64_t seed) {
  auto setting = vp::vp_default_test();
  setting.seed = derive_seed(seed, 1);
  setting.num_traces = 4;
  return vp::build_dataset(setting, 48);
}

serve::VpRequest vp_request(const std::vector<vp::VpSample>& base, const PromptRef& ref,
                            int horizon) {
  const auto& s = base.at(ref.base);
  serve::VpRequest req{s.history, s.saliency, horizon};
  // A yaw offset of a thousandth of a degree per id changes the prompt's
  // embedding bytes, so the prompt is unique, without changing its shape.
  if (ref.unique != 0) {
    for (auto& v : req.history) v.yaw += 1e-3 * ref.unique;
  }
  return req;
}

void run_vp_crowd(const Options& opts, Report& report) {
  const int lanes = configure_lanes(kCrowdLanes, 1, report);
  serve::EngineConfig ecfg;
  ecfg.max_queue = kMaxQueue;
  ecfg.admission = serve::AdmissionPolicy::kShedOldest;
  ecfg.deadline_ms = kDeadlineMs;
  if (opts.setup_probe) return time_setup(report, [&] { return build_stack(d64_config(), ecfg); });
  auto stack = build_stack(d64_config(), ecfg);
  fingerprint(report, "f32", 1);
  const auto base = vp_base_samples(opts.seed);
  const auto prompt_len = static_cast<std::int64_t>(base.front().history.size()) + 1;

  // A warmup, then kBlocks rounds of (nominal, overload). Every figure is
  // taken per round and reported as the median over rounds, so a burst of
  // outside load on the host spoils one round, not the run.
  struct Phase {
    bool overload = false;
    double secs = 0.0;
    std::vector<double> due;
    std::vector<PromptRef> refs;
    std::vector<Answer> answers;
    std::vector<double> lag_ms;
    double busy_s = 0.0, wall_s = 0.0;
    std::size_t drains_before = 0;
  };
  std::vector<Phase> phases(1 + 2 * kBlocks);
  phases[0].secs = kWarmupS;
  for (int r = 0; r < kBlocks; ++r) {
    phases[1 + 2 * r].secs = opts.seconds * kNominalShare / kBlocks;
    phases[2 + 2 * r].overload = true;
    phases[2 + 2 * r].secs = opts.seconds * (1.0 - kNominalShare) / kBlocks;
  }
  std::vector<Sampled> sampled;
  std::uint32_t next_unique = 1;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    auto& ph = phases[p];
    ph.due = poisson_schedule(derive_seed(opts.seed, 100 + p),
                              ph.overload ? kOverloadRate : kNominalRate, ph.secs);
    ph.refs = prompt_sequence(derive_seed(opts.seed, 200 + p), ph.due.size(), kHotShare,
                              kHotPrompts, static_cast<std::uint32_t>(base.size()), next_unique);
    next_unique += static_cast<std::uint32_t>(ph.refs.size());
    ph.answers.resize(ph.refs.size());
    ph.lag_ms.resize(ph.refs.size());
    // Correctness samples: spread evenly over the nominal phases.
    if (p > 0 && !ph.overload) {
      const std::size_t per_phase = kCheckSamples / kBlocks + 1;
      const std::size_t stride = std::max<std::size_t>(1, ph.refs.size() / per_phase);
      for (std::size_t i = stride / 2; i < ph.refs.size(); i += stride) {
        ph.answers[i].keep_output = true;
        sampled.push_back({vp_request(base, ph.refs[i], kHorizon), &ph.answers[i]});
      }
    }
  }

  Server server(*stack.engine, kHorizon);
  const auto& arena = stack.engine->kv_arena();
  std::unique_ptr<PeakSampler> pages;
  std::uint64_t allocs_before = 0;
  const auto run_t0 = Clock::now();
  Clock::time_point trace_t0;
  for (std::size_t p = 0; p < phases.size(); ++p) {
    auto& ph = phases[p];
    if (p == 1 && opts.trace) {
      pages = start_page_sampler(arena.get());
      start_trace_window();
      allocs_before = alloc::total();
      trace_t0 = Clock::now();
    }
    // Requests are built per phase, outside its timing and the allocation
    // count, so the benchmark's own inputs do not swell peak RSS.
    alloc::set_counting(false);
    std::vector<serve::VpRequest> reqs;
    reqs.reserve(ph.refs.size());
    for (const auto& r : ph.refs) reqs.push_back(vp_request(base, r, kHorizon));
    alloc::set_counting(opts.trace && p >= 1);
    ph.drains_before = server.drain_sizes().size();
    std::exception_ptr gen_error;
    const auto phase_t0 = Clock::now();
    std::thread gen([&] {
      try {
        double slept = 0.0;
        for (std::size_t i = 0; i < ph.due.size(); ++i) {
          const auto due = phase_t0 + std::chrono::duration_cast<Clock::duration>(
                                          std::chrono::duration<double>(ph.due[i]));
          if (Clock::now() < due) {
            const auto s0 = Clock::now();
            std::this_thread::sleep_until(due);
            slept += seconds_since(s0);
          }
          Answer& a = ph.answers[i];
          a.due_s = std::chrono::duration<double>(due - run_t0).count();
          a.submit_s = seconds_since(run_t0);
          ph.lag_ms[i] = (a.submit_s - a.due_s) * 1e3;
          server.submit(std::move(reqs[i]), &a);
        }
        ph.busy_s = seconds_since(phase_t0) - slept;
      } catch (...) {
        gen_error = std::current_exception();
      }
      server.close();
    });
    try {
      server.loop();
    } catch (...) {
      gen.join();
      throw;
    }
    gen.join();
    if (gen_error) std::rethrow_exception(gen_error);
    ph.wall_s = seconds_since(phase_t0);
  }
  const double trace_wall_s = opts.trace ? seconds_since(trace_t0) : 0.0;
  const std::uint64_t allocs = opts.trace ? alloc::total() - allocs_before : 0;
  const double pages_peak = pages ? pages->stop() : 0.0;
  std::unique_ptr<Registry> reg;
  if (opts.trace) reg = std::make_unique<Registry>();
  report.set("peak_rss_mb", peak_rss_mb(), "MB");

  // Per-round blocks, and pooled tallies for the information lines.
  Tally nominal, overload;
  std::vector<Tally> nominal_rounds, overload_rounds;
  std::vector<double> lags;
  for (std::size_t p = 1; p < phases.size(); ++p) {
    const auto& ph = phases[p];
    Tally t;
    t.wall_s = ph.wall_s;
    for (const auto& a : ph.answers) {
      t.add(a, kDeadlineMs);
      (ph.overload ? overload : nominal).add(a, kDeadlineMs);
    }
    (ph.overload ? overload_rounds : nominal_rounds).push_back(std::move(t));
    lags.insert(lags.end(), ph.lag_ms.begin(), ph.lag_ms.end());
  }
  report.note(nominal.summary("nominal @" + std::to_string(static_cast<int>(kNominalRate)) +
                              " req/s, " + std::to_string(kBlocks) + " rounds"));
  report.note(overload.summary("overload @" + std::to_string(static_cast<int>(kOverloadRate)) +
                               " req/s, " + std::to_string(kBlocks) + " rounds"));
  report.note(fmt_pct("nominal p50_ms pooled", percentile(nominal.e2e_ms, 50.0), "ms"));
  report.note(fmt_pct("nominal p99_ms pooled", percentile(nominal.e2e_ms, 99.0), "ms"));
  report_blocks(report, nominal_rounds, overload_rounds);
  const auto lag99 = percentile(lags, 99.0);
  report.note(fmt_pct("generator.lag_ms.p99", lag99, "ms"));
  if (arena) {
    const auto hits = arena->prefix_hits(), lookups = hits + arena->prefix_misses();
    report.note("prefix hits (whole run): " + std::to_string(hits) + " of " +
                std::to_string(lookups) + " lookups, ratio " +
                std::to_string(lookups ? static_cast<double>(hits) / lookups : 0.0) +
                ", hot-prompt share " + std::to_string(kHotShare) + ", " + std::to_string(lanes) +
                " lanes");
  }
  report.attempted = nominal.n + overload.n;
  report.failed = nominal.invalid + overload.invalid;

  // Correctness, then (traced run) the per-layer ledger.
  auto twin = make_adapter(d64_config());
  report.failed += check_against_twin(*twin, sampled, report);
  if (opts.trace) {
    const std::uint64_t primary = nominal.primary + overload.primary;
    cross_check_vp(*reg, primary, nominal.n + overload.n, report);
    LedgerInputs in;
    in.decisions = primary;
    in.wall_s = trace_wall_s;
    double busy = 0.0, wall = 0.0;
    for (std::size_t p = 1; p < phases.size(); ++p) {
      add_ledger_answers(phases[p].answers, in);
      busy += phases[p].busy_s;
      wall += phases[p].wall_s;
    }
    const auto& drains = server.drain_sizes();
    in.drain_sizes.assign(drains.begin() + static_cast<std::ptrdiff_t>(phases[1].drains_before),
                          drains.end());
    in.allocations = allocs;
    in.client_busy_share = busy / wall;
    in.generator_lag_p99_ms = lag99.value;
    in.kv_pages_peak = pages_peak;
    in.rows_per_decision = vp_rows_per_decision(*reg, primary, prompt_len);
    isolated_vp(twin->llm(), prompt_len, 20, in, report);
    const auto& probe = base.front();
    in.trace_overhead_ratio =
        trace_overhead(10, [&] { twin->predict(probe.history, probe.saliency, kHorizon); });
    ledger(report, *reg, in);
  }
}

void run_vp_wide(const Options& opts, Report& report) {
  const int lanes = configure_lanes(kWideLanes, 0, report);
  serve::EngineConfig ecfg;
  ecfg.backbone_dtype = netllm::tensor::quant::Dtype::kQ8_0;
  if (opts.setup_probe) return time_setup(report, [&] { return build_stack(d512_config(), ecfg); });
  auto stack = build_stack(d512_config(), ecfg);
  fingerprint(report, "q8_0", 0);
  const auto base = vp_base_samples(opts.seed);
  const auto prompt_len = static_cast<std::int64_t>(base.front().history.size()) + 1;
  const std::size_t wave = static_cast<std::size_t>(kWavePerLane * lanes);
  auto& engine = *stack.engine;
  const auto& arena = engine.kv_arena();

  std::deque<Answer> answers;  // stable addresses for the correctness samples
  std::vector<Sampled> sampled;
  std::vector<double> drains;
  std::unique_ptr<PeakSampler> pages;
  double measured_s = 0.0;
  std::uint32_t next_unique = 1;
  std::uint64_t allocs_before = 0;
  Clock::time_point trace_t0;
  const auto run_t0 = Clock::now();
  Tally tally;
  std::vector<Tally> blocks(kBlocks);
  for (std::uint64_t w = 0;; ++w) {
    const bool warmup = w == 0;
    if (!warmup && measured_s >= opts.seconds) break;
    if (w == 1 && opts.trace) {
      pages = start_page_sampler(arena.get());
      start_trace_window();
      allocs_before = alloc::total();
      trace_t0 = Clock::now();
    }
    // Every prompt is unique: nothing here can hit the prefix cache. The
    // wave's inputs are built outside the allocation count.
    alloc::set_counting(false);
    const auto refs = prompt_sequence(derive_seed(opts.seed, 30 + w), wave, 0.0, 0,
                                      static_cast<std::uint32_t>(base.size()), next_unique);
    next_unique += static_cast<std::uint32_t>(wave);
    std::vector<serve::VpRequest> reqs;
    reqs.reserve(wave);
    for (const auto& r : refs) reqs.push_back(vp_request(base, r, kHorizon));
    const bool sample = !warmup && w % 2 == 1 && sampled.size() < kCheckSamples / 2;
    if (sample) sampled.push_back({reqs.front(), nullptr});
    alloc::set_counting(opts.trace && !warmup);

    const auto wave_t0 = Clock::now();
    std::vector<serve::Ticket> tickets;
    std::vector<double> submit_s;
    tickets.reserve(wave);
    submit_s.reserve(wave);
    for (auto& r : reqs) {
      submit_s.push_back(seconds_since(run_t0));
      tickets.push_back(engine.submit(std::move(r)));
    }
    const auto batch = engine.run();
    const double wave_s = seconds_since(wave_t0);
    if (warmup) continue;
    // Waves fall into kBlocks blocks of equal measured time.
    auto& block = blocks[std::min<std::size_t>(
        kBlocks - 1, static_cast<std::size_t>(measured_s / opts.seconds * kBlocks))];
    block.wall_s += wave_s;
    measured_s += wave_s;
    drains.push_back(static_cast<double>(batch.requests));
    const double due_s = std::chrono::duration<double>(wave_t0 - run_t0).count();
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      const auto& r = engine.vp_response(tickets[i]);
      Answer& a = answers.emplace_back();
      a.record(r.meta);
      a.due_s = due_s;
      a.submit_s = submit_s[i];
      a.valid = valid_rollout(r.viewports, kHorizon);
      if (sample && i == 0) {
        a.viewports = r.viewports;
        sampled.back().answer = &a;
      }
      tally.add(a, kWaveDeadlineMs);
      block.add(a, kWaveDeadlineMs);
    }
  }
  const double trace_wall_s = opts.trace ? seconds_since(trace_t0) : 0.0;
  const std::uint64_t allocs = opts.trace ? alloc::total() - allocs_before : 0;
  const double pages_peak = pages ? pages->stop() : 0.0;
  std::unique_ptr<Registry> reg;
  if (opts.trace) reg = std::make_unique<Registry>();
  report.set("peak_rss_mb", peak_rss_mb(), "MB");

  report.note(tally.summary("backlog waves of " + std::to_string(wave)));
  report.note(fmt_pct("p50_ms pooled", percentile(tally.e2e_ms, 50.0), "ms"));
  report.note(fmt_pct("p99_ms pooled", percentile(tally.e2e_ms, 99.0), "ms"));
  report_blocks(report, blocks, blocks);
  report.note("prefix hits (whole run): " + std::to_string(arena ? arena->prefix_hits() : 0));
  report.attempted = tally.n;
  report.failed = tally.invalid;

  auto twin = make_adapter(d512_config());
  twin->llm_shared()->quantize_backbone(netllm::tensor::quant::Dtype::kQ8_0);
  report.failed += check_against_twin(*twin, sampled, report);
  if (opts.trace) {
    cross_check_vp(*reg, tally.primary, tally.n, report);
    LedgerInputs in;
    in.decisions = tally.primary;
    in.wall_s = trace_wall_s;
    add_ledger_answers({answers.begin(), answers.end()}, in);
    in.drain_sizes = drains;
    in.allocations = allocs;
    in.client_busy_share = 0.0;  // the backlog has no client between waves
    in.kv_pages_peak = pages_peak;
    in.rows_per_decision = vp_rows_per_decision(*reg, tally.primary, prompt_len);
    isolated_vp(twin->llm(), prompt_len, 4, in, report);
    const auto& probe = base.front();
    in.trace_overhead_ratio =
        trace_overhead(4, [&] { twin->predict(probe.history, probe.saliency, kHorizon); });
    ledger(report, *reg, in);
  }
}

}  // namespace perfbench
