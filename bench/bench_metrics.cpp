// Observability overhead (DESIGN.md §11): cost of a counter bump, a
// histogram record and a trace span with metrics enabled vs disabled, plus
// the end-to-end serving check — batched VP p50/p99 with the metrics layer
// on vs off must agree within noise (the acceptance bar is 5%). Emits
// BENCH_metrics.json (argv[1]) and drops a full registry export to
// metrics.json (argv[2]) so run_benches.sh archives the per-phase trace
// histograms alongside the BENCH files. The registry is reset after the
// hot-path microbench, and the bench exits non-zero unless the exported
// `trace.encode` count equals the encodes the metrics-on sweep issued.
#include <array>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"
#include "core/timer.hpp"
#include "core/trace.hpp"
#include "llm/minigpt.hpp"
#include "llm/tokenizer.hpp"
#include "netllm/api.hpp"
#include "support/bench_common.hpp"

namespace ad = netllm::adapt;
namespace nm = netllm::core::metrics;
namespace nt = netllm::core::trace;
namespace vp = netllm::vp;
using netllm::core::Rng;
using netllm::core::Table;
using netllm::core::Timer;
using netllm::core::percentile;
using netllm::core::print_banner;

namespace {

double ns_per_op(std::int64_t iters, double elapsed_ms) {
  return elapsed_ms * 1e6 / static_cast<double>(iters);
}

constexpr int kHorizon = 4;

struct ServeRow {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double requests_per_s = 0.0;
  std::int64_t primary_answers = 0;  // each encoded the prompt + horizon-1 steps
};

ServeRow serve_sweep(bool metrics_on) {
  nm::set_enabled(metrics_on);
  netllm::llm::MiniGptConfig cfg;
  cfg.vocab = netllm::llm::Tokenizer().vocab_size();
  cfg.max_seq = 112;
  Rng rng(7);
  auto llm = std::make_shared<netllm::llm::MiniGpt>(cfg, rng);
  ad::VpAdapterConfig vp_cfg;
  vp_cfg.lora_rank = 2;
  Rng arng(11);
  auto adapter = std::make_shared<ad::VpAdapter>(llm, vp_cfg, arng);
  auto setting = vp::vp_default_train();
  setting.num_traces = 2;
  const auto samples = vp::build_dataset(setting, 8);

  auto engine = ad::api::Serve(adapter);
  constexpr int kBatch = 8, kIters = 4;
  std::vector<double> per_request_ms;
  std::size_t requests = 0;
  ServeRow row;
  Timer total;
  for (int it = 0; it < kIters; ++it) {
    for (int b = 0; b < kBatch; ++b) {
      const auto& s = samples[static_cast<std::size_t>((it * kBatch + b) % samples.size())];
      engine->submit(netllm::serve::VpRequest{s.history, s.saliency, kHorizon});
    }
    const auto report = engine->run();
    requests += report.requests;
    for (const auto& resp : engine->vp_responses()) {
      per_request_ms.push_back(resp.meta.latency_ms);
      const auto src = resp.meta.source;
      if (src == netllm::serve::Source::kLlm || src == netllm::serve::Source::kRetried) {
        ++row.primary_answers;
      }
    }
  }
  row.p50_ms = percentile(per_request_ms, 50.0);
  row.p99_ms = percentile(per_request_ms, 99.0);
  row.requests_per_s = static_cast<double>(requests) / std::max(total.elapsed_s(), 1e-9);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_metrics.json";
  const std::string registry_path = argc > 2 ? argv[2] : "metrics.json";
  std::cout << "Observability overhead (metrics/trace layer on vs off)\n";

  // ---- hot-path micro costs ----
  auto& c = nm::counter("bench.metrics.counter");
  auto& h = nm::histogram("bench.metrics.hist");
  constexpr std::int64_t kBumps = 20'000'000;
  constexpr std::int64_t kRecords = 5'000'000;
  constexpr std::int64_t kSpans = 5'000'000;

  auto measure = [&](bool on) {
    nm::set_enabled(on);
    Timer tb;
    for (std::int64_t i = 0; i < kBumps; ++i) c.add();
    const double bump_ns = ns_per_op(kBumps, tb.elapsed_ms());
    Timer th;
    for (std::int64_t i = 0; i < kRecords; ++i) h.record(0.5);
    const double record_ns = ns_per_op(kRecords, th.elapsed_ms());
    Timer ts;
    for (std::int64_t i = 0; i < kSpans; ++i) {
      nt::Span span(nt::Phase::kEncode);
    }
    const double span_ns = ns_per_op(kSpans, ts.elapsed_ms());
    return std::array<double, 3>{bump_ns, record_ns, span_ns};
  };
  const auto on_costs = measure(true);
  const auto off_costs = measure(false);
  nm::set_enabled(true);
  // The span loop above recorded into the real `encode` phase: drop it so
  // the exported registry describes the serve sweep alone.
  nm::reset();

  print_banner(std::cout, "hot-path cost (ns/op)");
  Table micro({"op", "enabled ns", "disabled ns"});
  micro.add_row({"counter.add", Table::num(on_costs[0], 2), Table::num(off_costs[0], 2)});
  micro.add_row({"histogram.record", Table::num(on_costs[1], 2), Table::num(off_costs[1], 2)});
  micro.add_row({"trace.span", Table::num(on_costs[2], 2), Table::num(off_costs[2], 2)});
  micro.print(std::cout);

  // ---- end-to-end serving overhead ----
  // Off first, then on: any warm-up penalty (allocator, page faults) lands
  // on the off row, biasing AGAINST the metrics build — the conservative
  // direction for the <= 5% acceptance bar.
  const ServeRow off = serve_sweep(false);
  const ServeRow on = serve_sweep(true);
  nm::set_enabled(true);
  const double p50_ratio = on.p50_ms / std::max(off.p50_ms, 1e-9);
  const double p99_ratio = on.p99_ms / std::max(off.p99_ms, 1e-9);

  print_banner(std::cout, "batched VP serving, metrics on vs off (32 requests each)");
  Table st({"metrics", "requests/s", "p50 ms", "p99 ms"});
  st.add_row({"off", Table::num(off.requests_per_s, 1), Table::num(off.p50_ms, 3),
              Table::num(off.p99_ms, 3)});
  st.add_row({"on", Table::num(on.requests_per_s, 1), Table::num(on.p50_ms, 3),
              Table::num(on.p99_ms, 3)});
  st.print(std::cout);
  std::cout << "p50 on/off ratio: " << Table::num(p50_ratio, 3)
            << "   p99 on/off ratio: " << Table::num(p99_ratio, 3) << "\n";
  if (p50_ratio > 1.05) {
    std::cerr << "[bench] WARNING: metrics-on p50 " << Table::num(p50_ratio, 3)
              << "x exceeds the 1.05x overhead bar\n";
  }
  const auto encodes = nm::histogram("trace.encode").count();
  if (encodes != on.primary_answers * kHorizon) {
    std::cerr << "[bench] ERROR: exported trace.encode.count " << encodes << " != "
              << on.primary_answers * kHorizon << " encodes issued by the metrics-on sweep\n";
    return 1;
  }

  // ---- JSON export ----
  std::ofstream json(out_path);
  json << "{\n  \"hot_path_ns\": {\n"
       << "    \"counter_add_enabled\": " << on_costs[0]
       << ",\n    \"counter_add_disabled\": " << off_costs[0]
       << ",\n    \"histogram_record_enabled\": " << on_costs[1]
       << ",\n    \"histogram_record_disabled\": " << off_costs[1]
       << ",\n    \"span_enabled\": " << on_costs[2]
       << ",\n    \"span_disabled\": " << off_costs[2] << "\n  },\n"
       << "  \"serve\": {\n"
       << "    \"off\": {\"requests_per_s\": " << off.requests_per_s
       << ", \"p50_ms\": " << off.p50_ms << ", \"p99_ms\": " << off.p99_ms << "},\n"
       << "    \"on\": {\"requests_per_s\": " << on.requests_per_s << ", \"p50_ms\": " << on.p50_ms
       << ", \"p99_ms\": " << on.p99_ms << "},\n"
       << "    \"p50_on_off_ratio\": " << p50_ratio << ",\n    \"p99_on_off_ratio\": " << p99_ratio
       << "\n  }\n}\n";
  std::cout << "wrote " << out_path << "\n";

  // Full registry dump (trace.* phase histograms, serve.* task metrics,
  // kernels.* counters) for the archive next to the BENCH files.
  nm::write_json(registry_path);
  std::cout << "wrote " << registry_path << "\n";
  return 0;
}
