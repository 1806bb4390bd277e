// serve_bench: end-to-end serving benchmark of the NetLLM stack.
//
//   serve_bench --workload vp_crowd|vp_wide|dt_sessions --seed N --seconds S --trace 0|1
//   serve_bench --workload vp_crowd|vp_wide|dt_sessions --setup
//   serve_bench --selftest
//
// --setup only times the workload's set-up (setup_s). Prints information
// lines, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}
// Exits 1 when the correctness check fails and 2 on a usage or run error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "core/metrics.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "serve_bench: %s\nusage: serve_bench --workload vp_crowd|vp_wide|dt_sessions "
               "--seed N --seconds S --trace 0|1\n       serve_bench --workload NAME --setup\n"
               "       serve_bench --selftest\n",
               why);
  std::exit(2);
}

void print_json(const perfbench::Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return perfbench::selftest() == 0 ? 0 : 1;
    if (arg == "--setup") {
      opts.setup_probe = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = val;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && opts.seconds > 0.0 &&
                     opts.seconds <= 600.0;
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") usage("--trace takes 0 or 1");
      opts.trace = val == "1";
      have_trace = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!opts.setup_probe && (!have_seed || !have_seconds || !have_trace)) usage("--seed, --seconds and --trace are required");

  // End-to-end figures are measured with the registry off; the traced run
  // turns it on for its measured window only.
  netllm::core::metrics::set_enabled(false);
  perfbench::Report report;
  try {
    if (opts.workload == "vp_crowd") {
      perfbench::run_vp_crowd(opts, report);
    } else if (opts.workload == "vp_wide") {
      perfbench::run_vp_wide(opts, report);
    } else if (opts.workload == "dt_sessions") {
      perfbench::run_dt_sessions(opts, report);
    } else {
      usage(("unknown workload '" + opts.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_bench: %s\n", e.what());
    return 2;
  }
  for (auto& [name, m] : report.metrics) {
    if (!std::isfinite(m.value)) {
      report.fail_check("metric " + name + " is not finite");
      m.value = 0.0;  // keep the result line valid JSON
    }
  }
  for (const auto& line : report.info) std::printf("# %s\n", line.c_str());
  for (const auto& [name, m] : report.metrics) {
    std::printf("# %-36s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  print_json(report);
  return report.correct ? 0 : 1;
}
