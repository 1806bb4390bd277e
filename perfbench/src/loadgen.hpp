// Seeded load generation and the small statistics the benchmark reports.
//
// Everything here is a pure function of its arguments, so the self-test
// (selftest.cpp) can pin that one seed always yields one arrival schedule
// and one prompt sequence, and that another seed yields another.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// A percentile together with the number of samples it was read from, so
/// every printed tail says how many samples lie beyond it.
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;
};

/// `core::percentile` of `xs` (p in [0, 100], linear interpolation) with
/// its sample count; {0, 0} when empty.
Percentile percentile(const std::vector<double>& xs, double p);

/// Poisson arrival times (seconds from phase start) at `rate_per_s` over
/// [0, duration_s), from a private stream seeded by `seed`.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s, double duration_s);

/// Which prompt a VP request carries: a hot prompt (shared by many requests,
/// so the KV-arena prefix cache can serve it) or a unique one.
struct PromptRef {
  std::uint32_t base = 0;    // index into the base sample pool
  std::uint32_t unique = 0;  // 0 = hot prompt; else a per-request perturbation id
};

/// `count` prompt references: with probability `hot_share` one of the first
/// `n_hot` base samples verbatim, else a base sample from [n_hot, n_base)
/// made unique by a fresh perturbation id (ids start at `first_unique`).
std::vector<PromptRef> prompt_sequence(std::uint64_t seed, std::size_t count, double hot_share,
                                       std::uint32_t n_hot, std::uint32_t n_base,
                                       std::uint32_t first_unique);

/// Mixes a run seed with a stream tag so phases and workloads draw from
/// independent streams (splitmix64 finaliser).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag);

}  // namespace perfbench
