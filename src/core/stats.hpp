// Small descriptive-statistics helpers used by the evaluation harness:
// means, percentiles, CDF sampling, five-number box summaries and min-max
// normalisation (the paper normalises QoE factor breakdowns via min-max).
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace netllm::core {

double mean(std::span<const double> xs);
double stddev(std::span<const double> xs);  // sample std-dev (n-1); 0 if n < 2
double minimum(std::span<const double> xs);
double maximum(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0, 100]. Requires non-empty input.
double percentile(std::span<const double> xs, double p);

/// Five-number summary used for the paper's box plots (Fig. 11).
struct BoxSummary {
  double min = 0, q1 = 0, median = 0, q3 = 0, max = 0, avg = 0;
};
BoxSummary box_summary(std::span<const double> xs);

/// (value, cumulative fraction) pairs for CDF plots (Fig. 10), sampled at
/// every data point, sorted ascending.
std::vector<std::pair<double, double>> cdf_points(std::span<const double> xs);

/// Min-max normalise into [0, 1]; constant input maps to all zeros.
std::vector<double> min_max_normalise(std::span<const double> xs);

/// Relative improvement of `ours` over `theirs` for a higher-is-better
/// metric, in percent: 100 * (ours - theirs) / |theirs|.
double improvement_pct(double ours, double theirs);
/// Relative reduction achieved by `ours` vs `theirs` for a lower-is-better
/// metric, in percent: 100 * (theirs - ours) / |theirs|.
double reduction_pct(double ours, double theirs);

}  // namespace netllm::core
