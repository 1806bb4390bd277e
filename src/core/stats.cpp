#include "core/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace netllm::core {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

double minimum(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("minimum: empty input");
  return *std::min_element(xs.begin(), xs.end());
}

double maximum(std::span<const double> xs) {
  if (xs.empty()) throw std::invalid_argument("maximum: empty input");
  return *std::max_element(xs.begin(), xs.end());
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile: empty input");
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: p out of range");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = static_cast<std::size_t>(std::ceil(pos));
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

BoxSummary box_summary(std::span<const double> xs) {
  BoxSummary b;
  if (xs.empty()) return b;
  b.min = minimum(xs);
  b.q1 = percentile(xs, 25.0);
  b.median = percentile(xs, 50.0);
  b.q3 = percentile(xs, 75.0);
  b.max = maximum(xs);
  b.avg = mean(xs);
  return b;
}

std::vector<std::pair<double, double>> cdf_points(std::span<const double> xs) {
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::pair<double, double>> pts;
  pts.reserve(sorted.size());
  const auto n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    pts.emplace_back(sorted[i], static_cast<double>(i + 1) / n);
  }
  return pts;
}

std::vector<double> min_max_normalise(std::span<const double> xs) {
  std::vector<double> out(xs.size(), 0.0);
  if (xs.empty()) return out;
  const double lo = minimum(xs);
  const double hi = maximum(xs);
  if (hi - lo < 1e-12) return out;
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = (xs[i] - lo) / (hi - lo);
  return out;
}

double improvement_pct(double ours, double theirs) {
  const double denom = std::abs(theirs) > 1e-12 ? std::abs(theirs) : 1e-12;
  return 100.0 * (ours - theirs) / denom;
}

double reduction_pct(double ours, double theirs) {
  const double denom = std::abs(theirs) > 1e-12 ? std::abs(theirs) : 1e-12;
  return 100.0 * (theirs - ours) / denom;
}

}  // namespace netllm::core
