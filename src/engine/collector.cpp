#include "engine/collector.hpp"

#include <algorithm>
#include <cmath>

#include "engine/experiment.hpp"

namespace rsb {

namespace {

/// Wilson score interval center and half-width for `successes` out of `n`
/// at critical value z. Exact at the edge cases the sweeps produce: the
/// interval never leaves [0, 1] and has nonzero width at p = 0 and p = 1,
/// unlike the normal approximation.
struct Wilson {
  double center = 0.5;
  double half = 0.5;
};

Wilson wilson(std::uint64_t n, std::uint64_t successes, double z) {
  if (n == 0) return {};  // total ignorance: all of [0, 1]
  const double nn = static_cast<double>(n);
  const double p = static_cast<double>(successes) / nn;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / nn;
  Wilson out;
  out.center = (p + z2 / (2.0 * nn)) / denom;
  out.half =
      (z / denom) * std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn));
  return out;
}

}  // namespace

SuccessEstimate success_estimate(const RunStats& stats) {
  return SuccessEstimate{
      stats.runs, stats.task_checked ? stats.task_successes : stats.terminated};
}

double SuccessEstimate::point_estimate() const {
  if (n == 0) return 0.5;
  return static_cast<double>(successes) / static_cast<double>(n);
}

double SuccessEstimate::half_width(double z) const {
  return wilson(n, successes, z).half;
}

double SuccessEstimate::ci_lo(double z) const {
  const Wilson w = wilson(n, successes, z);
  return std::max(0.0, w.center - w.half);
}

double SuccessEstimate::ci_hi(double z) const {
  const Wilson w = wilson(n, successes, z);
  return std::min(1.0, w.center + w.half);
}

}  // namespace rsb
