#include "perfbench/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

std::size_t RankOf(std::size_t n, double p) {
  // p / 100 * n is inexact for most p (99.9% of 10000 is 9990.000000000002),
  // so a product within rounding of a whole number counts as that number.
  const double exact = p * static_cast<double>(n) / 100.0;
  const auto rank = static_cast<std::size_t>(std::ceil(exact - 1e-9 * exact));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double NearestRank(std::vector<double>& samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t index = RankOf(samples.size(), p) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double Median(std::vector<double>& samples) {
  return NearestRank(samples, 50.0);
}

std::size_t SamplesBeyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - RankOf(n, p);
}

bool PercentileSupported(std::size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinSamplesBeyond;
}

std::vector<OpenLoopSample> RunOpenLoop(
    const std::vector<dio::Nanos>& due, dio::Clock* clock,
    const std::function<void(std::size_t)>& issue) {
  std::vector<OpenLoopSample> samples;
  samples.reserve(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    const dio::Nanos now = clock->NowNanos();
    if (now < due[i]) clock->SleepFor(due[i] - now);
    const dio::Nanos start = clock->NowNanos();
    issue(i);
    const dio::Nanos end = clock->NowNanos();
    samples.push_back({end - due[i], start - due[i]});
  }
  return samples;
}

}  // namespace perfbench
