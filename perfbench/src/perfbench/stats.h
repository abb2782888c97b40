// Sample statistics and open-loop accounting for the benchmark.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/clock.h"

namespace perfbench {

// Nearest-rank percentile: the smallest sample such that at least p% of the
// samples are <= it (rank ceil(p/100 * n), 1-based). `p` in (0, 100].
// Returns 0 for an empty sample. Reorders `samples`.
double NearestRank(std::vector<double>& samples, double p);

// Median by nearest rank (the 50th percentile). Reorders `samples`.
double Median(std::vector<double>& samples);

// Samples strictly above the nearest-rank position of percentile `p`.
std::size_t SamplesBeyond(std::size_t n, double p);

// A percentile is supported when at least ten samples lie beyond it; the
// benchmark warns on stderr when a percentile it reports is not.
inline constexpr std::size_t kMinSamplesBeyond = 10;
bool PercentileSupported(std::size_t n, double p);

// Open-loop accounting. Each operation has a due time from the schedule; the
// generator starts it at max(due, previous end). Latency is charged from the
// due time, so a stall is charged to every operation that was due while it
// lasted, not only to the stalled one.
struct OpenLoopSample {
  dio::Nanos latency = 0;  // end - due
  dio::Nanos late = 0;     // start - due (how late the generator ran)
};

// Runs `due.size()` operations against `clock` in schedule order: waits
// (clock->SleepFor) until each is due, then calls issue(i). Returns one
// sample per operation.
std::vector<OpenLoopSample> RunOpenLoop(
    const std::vector<dio::Nanos>& due, dio::Clock* clock,
    const std::function<void(std::size_t)>& issue);

}  // namespace perfbench
