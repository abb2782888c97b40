// dio_perfbench: one end-to-end DIO benchmark run.
//
//   dio_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--workdir <dir>] [--tiny]
//
// Prints one JSON object as the last line of stdout: the correctness
// verdict, operations attempted and failed, and the end-to-end metrics
// (--trace 0) or the per-layer metrics of the profiled run (--trace 1).
// Exits 1 when a correctness check fails, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>

#include "perfbench/common.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "dio_perfbench: %s\n"
               "usage: dio_perfbench --workload "
               "burst_walfsync|live_fluentbit|cluster_walfsync|"
               "durable_walfsync --seed N --seconds S --trace 0|1 "
               "[--workdir DIR] [--tiny]\n",
               why);
  return 2;
}

bool ParseUint(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.workdir = ".bench_build/run";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return Usage("missing value");
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--workdir") {
      options.workdir = value;
    } else if (arg == "--seed" && ParseUint(value, &number)) {
      options.seed = number;
    } else if (arg == "--seconds" && ParseUint(value, &number) &&
               number >= 1 && number <= 600) {
      options.seconds = static_cast<int>(number);
    } else if (arg == "--trace" && ParseUint(value, &number) && number <= 1) {
      options.trace = number == 1;
    } else {
      return Usage("bad argument");
    }
  }
  const bool burst = options.workload == "burst_walfsync" ||
                     options.workload == "cluster_walfsync" ||
                     options.workload == "durable_walfsync";
  if (!burst && options.workload != "live_fluentbit") {
    return Usage("unknown workload");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.workdir, ec);
  if (ec) return Usage("cannot create workdir");

  perfbench::PinToDioCpus();
  const perfbench::StealMeter steal;
  perfbench::RunResult result =
      burst ? perfbench::RunBurst(options) : perfbench::RunLive(options);
  std::fprintf(stderr, "perfbench: hypervisor steal %.1f%% of CPU time\n",
               steal.Percent());
  if (options.trace) result.Set("host.steal_pct", steal.Percent(), "%");
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  }
  std::printf("%s\n", result.ToJsonLine().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
