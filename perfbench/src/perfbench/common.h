// Pieces shared by the benchmark's workloads: run options and the result
// line, the session deployment (DioService for the unprofiled run, the same
// chain assembled from public constructors with timing decorators for the
// profiled run), the syscall generator, freshness probes, the dashboard
// client, and the correctness checks.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "backend/correlation.h"
#include "backend/query_backend.h"
#include "common/clock.h"
#include "common/config.h"
#include "oskernel/kernel.h"
#include "perfbench/profile.h"
#include "service/dio_service.h"
#include "trace/replay.h"
#include "tracer/tracer.h"
#include "transport/pipeline.h"

namespace perfbench {

using dio::Nanos;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;  // false: end-to-end metrics; true: per-layer metrics
  bool tiny = false;   // small sizes for the benchmark's own tests
  std::string workdir;  // run files (spools, span dumps)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one run prints: the correctness verdict, the operation ledger, the
// metrics, and the reasons for any failed check.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;

  void Check(bool ok, const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string ToJsonLine() const;
};

Nanos Now();
double ToMs(Nanos ns);
double PerSecond(double count, Nanos ns);
// (issued - indexed) / issued.
double LossRatio(std::uint64_t issued, std::uint64_t indexed);
// Says on stderr when `n` samples leave fewer than ten beyond percentile p.
void WarnIfUnsupported(const char* what, std::size_t n, double p);
// Bytes the allocator has handed out and not yet had back (mallinfo2: arena
// chunks in use plus mmapped chunks). Unlike the resident set it does not
// depend on which freed pages the allocator happens to reuse.
std::uint64_t HeapBytes();

// Share of all CPU time the hypervisor took from this machine (the "steal"
// column of /proc/stat) since construction. Host contention slows every
// metric at once; the run reports it so such a run can be told apart from
// a regression.
class StealMeter {
 public:
  StealMeter();
  [[nodiscard]] double Percent() const;

 private:
  static std::vector<std::uint64_t> Read();
  std::vector<std::uint64_t> start_;
};

// CPU placement. The traced application (the generator) gets the last CPU
// to itself; DIO's threads, the backend, the dashboard client and the
// poller share the others, as when the analysis pipeline runs on dedicated
// servers (paper §II-F). Threads inherit the mask of the thread that
// creates them, so PinToDioCpus() runs first in main(). No-ops on a
// machine with fewer than two CPUs.
void PinToDioCpus();
// Moves the calling thread to the application CPU for its lifetime.
class AppCpuScope {
 public:
  AppCpuScope();
  ~AppCpuScope();
  AppCpuScope(const AppCpuScope&) = delete;
  AppCpuScope& operator=(const AppCpuScope&) = delete;
};

// One DIO deployment: a backend tier (single store or cluster, from
// `config`) plus at most one live tracing session at a time.
class Deployment {
 public:
  // `recorder` null = unprofiled: sessions run through service::DioService.
  // Otherwise the session chain is assembled from DioTracer,
  // transport::Pipeline::Build and the terminal sinks, wrapped in timing
  // decorators that record into `recorder`.
  static dio::Expected<std::unique_ptr<Deployment>> Create(
      dio::os::Kernel* kernel, const dio::Config& config,
      SpanRecorder* recorder);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  // Starts session `name`; `spool_path` is used when the config's sinks
  // include the spool.
  dio::Status Start(const std::string& name, const std::string& spool_path);
  // Stops the live session: consumers join, the chain drains and flushes.
  dio::Status Stop();

  // The analysis surface (timed in the profiled run).
  [[nodiscard]] dio::backend::QueryBackend* query();
  // The undecorated backend, for the checks and stats reads.
  [[nodiscard]] dio::backend::QueryBackend* raw_query() {
    return tier_.query;
  }
  [[nodiscard]] dio::cluster::ClusterRouter* router() {
    return tier_.router.get();
  }
  [[nodiscard]] const std::string& session() const { return session_; }
  [[nodiscard]] Nanos network_latency_ns() const {
    return client_options_.network_latency_ns;
  }

  dio::Expected<dio::backend::CorrelationStats> Correlate();
  dio::Expected<std::vector<dio::backend::Finding>> Detect();

  // Loss accounting of the last session, read after Stop().
  struct Ledger {
    std::uint64_t enter_hits = 0;
    std::uint64_t ring_pushed = 0;
    std::uint64_t ring_dropped = 0;
    std::uint64_t pending_overflow = 0;
    std::uint64_t emitted = 0;
    std::uint64_t batches = 0;
    std::uint64_t transport_dropped = 0;
    std::uint64_t dead_letters = 0;
    std::uint64_t retries = 0;
    std::uint64_t queue_max_depth = 0;
    std::uint64_t cluster_rejects = 0;
    std::uint64_t sink_batches = 0;  // batches delivered to the bulk sink
    [[nodiscard]] std::uint64_t lost() const {
      return ring_dropped + pending_overflow + transport_dropped +
             dead_letters + cluster_rejects;
    }
  };
  [[nodiscard]] Ledger ReadLedger() const;
  static void Accumulate(Ledger* sum, const Ledger& ledger);

 private:
  Deployment(dio::os::Kernel* kernel, const dio::Config& config,
             SpanRecorder* recorder);

  dio::os::Kernel* kernel_;
  SpanRecorder* recorder_;
  dio::tracer::TracerOptions tracer_options_;
  dio::backend::BulkClientOptions client_options_;
  dio::transport::PipelineOptions pipeline_options_;
  dio::service::BackendTier tier_;
  std::string session_;

  // Unprofiled path.
  std::unique_ptr<dio::service::DioService> service_;
  // Profiled path; the pipeline is declared before the tracer so the tracer
  // (the producer) is destroyed first, as in DioService.
  std::unique_ptr<TimedQueryBackend> timed_query_;
  std::unique_ptr<dio::transport::Pipeline> pipeline_;
  std::unique_ptr<TimedEventSink> timed_head_;
  std::unique_ptr<dio::tracer::DioTracer> tracer_;
  std::uint64_t cluster_rejects_base_ = 0;
};

// Issues a generated corpus stream as real syscalls, with every recorded
// path under "/data" moved to `root`, and tallies what it issued per
// syscall name.
class StreamIssuer {
 public:
  explicit StreamIssuer(dio::os::Kernel* kernel, std::string root = "/data");

  // Issues one record; returns true when it became a syscall.
  bool Issue(const dio::tracer::WireEvent& event);
  // Issues stat(path) from the issuer's own task.
  void Stat(const std::string& path);

  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& tally() const {
    return tally_;
  }

 private:
  dio::os::Kernel* kernel_;
  dio::trace::SyscallIssuer issuer_;
  dio::os::Pid probe_pid_;
  dio::os::Tid probe_tid_;
  std::uint64_t issued_ = 0;
  std::map<std::string, std::uint64_t> tally_;
};

// Mounts the data device (no real sleeps) on a fresh kernel.
std::unique_ptr<dio::os::Kernel> MakeKernel();
// Creates `paths` as empty files with an untraced helper task; run while no
// session is live.
void CreateFiles(dio::os::Kernel* kernel, const std::vector<std::string>& dirs,
                 const std::vector<std::string>& paths);

// Freshness probes: the generator publishes each probe stat's return time;
// a poller thread counts each probe's path until the backend returns it.
class ProbePoller {
 public:
  ProbePoller(dio::backend::QueryBackend* query, std::string index);
  ~ProbePoller();
  ProbePoller(const ProbePoller&) = delete;
  ProbePoller& operator=(const ProbePoller&) = delete;

  void Publish(const std::string& path, Nanos returned_at);
  // Stops after every published probe has been seen (the caller has made
  // everything searchable by then) or after `timeout`.
  void Finish(Nanos timeout);

  // Freshness samples in ms, one per seen probe.
  [[nodiscard]] std::vector<double> freshness_ms() const;
  [[nodiscard]] std::size_t published() const;
  [[nodiscard]] std::size_t seen() const;
  [[nodiscard]] std::uint64_t polls() const { return polls_; }
  [[nodiscard]] std::uint64_t failed_polls() const { return failed_polls_; }
  [[nodiscard]] std::vector<std::string> paths() const;

 private:
  struct Probe {
    std::string path;
    Nanos returned_at = 0;
    Nanos seen_at = -1;
  };
  void Loop();

  dio::backend::QueryBackend* query_;
  std::string index_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Probe> probes_;
  std::size_t first_unseen_ = 0;
  bool finishing_ = false;
  Nanos finish_deadline_ = 0;
  std::atomic<std::uint64_t> polls_{0};
  std::atomic<std::uint64_t> failed_polls_{0};
  std::thread thread_;
};

// Renders the stock viz::Dashboards set once (SyscallSummary, ThreadTimeline,
// LatencyHeatmap, SyscallShare, a filtered SyscallTable). Returns the number
// of panels that failed; each panel is a "viz.*" span when profiled.
int RenderDashboards(dio::backend::QueryBackend* query,
                     const std::string& index, Nanos interval_ns,
                     const std::string& table_syscall,
                     SpanRecorder* recorder);
inline constexpr int kDashboardPanels = 5;

// Post-stop correctness checks shared by every workload: the loss ledger,
// per-syscall terms against the generator's tally (when nothing was lost),
// and every probe found exactly once. Returns events indexed.
std::uint64_t CheckSession(
    Deployment& deployment, std::uint64_t issued,
    const std::map<std::string, std::uint64_t>& tally,
    const std::vector<std::string>& probes, RunResult* result);

// Per-syscall counts of `index` via Aggregate(Terms("syscall")).
dio::Expected<std::map<std::string, std::uint64_t>> SyscallTerms(
    dio::backend::QueryBackend* query, const std::string& index);

// Per-layer metrics read from backend stats and from the profiled spans,
// shared by every workload.
void AddBackendLayerMetrics(dio::backend::QueryBackend* query,
                            const std::string& index, RunResult* result);
void AddSpanLayerMetrics(const SpanRecorder& recorder, RunResult* result);
// tracer.* and transport.* counters from a session ledger.
void AddLedgerLayerMetrics(const Deployment::Ledger& ledger,
                           RunResult* result);

// The per-layer metric names, in BENCHMARK.json order, with units; a
// workload that does not exercise a layer reports 0 for its metrics.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames();

RunResult RunBurst(const RunOptions& options);
RunResult RunLive(const RunOptions& options);

}  // namespace perfbench
