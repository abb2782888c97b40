// Closed-loop burst workloads: burst_walfsync, cluster_walfsync and
// durable_walfsync. One generator thread replays the seeded walfsync corpus
// as back-to-back tracing sessions. Each session first replays the stream
// untraced on a fresh kernel (the control for the tracing slowdown), then is
// set up (kernel, backend tier, StartSession), traced, stopped, checked,
// diagnosed (Correlate + RunAllDetectors), shown on the stock dashboards
// and, for durable_walfsync, restored from its spool; then it is torn down,
// so a run's memory stays bounded by one session however long it lasts.
#include <cstdio>
#include <filesystem>

#include "backend/detectors.h"
#include "cluster/router.h"
#include "perfbench/common.h"
#include "perfbench/stats.h"
#include "service/replay.h"
#include "trace/corpus.h"

namespace perfbench {

namespace {

struct BurstKind {
  bool cluster = false;
  bool spool = false;
  const char* config = "";
};

// Thread budget (4 CPUs): the generator has one to itself; one consumer,
// the queue's sender thread and the probe poller share the rest while a
// session is live; the query pool works during diagnosis, after the stop.
constexpr char kSingleStoreConfig[] =
    "[tracer]\n"
    "consumer_threads = 1\n"
    "[backend]\n"
    "shards_per_index = 4\n"
    "query_threads = 2\n"
    "[transport]\n"
    "queue_depth = 1024\n"
    "backpressure = block\n"
    "sinks = bulk\n";

constexpr char kDurableConfig[] =
    "[tracer]\n"
    "consumer_threads = 1\n"
    "[backend]\n"
    "shards_per_index = 4\n"
    "query_threads = 2\n"
    "[transport]\n"
    "queue_depth = 1024\n"
    "backpressure = block\n"
    "sinks = bulk,spool\n";

// Node stores answer on the router's scatter pool, so they get no pool of
// their own.
constexpr char kClusterConfig[] =
    "[tracer]\n"
    "consumer_threads = 1\n"
    "[backend]\n"
    "shards_per_index = 4\n"
    "query_threads = 0\n"
    "[transport]\n"
    "queue_depth = 1024\n"
    "backpressure = block\n"
    "sinks = bulk\n"
    "[cluster]\n"
    "nodes = 3\n"
    "replicas = 1\n"
    "ack = quorum\n"
    "query_fanout = parallel\n"
    "query_threads = 2\n";

// Syscalls per session. The generator is one thread, so all its events land
// in one per-CPU ring; a session with its probes (16,512 records of 448 B
// plus an 8 B header, 7.2 MiB) fits in that 8 MiB ring, so a consumer
// stalled by the host cannot make it drop, and in the queue (1024 x 512
// events).
constexpr std::size_t kSessionOps = 16384;

BurstKind KindOf(const std::string& workload) {
  if (workload == "cluster_walfsync") return {true, false, kClusterConfig};
  if (workload == "durable_walfsync") return {false, true, kDurableConfig};
  return {false, false, kSingleStoreConfig};
}

// Everything one phase (unprofiled or profiled) measures; vectors hold one
// sample per session unless noted.
struct Phase {
  std::uint64_t issued = 0;
  std::uint64_t indexed = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Nanos issue_ns = 0;
  Nanos untraced_issue_ns = 0;
  std::uint64_t untraced_issued = 0;
  Nanos wall_ns = 0;  // first syscall -> analysis done, summed
  std::vector<double> setup_s;
  // Traced over untraced time per syscall, the untraced control issued
  // just before the session (paper Table II).
  std::vector<double> slowdown;
  std::vector<double> ops_per_s;     // issued / issue time
  // indexed / (first syscall -> stopped, every event searchable)
  std::vector<double> ingest_per_s;
  std::vector<double> heap_per_event;
  std::vector<double> syscall_us;    // one per syscall
  std::vector<double> freshness_ms;  // one per probe
  std::vector<double> dashboard_ms;
  std::vector<double> diagnosis_s;
  std::uint64_t restored = 0;
  Nanos restore_ns = 0;
  std::uint64_t spool_bytes = 0;
  std::uint64_t events_updated = 0;
  Deployment::Ledger ledger;  // summed over sessions
  Nanos unattributed_ns = 0;
  double network_wait_ms = 0;  // sink batches x modeled network hop
  std::uint64_t max_lag = 0;
  std::uint64_t replication_applies = 0;
  std::uint64_t fanout_shard_tasks = 0;
};

std::uint64_t MaxReplicationLag(const dio::cluster::ClusterRouter& router) {
  const dio::Json health = router.HealthJson();
  std::uint64_t lag = 0;
  const dio::Json* indices = health.Find("indices");
  if (indices == nullptr || !indices->is_array()) return 0;
  for (const dio::Json& entry : indices->as_array()) {
    lag = std::max<std::uint64_t>(
        lag, static_cast<std::uint64_t>(entry.GetInt("max_replication_lag")));
  }
  return lag;
}

std::vector<std::string> ProbePaths(std::size_t count) {
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    out.push_back("/data/probe/" + std::to_string(j));
  }
  return out;
}

// Issues `events` closed-loop: each syscall is due when the previous one
// returned, so its latency is the time since then. Every `probe_every`
// syscalls a probe stat goes out and, when `poller` is set, is published.
Nanos IssueStream(const std::vector<dio::tracer::WireEvent>& events,
                  std::size_t probe_every, StreamIssuer* issuer,
                  const std::vector<std::string>& probes, ProbePoller* poller,
                  std::vector<double>* latency_us) {
  AppCpuScope app_cpu;
  const Nanos start = Now();
  Nanos prev = start;
  std::size_t next_probe = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i % probe_every == probe_every - 1 && next_probe < probes.size()) {
      issuer->Stat(probes[next_probe]);
      const Nanos t = Now();
      if (poller != nullptr) poller->Publish(probes[next_probe], t);
      if (latency_us != nullptr) {
        latency_us->push_back(static_cast<double>(t - prev) / 1e3);
      }
      prev = t;
      ++next_probe;
    }
    const bool issued = issuer->Issue(events[i]);
    const Nanos t = Now();
    if (issued && latency_us != nullptr) {
      latency_us->push_back(static_cast<double>(t - prev) / 1e3);
    }
    prev = t;
  }
  return Now() - start;
}

// Runs sessions back to back for `duration`. `recorder` null = unprofiled.
Phase RunPhase(const RunOptions& options, const BurstKind& kind,
               const std::vector<dio::tracer::WireEvent>& events,
               std::size_t probe_every, SpanRecorder* recorder,
               Nanos duration, RunResult* result) {
  Phase phase;
  auto config = dio::Config::ParseString(kind.config);
  result->Check(config.ok(), "config parse failed");
  if (!config.ok()) return phase;
  const std::vector<std::string> probes =
      ProbePaths(events.size() / probe_every);
  const std::string label = recorder != nullptr ? "p" : "u";

  const Nanos deadline = Now() + duration;
  for (int k = 0; k == 0 || Now() < deadline; ++k) {
    RequestScope request(static_cast<std::uint64_t>(k) + 1);
    const std::string index = "walfsync-" + label + "-" + std::to_string(k);
    const std::string spool = options.workdir + "/" + index + ".ndjson";

    // Untraced control: the same syscalls on a fresh kernel, no session,
    // issued right before the traced session so that both see the same
    // host speed.
    Nanos control_ns = 0;
    std::uint64_t control_issued = 0;
    {
      auto control = MakeKernel();
      CreateFiles(control.get(), {"/data/probe"}, probes);
      StreamIssuer control_issuer(control.get());
      control_ns = IssueStream(events, probe_every, &control_issuer, probes,
                               nullptr, nullptr);
      control_issued = control_issuer.issued();
    }
    phase.untraced_issue_ns += control_ns;
    phase.untraced_issued += control_issued;

    // Set-up: kernel, backend tier, probe files, StartSession.
    const Nanos setup_start = Now();
    auto kernel = MakeKernel();
    auto created = Deployment::Create(kernel.get(), *config, recorder);
    result->Check(created.ok(), "deployment: " + created.status().ToString());
    if (!created.ok()) break;
    const std::unique_ptr<Deployment> deployment = std::move(created).value();
    CreateFiles(kernel.get(), {"/data/probe"}, probes);
    const dio::Status started = deployment->Start(index, spool);
    result->Check(started.ok(), "start: " + started.ToString());
    if (!started.ok()) break;
    phase.setup_s.push_back(static_cast<double>(Now() - setup_start) / 1e9);
    const std::uint64_t heap_start = HeapBytes();
    dio::cluster::ClusterRouter* router = deployment->router();

    StreamIssuer issuer(kernel.get());
    auto poller = std::make_unique<ProbePoller>(deployment->query(), index);
    const Nanos t0 = Now();
    const Nanos issue_ns =
        IssueStream(events, probe_every, &issuer, probes, poller.get(),
                    recorder == nullptr ? &phase.syscall_us : nullptr);
    const Nanos t1 = Now();
    if (router != nullptr && recorder != nullptr) {
      phase.max_lag = std::max(phase.max_lag, MaxReplicationLag(*router));
    }
    const dio::Status stopped = deployment->Stop();
    const Nanos t2 = Now();
    result->Check(stopped.ok(), "stop: " + stopped.ToString());
    // The poller's queries allocate; let it finish before sampling the heap.
    poller->Finish(10 * dio::kSecond);
    const std::uint64_t heap_stop = HeapBytes();
    phase.issue_ns += issue_ns;
    phase.issued += issuer.issued();

    // Checks (not timed): probes, ledger, per-syscall terms, replicas.
    const std::vector<double> fresh = poller->freshness_ms();
    phase.freshness_ms.insert(phase.freshness_ms.end(), fresh.begin(),
                              fresh.end());
    result->Check(poller->seen() == poller->published(),
                  index + ": poller missed probes");
    phase.attempted += poller->polls();
    phase.failed += poller->failed_polls();
    poller.reset();
    const std::uint64_t indexed = CheckSession(
        *deployment, issuer.issued(), issuer.tally(), probes, result);
    phase.indexed += indexed;
    phase.ops_per_s.push_back(
        PerSecond(static_cast<double>(issuer.issued()), issue_ns));
    phase.ingest_per_s.push_back(
        PerSecond(static_cast<double>(indexed), t2 - t0));
    if (control_ns > 0 && control_issued > 0 && issuer.issued() > 0) {
      // Both runs issue the same stream, so the counts match; the ratio is
      // taken per syscall all the same.
      phase.slowdown.push_back(
          (static_cast<double>(issue_ns) /
           static_cast<double>(issuer.issued())) /
          (static_cast<double>(control_ns) /
           static_cast<double>(control_issued)));
    }
    if (indexed > 0 && heap_stop > heap_start) {
      phase.heap_per_event.push_back(
          static_cast<double>(heap_stop - heap_start) /
          static_cast<double>(indexed));
    }
    const Deployment::Ledger ledger = deployment->ReadLedger();
    Deployment::Accumulate(&phase.ledger, ledger);
    phase.network_wait_ms += static_cast<double>(ledger.sink_batches) *
                             ToMs(deployment->network_latency_ns());
    if (router != nullptr) {
      result->Check(router->VerifyConvergence(index).empty(),
                    index + ": replicas diverge after Settle");
    }

    // Spool restore into a fresh store.
    Nanos restore_ns = 0;
    if (kind.spool) {
      std::error_code ec;
      phase.spool_bytes += std::filesystem::file_size(spool, ec);
      dio::backend::ElasticStore restored(
          dio::backend::ElasticStoreOptions::FromConfig(*config));
      const Nanos r0 = Now();
      dio::Expected<std::uint64_t> loaded = std::uint64_t{0};
      {
        ScopedSpan span(recorder, "backend.restore");
        loaded = dio::service::LoadSpool(&restored, spool, index);
      }
      restore_ns = Now() - r0;
      ++phase.attempted;
      result->Check(loaded.ok(), index + ": spool restore failed");
      if (loaded.ok()) {
        phase.restored += *loaded;
        phase.restore_ns += restore_ns;
        auto live_terms = SyscallTerms(deployment->raw_query(), index);
        auto restored_terms = SyscallTerms(&restored, index);
        result->Check(*loaded == indexed && live_terms.ok() &&
                          restored_terms.ok() &&
                          *live_terms == *restored_terms,
                      index + ": restored spool differs from the live index");
      } else {
        ++phase.failed;
      }
    }
    std::error_code ec;
    std::filesystem::remove(spool, ec);

    // Diagnosis: Correlate + RunAllDetectors over the stopped session.
    const Nanos t3 = Now();
    auto correlation = deployment->Correlate();
    auto findings = deployment->Detect();
    const Nanos t4 = Now();
    phase.attempted += 2;
    phase.failed += (correlation.ok() ? 0 : 1) + (findings.ok() ? 0 : 1);
    result->Check(correlation.ok() && findings.ok(),
                  index + ": diagnosis failed");
    if (correlation.ok()) {
      phase.events_updated += correlation->events_updated;
      if (ledger.lost() == 0) {
        result->Check(correlation->events_unresolved == 0,
                      index + ": correlation left events unresolved");
      }
    }
    phase.diagnosis_s.push_back(static_cast<double>(t4 - t3) / 1e9);

    // Post-mortem dashboards over the stopped session.
    const Nanos t5 = Now();
    const int failed_panels = RenderDashboards(
        deployment->query(), index, 10 * dio::kMillisecond, "rename",
        recorder);
    const Nanos t6 = Now();
    phase.attempted += kDashboardPanels;
    phase.failed += static_cast<std::uint64_t>(failed_panels);
    result->Check(failed_panels == 0, index + ": dashboard panel failed");
    phase.dashboard_ms.push_back(ToMs(t6 - t5));
    const Nanos e2e_ns = (t2 - t0) + (t4 - t3) + (t6 - t5) + restore_ns;
    phase.wall_ns += e2e_ns;

    if (router != nullptr) {
      phase.replication_applies +=
          router->sync_applies() + router->async_applies();
      phase.fanout_shard_tasks += router->fanout_shard_tasks();
    }
    if (recorder != nullptr) {
      // Blocking path: the generator until t1, then the sink work the stop
      // waits on, then the analysis calls (each a span of its own).
      Nanos attributed = (t1 - t0) + restore_ns;
      for (const char* sink :
           {"transport.bulk", "transport.bulk_flush", "transport.spool",
            "transport.spool_flush", "cluster.ingest", "cluster.settle"}) {
        attributed += recorder->BusyWithin(sink, t1, t2);
      }
      for (const char* span :
           {"backend.correlate", "backend.detectors", "viz.summary",
            "viz.timeline", "viz.heatmap", "viz.share", "viz.table"}) {
        attributed += recorder->BusyWithin(span, t3, t6);
      }
      phase.unattributed_ns += e2e_ns - attributed;
      AddBackendLayerMetrics(deployment->raw_query(), index, result);
    }
  }
  phase.attempted += phase.issued;
  phase.failed += phase.issued - std::min(phase.issued, phase.indexed);
  return phase;
}

}  // namespace

RunResult RunBurst(const RunOptions& options) {
  RunResult result;
  const BurstKind kind = KindOf(options.workload);
  const std::vector<dio::tracer::WireEvent> events =
      dio::trace::GenerateCorpusEvents(dio::trace::CorpusClass::kWalFsync,
                                       options.tiny ? 4096 : kSessionOps,
                                       options.seed);
  const std::size_t probe_every = options.tiny ? 64 : 128;
  const Nanos seconds = static_cast<Nanos>(options.seconds) * dio::kSecond;

  if (!options.trace) {
    Phase p = RunPhase(options, kind, events, probe_every, nullptr, seconds,
                       &result);
    result.attempted = p.attempted;
    result.failed = p.failed;
    result.Set("setup_s", Median(p.setup_s), "s");
    result.Set("traced_slowdown", Median(p.slowdown), "x");
    result.Set("heap_bytes_per_event", Median(p.heap_per_event), "B/ev");
    return result;
  }

  // Profiled run: half the time unprofiled (the overhead baseline and the
  // workload-specific end-to-end figures), half profiled. Metrics of layers
  // this workload does not exercise stay 0.
  for (const auto& [name, unit] : LayerMetricNames()) result.Set(name, 0, unit);
  Phase base = RunPhase(options, kind, events, probe_every, nullptr,
                        seconds / 2, &result);
  SpanRecorder recorder;
  Phase p = RunPhase(options, kind, events, probe_every, &recorder,
                     seconds / 2, &result);
  result.attempted = base.attempted + p.attempted;
  result.failed = base.failed + p.failed;

  result.Set("oskernel.untraced_ops_per_s",
             PerSecond(static_cast<double>(p.untraced_issued),
                       p.untraced_issue_ns),
             "ops/s");
  result.Set("tracer.hook_ns_per_syscall",
             p.issued == 0 ? 0.0
                           : static_cast<double>(p.issue_ns -
                                                 p.untraced_issue_ns) /
                                 static_cast<double>(p.issued),
             "ns");
  AddLedgerLayerMetrics(p.ledger, &result);
  AddSpanLayerMetrics(recorder, &result);
  if (!kind.cluster) {
    result.Set("transport.bulk_network_wait_ms", p.network_wait_ms, "ms");
  }
  if (kind.spool) {
    result.Set("transport.spool_bytes_per_event",
               p.indexed == 0 ? 0.0
                              : static_cast<double>(p.spool_bytes) /
                                    static_cast<double>(p.indexed),
               "B/ev");
  }
  result.Set("backend.events_updated", static_cast<double>(p.events_updated),
             "count");
  if (kind.cluster) {
    result.Set("cluster.replication_applies",
               static_cast<double>(p.replication_applies), "count");
    result.Set("cluster.max_lag_batches", static_cast<double>(p.max_lag),
               "batches");
    result.Set("cluster.fanout_shard_tasks",
               static_cast<double>(p.fanout_shard_tasks), "count");
    result.Set("cluster.rejects", static_cast<double>(p.ledger.cluster_rejects),
               "count");
  }
  result.Set("unattributed_ms", ToMs(p.unattributed_ns), "ms");
  const double base_per_event =
      base.issued == 0 ? 0.0
                       : static_cast<double>(base.wall_ns) /
                             static_cast<double>(base.issued);
  const double profiled_per_event =
      p.issued == 0 ? 0.0
                    : static_cast<double>(p.wall_ns) /
                          static_cast<double>(p.issued);
  result.Set("profiler.overhead_pct",
             base_per_event == 0
                 ? 0.0
                 : (profiled_per_event / base_per_event - 1.0) * 100.0,
             "%");
  result.Set("e2e.traced_ops_per_s", Median(base.ops_per_s), "ops/s");
  result.Set("e2e.syscall_p50_us", Median(base.syscall_us), "us");
  result.Set("e2e.ingest_events_per_s", Median(base.ingest_per_s), "ev/s");
  result.Set("e2e.freshness_p50_ms", Median(base.freshness_ms), "ms");
  result.Set("e2e.freshness_p90_ms", NearestRank(base.freshness_ms, 90.0),
             "ms");
  result.Set("e2e.dashboard_p50_ms", Median(base.dashboard_ms), "ms");
  WarnIfUnsupported("freshness", base.freshness_ms.size(), 90.0);
  result.Set("e2e.syscall_p99_us", NearestRank(base.syscall_us, 99.0), "us");
  result.Set("e2e.freshness_p99_ms", NearestRank(base.freshness_ms, 99.0),
             "ms");
  result.Set("e2e.diagnosis_s", Median(base.diagnosis_s), "s");
  result.Set("e2e.restore_events_per_s",
             PerSecond(static_cast<double>(base.restored), base.restore_ns),
             "ev/s");
  result.Set("e2e.loss_ratio", LossRatio(base.issued, base.indexed), "ratio");
  recorder.WriteJsonLines(options.workdir + "/spans-" + options.workload +
                          ".jsonl");
  return result;
}

}  // namespace perfbench
