// Live workload: live_fluentbit. Set-up preloads one session's index,
// closed-loop and one corpus cycle at a time, past shards_per_index x
// segment_docs events (so sealed segments are in play); set-up is repeated
// and its preloads give the end-to-end figures (tracing slowdown against an
// untraced control, ingest rate, heap per event). Then the fluentbit corpus
// is replayed open-loop at a fixed fraction of its recorded cadence (kSpeed)
// into the last set-up's session, while a dashboard client renders the stock
// set on auto-refresh and a poller measures freshness on probe stats issued
// every few ms.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "perfbench/common.h"
#include "perfbench/stats.h"
#include "trace/corpus.h"

namespace perfbench {

namespace {

// Thread budget (4 cores): the generator (spins to its due times), the
// dashboard client, one consumer, the queue's sender thread, and the poller
// (sleeps between polls). Queries run on the calling thread.
constexpr char kLiveConfig[] =
    "[tracer]\n"
    "consumer_threads = 1\n"
    "[backend]\n"
    "shards_per_index = 4\n"
    "segment_docs = 65536\n"
    "query_threads = 0\n"
    "[transport]\n"
    "queue_depth = 1024\n"
    "backpressure = block\n"
    "sinks = bulk\n";

constexpr char kIndex[] = "live";
// The dashboard client starts a render every kDashboardRefresh, or at once
// when the last one took longer, like a dashboard on auto-refresh. A render
// holds back the store's refresh (see kSpeed); back-to-back renders would
// leave almost no time to refresh between them, so freshness would swing
// with every change in render time.
constexpr Nanos kDashboardRefresh = 5 * dio::kSecond;
constexpr Nanos kProbeInterval = 5 * dio::kMillisecond;
// The preload issues each cycle in slices of this many syscalls, each
// searchable before the next. The generator is one thread, so all its
// events land in one per-CPU ring; a slice (16,384 records of 448 B plus an
// 8 B header, 7.1 MiB) fits in that 8 MiB ring, so a consumer stalled by the
// host cannot make it drop.
constexpr std::size_t kPreloadSlice = 16384;
// Replay speed relative to the recorded cadence (~41.8k syscalls/s at 1x).
// A dashboard render holds back the store's refresh, and with it the bulk
// sink, for most of its ~2 s; at 1x ingest then keeps up with only ~27k
// events/s on a 4-CPU host and the backlog, and freshness, grow for as long
// as the run lasts (0.5x still grows). At 0.25x the pipeline settles into a
// steady state, so freshness does not depend on the run's length.
constexpr double kSpeed = 0.25;

// Sleeps until shortly before the due time, then spins, so the generator is
// not late by a scheduler wake-up on every syscall.
class PacingClock final : public dio::Clock {
 public:
  [[nodiscard]] Nanos NowNanos() const override { return Now(); }
  void SleepFor(Nanos duration) override {
    const Nanos target = Now() + duration;
    if (duration > 300 * dio::kMicrosecond) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(duration - 200 * dio::kMicrosecond));
    }
    while (Now() < target) {
    }
  }
};

struct Phase {
  std::uint64_t issued = 0;  // live-phase syscalls
  std::uint64_t preloaded = 0;
  std::uint64_t indexed = 0;  // live-phase events searchable at stop
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> setup_s;
  // Traced over untraced time per syscall, one per preload cycle, the
  // untraced control of the cycle issued just before it (paper Table II).
  std::vector<double> slowdown;
  // Per set-up: the preload's events over the summed time from each cycle's
  // first syscall until it is all searchable. Per set-up, not per cycle,
  // because a cycle's refresh cost grows with the unsealed tail and drops
  // once the shards seal.
  std::vector<double> ingest_per_s;
  Nanos preload_ns = 0;
  Nanos preload_issue_ns = 0;  // closed-loop issue time of the preload
  Nanos control_issue_ns = 0;  // untraced control of the same cycles
  Nanos live_ns = 0;    // first due time -> last syscall returned
  std::vector<double> latency_us;
  std::vector<double> late_ms;
  std::vector<double> freshness_ms;
  std::vector<double> dashboard_ms;
  // Heap bytes per event held after the preload's ingest, one sample per
  // set-up: the same quantity the burst workloads measure per session.
  std::vector<double> heap_per_event;
  Nanos unattributed_ns = 0;
  double network_wait_ms = 0;  // sink batches x modeled network hop
  Deployment::Ledger ledger;
};

// One entry of the open-loop schedule: a corpus record of cycle `cycle`, or
// probe number `cycle` when index < 0.
struct Op {
  std::int32_t cycle = 0;
  std::int32_t index = -1;
};

// Waits until `events` documents of the live index have reached the store,
// refreshing on the bulk sink's own cadence, then refreshes once so they are
// all searchable. Fails the run when the session lost any of them or time
// runs out. (Forcing a refresh on every poll instead would rebuild the
// growing tail at the poll rate and make the wait depend on timing.)
bool AwaitSearchable(Deployment* deployment, std::uint64_t events,
                     RunResult* result) {
  dio::backend::QueryBackend* store = deployment->raw_query();
  const Nanos limit = Now() + 60 * dio::kSecond;
  for (;;) {
    auto stats = store->Stats(kIndex);
    const std::uint64_t arrived =
        stats.ok() ? stats->doc_count + stats->pending_count : 0;
    if (arrived >= events) break;
    const std::uint64_t lost = deployment->ReadLedger().lost();
    if (lost > 0 || Now() > limit) {
      result->Check(false, "preload: " + std::to_string(arrived) + " of " +
                               std::to_string(events) + " arrived, lost " +
                               std::to_string(lost));
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  store->Refresh(kIndex);
  auto n = store->Count(kIndex, dio::backend::Query::MatchAll());
  const std::uint64_t count = n.ok() ? *n : 0;
  result->Check(count == events, "preload: " + std::to_string(count) +
                                     " of " + std::to_string(events) +
                                     " searchable after refresh");
  return count == events;
}

// Untraced control: `cycle` issued closed-loop under `root` on a fresh
// kernel with no session. Returns the issue time; `issued` gets the count.
Nanos IssueUntraced(const std::vector<dio::tracer::WireEvent>& cycle,
                    const std::string& root, std::uint64_t* issued) {
  auto kernel = MakeKernel();
  StreamIssuer issuer(kernel.get(), root);
  AppCpuScope app_cpu;
  const Nanos t0 = Now();
  for (const dio::tracer::WireEvent& e : cycle) issuer.Issue(e);
  const Nanos elapsed = Now() - t0;
  *issued = issuer.issued();
  return elapsed;
}

std::string ProbePath(std::int32_t n) {
  return "/data/probe/" + std::to_string(n);
}

// Sets up at least `min_setups` times and until `setup_for` has passed
// (the first of several is a warm-up and not sampled), then runs the live
// phase on the last set-up for `duration`.
Phase RunPhase(const std::vector<dio::tracer::WireEvent>& cycle,
               int preload_cycles, SpanRecorder* recorder, int min_setups,
               Nanos setup_for, Nanos duration, RunResult* result) {
  Phase phase;
  auto config = dio::Config::ParseString(kLiveConfig);
  result->Check(config.ok(), "config parse failed");
  if (!config.ok()) return phase;
  const auto max_probes = static_cast<std::int32_t>(
      duration / kProbeInterval + 1);
  std::vector<std::string> probe_paths;
  for (std::int32_t n = 0; n < max_probes; ++n) {
    probe_paths.push_back(ProbePath(n));
  }

  // Set-up: kernel, store, probe files, StartSession, and the preload
  // through the session until every preloaded event is searchable.
  std::unique_ptr<dio::os::Kernel> kernel;
  std::unique_ptr<Deployment> deployment;
  std::uint64_t preloaded = 0;
  std::map<std::string, std::uint64_t> tally;
  const Nanos setup_deadline = Now() + setup_for;
  for (int rep = 0; rep < min_setups || Now() < setup_deadline; ++rep) {
    deployment.reset();
    kernel.reset();
    tally.clear();
    const Nanos t = Now();
    kernel = MakeKernel();
    auto created = Deployment::Create(kernel.get(), *config, recorder);
    result->Check(created.ok(), "deployment: " + created.status().ToString());
    if (!created.ok()) return phase;
    deployment = std::move(created).value();
    CreateFiles(kernel.get(), {"/data/probe"}, probe_paths);
    const dio::Status started = deployment->Start(kIndex, "");
    result->Check(started.ok(), "start: " + started.ToString());
    if (!started.ok()) return phase;
    // Heap sampling is not set-up work; its time is left out.
    const Nanos r0 = Now();
    const std::uint64_t heap_start = HeapBytes();
    const Nanos p0 = Now();
    preloaded = 0;
    phase.preload_issue_ns = 0;
    phase.control_issue_ns = 0;
    std::vector<double> slowdown;  // per cycle
    Nanos control_wall = 0;  // untraced controls are not set-up work
    Nanos searchable_ns = 0;
    // One corpus cycle at a time, a slice at a time, each searchable before
    // the next, so the closed-loop preload never has more than a slice in
    // flight.
    for (int c = 0; c < preload_cycles; ++c) {
      const std::string root = "/data/p" + std::to_string(c);
      const Nanos c0 = Now();
      std::uint64_t control_issued = 0;
      const Nanos control_ns = IssueUntraced(cycle, root, &control_issued);
      control_wall += Now() - c0;
      ScopedSpan span(recorder, "backend.preload");
      StreamIssuer issuer(kernel.get(), root);
      Nanos issue_ns = 0;
      for (std::size_t first = 0; first < cycle.size();
           first += kPreloadSlice) {
        const std::size_t last = std::min(cycle.size(), first + kPreloadSlice);
        const Nanos i0 = Now();
        {
          AppCpuScope app_cpu;
          for (std::size_t i = first; i < last; ++i) issuer.Issue(cycle[i]);
          issue_ns += Now() - i0;
        }
        if (!AwaitSearchable(deployment.get(), preloaded + issuer.issued(),
                             result)) {
          return phase;
        }
        searchable_ns += Now() - i0;
      }
      phase.preload_issue_ns += issue_ns;
      phase.control_issue_ns += control_ns;
      if (control_ns > 0 && control_issued > 0 && issuer.issued() > 0) {
        slowdown.push_back((static_cast<double>(issue_ns) /
                            static_cast<double>(issuer.issued())) /
                           (static_cast<double>(control_ns) /
                            static_cast<double>(control_issued)));
      }
      preloaded += issuer.issued();
      for (const auto& [name, n] : issuer.tally()) tally[name] += n;
    }
    const Nanos p1 = Now();
    phase.preload_ns = p1 - p0 - control_wall;
    const std::uint64_t heap_loaded = HeapBytes();
    // The first of several set-ups warms the process up (allocator arenas,
    // first-touch pages) and is not sampled.
    if (min_setups > 1 && rep == 0) continue;
    phase.setup_s.push_back(
        static_cast<double>(p1 - t - (p0 - r0) - control_wall) / 1e9);
    phase.slowdown.insert(phase.slowdown.end(), slowdown.begin(),
                          slowdown.end());
    if (preloaded > 0) {
      phase.ingest_per_s.push_back(
          PerSecond(static_cast<double>(preloaded), searchable_ns));
    }
    if (preloaded > 0 && heap_loaded > heap_start) {
      phase.heap_per_event.push_back(
          static_cast<double>(heap_loaded - heap_start) /
          static_cast<double>(preloaded));
    }
  }

  // Open-loop schedule: corpus cycles back to back at kSpeed times the
  // recorded cadence (each in its own directory), plus a probe every
  // kProbeInterval.
  const auto scaled = [](Nanos recorded) {
    return static_cast<Nanos>(static_cast<double>(recorded) / kSpeed);
  };
  const Nanos cycle_span = scaled(cycle.back().time_enter -
                                  cycle.front().time_enter +
                                  25 * dio::kMicrosecond);
  std::vector<Nanos> due;
  std::vector<Op> ops;
  {
    std::int32_t next_probe = 0;
    for (std::int32_t c = 0;; ++c) {
      const Nanos base = static_cast<Nanos>(c) * cycle_span;
      if (base >= duration) break;
      for (std::size_t i = 0; i < cycle.size(); ++i) {
        const Nanos at =
            base + scaled(cycle[i].time_enter - cycle.front().time_enter);
        if (at >= duration) break;
        while (next_probe < max_probes &&
               static_cast<Nanos>(next_probe) * kProbeInterval <= at) {
          due.push_back(static_cast<Nanos>(next_probe) * kProbeInterval);
          ops.push_back({next_probe, -1});
          ++next_probe;
        }
        due.push_back(at);
        ops.push_back({c, static_cast<std::int32_t>(i)});
      }
    }
  }

  ProbePoller poller(deployment->query(), kIndex);
  const Nanos start = Now() + 10 * dio::kMillisecond;
  for (Nanos& d : due) d += start;
  // Renders start on the refresh schedule and only while syscalls are still
  // due, so none is in flight when the session stops.
  std::atomic<std::uint64_t> failed_panels{0};
  std::atomic<std::uint64_t> renders{0};
  std::vector<double> dashboard_ms;
  Nanos render_unattributed = 0;
  std::thread dashboards([&] {
    std::uint64_t r = 0;
    for (Nanos t0 = start; t0 < start + duration;
         t0 = std::max(start + static_cast<Nanos>(r) * kDashboardRefresh,
                       Now())) {
      while (Now() < t0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      RequestScope request(++r);
      failed_panels += static_cast<std::uint64_t>(RenderDashboards(
          deployment->query(), kIndex, dio::kSecond, "pwrite64", recorder));
      const Nanos t1 = Now();
      ++renders;
      dashboard_ms.push_back(ToMs(t1 - t0));
      if (recorder != nullptr) {
        Nanos panels = 0;
        for (const char* span : {"viz.summary", "viz.timeline", "viz.heatmap",
                                 "viz.share", "viz.table"}) {
          panels += recorder->BusyWithin(span, t0, t1);
        }
        render_unattributed += (t1 - t0) - panels;
      }
    }
  });

  StreamIssuer probe_issuer(kernel.get(), "/data");
  std::unique_ptr<StreamIssuer> issuer;
  std::int32_t issuer_cycle = -1;
  std::uint64_t issued = 0;
  PacingClock clock;
  std::vector<OpenLoopSample> samples;
  {
    AppCpuScope app_cpu;
    samples = RunOpenLoop(due, &clock, [&](std::size_t i) {
      const Op op = ops[i];
      if (op.index < 0) {
        const std::string& path =
            probe_paths[static_cast<std::size_t>(op.cycle)];
        probe_issuer.Stat(path);
        poller.Publish(path, Now());
        return;
      }
      if (op.cycle != issuer_cycle) {
        if (issuer != nullptr) {
          issued += issuer->issued();
          for (const auto& [name, n] : issuer->tally()) tally[name] += n;
        }
        issuer = std::make_unique<StreamIssuer>(
            kernel.get(), "/data/l" + std::to_string(op.cycle));
        issuer_cycle = op.cycle;
      }
      issuer->Issue(cycle[static_cast<std::size_t>(op.index)]);
    });
  }
  const Nanos live_end = Now();
  if (issuer != nullptr) {
    issued += issuer->issued();
    for (const auto& [name, n] : issuer->tally()) tally[name] += n;
  }
  issued += probe_issuer.issued();
  for (const auto& [name, n] : probe_issuer.tally()) tally[name] += n;

  dashboards.join();
  const Nanos s0 = Now();
  const dio::Status stopped = deployment->Stop();
  const Nanos stop_end = Now();
  result->Check(stopped.ok(), "stop: " + stopped.ToString());
  poller.Finish(10 * dio::kSecond);
  result->Check(poller.seen() == poller.published(), "poller missed probes");

  phase.issued = issued;
  phase.preloaded = preloaded;
  phase.live_ns = live_end - start;
  for (const OpenLoopSample& s : samples) {
    phase.latency_us.push_back(static_cast<double>(s.latency) / 1e3);
    phase.late_ms.push_back(ToMs(s.late));
  }
  phase.freshness_ms = poller.freshness_ms();
  phase.dashboard_ms = dashboard_ms;

  const std::uint64_t indexed = CheckSession(
      *deployment, preloaded + issued, tally, poller.paths(), result);
  phase.indexed = indexed - std::min(indexed, preloaded);
  phase.ledger = deployment->ReadLedger();
  phase.network_wait_ms = static_cast<double>(phase.ledger.sink_batches) *
                          ToMs(deployment->network_latency_ns());
  result->Check(failed_panels.load() == 0, "dashboard panel failed");
  phase.attempted = preloaded + issued + poller.polls() +
                    renders.load() * kDashboardPanels;
  phase.failed = (preloaded + issued - std::min(preloaded + issued, indexed)) +
                 poller.failed_polls() + failed_panels.load();

  if (recorder != nullptr) {
    Nanos drained = 0;
    for (const char* sink : {"transport.bulk", "transport.bulk_flush"}) {
      drained += recorder->BusyWithin(sink, s0, stop_end);
    }
    phase.unattributed_ns = render_unattributed + (stop_end - s0) - drained;
    AddBackendLayerMetrics(deployment->raw_query(), kIndex, result);
  }
  return phase;
}

}  // namespace

RunResult RunLive(const RunOptions& options) {
  RunResult result;
  const std::size_t cycle_ops = options.tiny ? 4096 : 65536;
  const int preload_cycles = options.tiny ? 2 : 5;
  const std::vector<dio::tracer::WireEvent> cycle =
      dio::trace::GenerateCorpusEvents(dio::trace::CorpusClass::kFluentBit,
                                       cycle_ops, options.seed);
  const Nanos seconds = static_cast<Nanos>(options.seconds) * dio::kSecond;

  if (!options.trace) {
    // Half the run sets up (the gated figures), half runs live (the
    // checks; its figures are reported with --trace 1).
    Phase p = RunPhase(cycle, preload_cycles, nullptr, options.tiny ? 1 : 3,
                       seconds / 2, seconds - seconds / 2, &result);
    result.attempted = p.attempted;
    result.failed = p.failed;
    result.Set("setup_s", Median(p.setup_s), "s");
    result.Set("traced_slowdown", Median(p.slowdown), "x");
    result.Set("heap_bytes_per_event", Median(p.heap_per_event), "B/ev");
    return result;
  }

  for (const auto& [name, unit] : LayerMetricNames()) result.Set(name, 0, unit);
  Phase base = RunPhase(cycle, preload_cycles, nullptr, 1, 0, seconds / 2,
                        &result);
  SpanRecorder recorder;
  Phase p = RunPhase(cycle, preload_cycles, &recorder, 1, 0, seconds / 2,
                     &result);
  result.attempted = base.attempted + p.attempted;
  result.failed = base.failed + p.failed;

  result.Set("loadgen.late_p99_ms", NearestRank(p.late_ms, 99.0), "ms");
  // The preload replays the cycles closed-loop through the traced kernel,
  // each right after its untraced control.
  result.Set("oskernel.untraced_ops_per_s",
             PerSecond(static_cast<double>(p.preloaded), p.control_issue_ns),
             "ops/s");
  result.Set("tracer.hook_ns_per_syscall",
             p.preloaded == 0
                 ? 0.0
                 : static_cast<double>(p.preload_issue_ns -
                                       p.control_issue_ns) /
                       static_cast<double>(p.preloaded),
             "ns");
  AddLedgerLayerMetrics(p.ledger, &result);
  AddSpanLayerMetrics(recorder, &result);
  result.Set("transport.bulk_network_wait_ms", p.network_wait_ms, "ms");
  result.Set("backend.preload_ms", ToMs(p.preload_ns), "ms");
  result.Set("unattributed_ms", ToMs(p.unattributed_ns), "ms");
  const double base_dash = Median(base.dashboard_ms);
  const double prof_dash = Median(p.dashboard_ms);
  result.Set("profiler.overhead_pct",
             base_dash == 0 ? 0.0 : (prof_dash / base_dash - 1.0) * 100.0, "%");
  result.Set("e2e.traced_ops_per_s",
             PerSecond(static_cast<double>(base.issued), base.live_ns),
             "ops/s");
  result.Set("e2e.syscall_p50_us", Median(base.latency_us), "us");
  result.Set("e2e.ingest_events_per_s", Median(base.ingest_per_s), "ev/s");
  result.Set("e2e.freshness_p50_ms", Median(base.freshness_ms), "ms");
  result.Set("e2e.freshness_p90_ms", NearestRank(base.freshness_ms, 90.0),
             "ms");
  result.Set("e2e.dashboard_p50_ms", Median(base.dashboard_ms), "ms");
  WarnIfUnsupported("freshness", base.freshness_ms.size(), 90.0);
  result.Set("e2e.syscall_p99_us", NearestRank(base.latency_us, 99.0), "us");
  result.Set("e2e.freshness_p99_ms", NearestRank(base.freshness_ms, 99.0),
             "ms");
  result.Set("e2e.loss_ratio", LossRatio(base.issued, base.indexed),
             "ratio");
  recorder.WriteJsonLines(options.workdir + "/spans-" + options.workload +
                          ".jsonl");
  return result;
}

}  // namespace perfbench
