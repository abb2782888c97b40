#include "perfbench/common.h"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "backend/bulk_client.h"
#include "backend/detectors.h"
#include "cluster/cluster_sink.h"
#include "oskernel/syscall_nr.h"
#include "perfbench/stats.h"
#include "transport/sinks.h"
#include "viz/dashboard.h"

namespace perfbench {

namespace {

// Terminal sink name the profiled run uses for the spool, so the pipeline
// asks the factory for it (the built-in "spool" cannot be decorated).
constexpr char kTimedSpool[] = "perfbench.spool";

std::string FormatNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

}  // namespace

// ---- result line ------------------------------------------------------

void RunResult::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  failures.push_back(what);
}

void RunResult::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

std::string RunResult::ToJsonLine() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << metrics[i].name << "\": {\"value\": "
        << FormatNumber(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

Nanos Now() { return dio::SteadyClock::Instance()->NowNanos(); }

double ToMs(Nanos ns) { return static_cast<double>(ns) / 1e6; }

double PerSecond(double count, Nanos ns) {
  return ns <= 0 ? 0.0 : count / (static_cast<double>(ns) / 1e9);
}

double LossRatio(std::uint64_t issued, std::uint64_t indexed) {
  if (issued == 0) return 0.0;
  return static_cast<double>(issued - std::min(issued, indexed)) /
         static_cast<double>(issued);
}

void WarnIfUnsupported(const char* what, std::size_t n, double p) {
  if (PercentileSupported(n, p)) return;
  std::fprintf(stderr,
               "perfbench: only %zu %s samples; p%g has fewer than %zu "
               "beyond it\n",
               n, what, p, kMinSamplesBeyond);
}

std::uint64_t HeapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

namespace {

int OnlineCpus() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

void PinCurrentThread(int first, int last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu = first; cpu <= last; ++cpu) CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

}  // namespace

void PinToDioCpus() {
  const int cpus = OnlineCpus();
  if (cpus >= 2) PinCurrentThread(0, cpus - 2);
}

AppCpuScope::AppCpuScope() {
  const int cpus = OnlineCpus();
  if (cpus >= 2) PinCurrentThread(cpus - 1, cpus - 1);
}

AppCpuScope::~AppCpuScope() { PinToDioCpus(); }

StealMeter::StealMeter() : start_(Read()) {}

std::vector<std::uint64_t> StealMeter::Read() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  std::vector<std::uint64_t> ticks;
  std::uint64_t value = 0;
  while (ticks.size() < 8 && stat >> value) ticks.push_back(value);
  return ticks;
}

double StealMeter::Percent() const {
  const std::vector<std::uint64_t> now = Read();
  if (now.size() < 8 || start_.size() < 8) return 0.0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < 8; ++i) total += now[i] - start_[i];
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(now[7] - start_[7]) /
                          static_cast<double>(total);
}

// ---- deployment -------------------------------------------------------

Deployment::Deployment(dio::os::Kernel* kernel, const dio::Config& config,
                       SpanRecorder* recorder)
    : kernel_(kernel),
      recorder_(recorder),
      client_options_(dio::backend::BulkClientOptions::FromConfig(config)) {}

Deployment::~Deployment() {
  if (tracer_ != nullptr) tracer_->Stop();
  if (pipeline_ != nullptr) pipeline_->Flush();
}

dio::Expected<std::unique_ptr<Deployment>> Deployment::Create(
    dio::os::Kernel* kernel, const dio::Config& config,
    SpanRecorder* recorder) {
  std::unique_ptr<Deployment> d(new Deployment(kernel, config, recorder));
  auto tracer_options = dio::tracer::TracerOptions::FromConfig(config);
  if (!tracer_options.ok()) return tracer_options.status();
  d->tracer_options_ = std::move(tracer_options).value();
  auto pipeline_options = dio::transport::PipelineOptions::FromConfig(config);
  if (!pipeline_options.ok()) return pipeline_options.status();
  d->pipeline_options_ = std::move(pipeline_options).value();
  auto tier = dio::service::BuildBackendTier(config);
  if (!tier.ok()) return tier.status();
  d->tier_ = std::move(tier).value();
  if (recorder == nullptr) {
    if (d->tier_.clustered()) {
      d->service_ = std::make_unique<dio::service::DioService>(
          kernel, d->tier_.router.get());
    } else {
      d->service_ = std::make_unique<dio::service::DioService>(
          kernel, d->tier_.store.get());
    }
  } else {
    d->timed_query_ =
        std::make_unique<TimedQueryBackend>(d->tier_.query, recorder);
  }
  return d;
}

dio::backend::QueryBackend* Deployment::query() {
  if (timed_query_ != nullptr) return timed_query_.get();
  return tier_.query;
}

dio::Status Deployment::Start(const std::string& name,
                              const std::string& spool_path) {
  session_ = name;
  if (tier_.router != nullptr) {
    cluster_rejects_base_ = tier_.router->rejected_events();
  }
  dio::tracer::TracerOptions options = tracer_options_;
  options.session_name = name;
  dio::transport::PipelineOptions pipeline_options = pipeline_options_;
  pipeline_options.spool_path = spool_path;
  if (service_ != nullptr) {
    return service_
        ->StartSession(std::move(options), "perfbench", client_options_,
                       std::move(pipeline_options))
        .status();
  }

  ScopedSpan span(recorder_, "service.start_session");
  // Same chain DioService::StartSession builds, with each terminal sink
  // wrapped in a timing decorator.
  tracer_.reset();
  timed_head_.reset();
  pipeline_.reset();
  for (std::string& sink : pipeline_options.sinks) {
    if (sink == "spool") sink = kTimedSpool;
  }
  SpanRecorder* recorder = recorder_;
  auto make_sink = [this, &name, recorder](
                       const std::string& sink_name,
                       const dio::transport::PipelineOptions& popts)
      -> dio::Expected<std::unique_ptr<dio::transport::Transport>> {
    std::unique_ptr<dio::transport::Transport> inner;
    const char* submit_span = "";
    const char* flush_span = "";
    if (sink_name == kTimedSpool) {
      auto spool = dio::transport::FileSpoolSink::Open({popts.spool_path});
      if (!spool.ok()) return spool.status();
      inner = std::move(spool).value();
      submit_span = "transport.spool";
      flush_span = "transport.spool_flush";
    } else if (sink_name == "bulk" && tier_.router != nullptr) {
      inner = std::make_unique<dio::cluster::ClusterBulkSink>(
          tier_.router.get(), name, client_options_.network_latency_ns,
          kernel_->clock());
      submit_span = "cluster.ingest";
      flush_span = "cluster.settle";
    } else if (sink_name == "bulk") {
      inner = std::make_unique<dio::backend::BulkClient>(
          tier_.store.get(), name, client_options_, kernel_->clock());
      submit_span = "transport.bulk";
      flush_span = "transport.bulk_flush";
    } else {
      return dio::InvalidArgument("perfbench: unknown sink " + sink_name);
    }
    return std::unique_ptr<dio::transport::Transport>(
        std::make_unique<TimedTransport>(std::move(inner), recorder,
                                         submit_span, flush_span));
  };
  auto pipeline = dio::transport::Pipeline::Build(
      name, pipeline_options, make_sink, kernel_->clock());
  if (!pipeline.ok()) return pipeline.status();
  pipeline_ = std::move(pipeline).value();
  timed_head_ = std::make_unique<TimedEventSink>(pipeline_.get(), recorder_);
  tracer_ = std::make_unique<dio::tracer::DioTracer>(
      kernel_, timed_head_.get(), std::move(options));
  return tracer_->Start();
}

dio::Status Deployment::Stop() {
  if (service_ != nullptr) return service_->StopSession(session_);
  ScopedSpan span(recorder_, "service.stop_session");
  tracer_->Stop();
  pipeline_->Flush();
  return dio::Status::Ok();
}

dio::Expected<dio::backend::CorrelationStats> Deployment::Correlate() {
  if (service_ != nullptr) return service_->Correlate(session_);
  ScopedSpan span(recorder_, "backend.correlate");
  timed_query_->Refresh(session_);
  dio::backend::FilePathCorrelator correlator(timed_query_.get());
  return correlator.Run(session_);
}

dio::Expected<std::vector<dio::backend::Finding>> Deployment::Detect() {
  ScopedSpan span(recorder_, "backend.detectors");
  return dio::backend::RunAllDetectors(query(), session_);
}

Deployment::Ledger Deployment::ReadLedger() const {
  Ledger ledger;
  std::vector<dio::transport::StageStats> stages;
  if (service_ != nullptr) {
    auto info = service_->GetSession(session_);
    if (info.ok()) {
      ledger.emitted = info->events_emitted;
      ledger.ring_dropped = info->events_dropped;
      ledger.transport_dropped = info->transport_dropped;
      ledger.dead_letters = info->transport_dead_letters;
      ledger.retries = info->transport_retries;
      if (info->transport_stages.is_array()) {
        for (const dio::Json& stage : info->transport_stages.as_array()) {
          ledger.queue_max_depth = std::max<std::uint64_t>(
              ledger.queue_max_depth,
              static_cast<std::uint64_t>(stage.GetInt("max_queue_depth")));
          const std::string stage_name = stage.GetString("stage");
          if (stage_name == "bulk" || stage_name == "cluster") {
            ledger.sink_batches +=
                static_cast<std::uint64_t>(stage.GetInt("batches_in"));
          }
        }
      }
    }
  } else if (tracer_ != nullptr) {
    const dio::tracer::TracerStats stats = tracer_->stats();
    ledger.enter_hits = stats.enter_hits;
    ledger.ring_pushed = stats.ring_pushed;
    ledger.ring_dropped = stats.ring_dropped;
    ledger.pending_overflow = stats.pending_overflow;
    ledger.emitted = stats.emitted;
    ledger.batches = stats.batches;
    for (const dio::transport::StageStats& stage : pipeline_->Stats()) {
      ledger.transport_dropped += stage.dropped_events;
      ledger.dead_letters += stage.dead_letter_events;
      ledger.retries += stage.retries;
      ledger.queue_max_depth = std::max<std::uint64_t>(
          ledger.queue_max_depth, stage.max_queue_depth);
      if (stage.stage == "bulk" || stage.stage == "cluster") {
        ledger.sink_batches += stage.batches_in;
      }
    }
  }
  if (tier_.router != nullptr) {
    ledger.cluster_rejects =
        tier_.router->rejected_events() - cluster_rejects_base_;
  }
  return ledger;
}

void Deployment::Accumulate(Ledger* sum, const Ledger& l) {
  sum->enter_hits += l.enter_hits;
  sum->ring_pushed += l.ring_pushed;
  sum->ring_dropped += l.ring_dropped;
  sum->pending_overflow += l.pending_overflow;
  sum->emitted += l.emitted;
  sum->batches += l.batches;
  sum->transport_dropped += l.transport_dropped;
  sum->dead_letters += l.dead_letters;
  sum->retries += l.retries;
  sum->queue_max_depth = std::max(sum->queue_max_depth, l.queue_max_depth);
  sum->cluster_rejects += l.cluster_rejects;
  sum->sink_batches += l.sink_batches;
}

// ---- generator --------------------------------------------------------

StreamIssuer::StreamIssuer(dio::os::Kernel* kernel, std::string root)
    : kernel_(kernel),
      issuer_(kernel,
              [root = std::move(root)](const std::string& path) {
                if (path.rfind("/data", 0) != 0) return path;
                return root + path.substr(5);
              }),
      probe_pid_(kernel->CreateProcess("perfbench-probe")),
      probe_tid_(kernel->SpawnThread(probe_pid_, "perfbench-probe")) {}

bool StreamIssuer::Issue(const dio::tracer::WireEvent& event) {
  const std::uint64_t before = issuer_.stats().issued;
  issuer_.Issue(event);
  if (issuer_.stats().issued == before) return false;
  ++issued_;
  ++tally_[std::string(
      dio::os::SyscallName(static_cast<dio::os::SyscallNr>(event.nr)))];
  return true;
}

void StreamIssuer::Stat(const std::string& path) {
  dio::os::ScopedTask task(*kernel_, probe_pid_, probe_tid_);
  dio::os::StatBuf buf;
  kernel_->sys_stat(path, &buf);
  ++issued_;
  ++tally_["stat"];
}

std::unique_ptr<dio::os::Kernel> MakeKernel() {
  auto kernel = std::make_unique<dio::os::Kernel>();
  dio::os::BlockDeviceOptions device;
  device.real_sleep = false;
  (void)kernel->MountDevice("/data", 7340032, device);
  return kernel;
}

void CreateFiles(dio::os::Kernel* kernel, const std::vector<std::string>& dirs,
                 const std::vector<std::string>& paths) {
  const dio::os::Pid pid = kernel->CreateProcess("perfbench-setup");
  const dio::os::Tid tid = kernel->SpawnThread(pid, "perfbench-setup");
  dio::os::ScopedTask task(*kernel, pid, tid);
  for (const std::string& dir : dirs) kernel->sys_mkdir(dir, 0755);
  for (const std::string& path : paths) {
    const std::int64_t fd = kernel->sys_creat(path, 0644);
    if (fd >= 0) kernel->sys_close(static_cast<dio::os::Fd>(fd));
  }
  kernel->ExitProcess(pid);
}

// ---- freshness probes -------------------------------------------------

ProbePoller::ProbePoller(dio::backend::QueryBackend* query, std::string index)
    : query_(query), index_(std::move(index)) {
  thread_ = std::thread([this] { Loop(); });
}

ProbePoller::~ProbePoller() { Finish(0); }

void ProbePoller::Publish(const std::string& path, Nanos returned_at) {
  std::scoped_lock lock(mu_);
  probes_.push_back({path, returned_at, -1});
}

void ProbePoller::Finish(Nanos timeout) {
  {
    std::scoped_lock lock(mu_);
    if (!thread_.joinable()) return;
    finishing_ = true;
    finish_deadline_ = Now() + timeout;
  }
  cv_.notify_all();
  thread_.join();
}

void ProbePoller::Loop() {
  // Probes come from one task, so they reach the index in issue order: a
  // round counts the oldest unseen probe, and the next ones only while
  // they keep turning up. Idle rounds are spaced kIdlePoll apart so the
  // poller's own queries stay a small share of the backend's work.
  constexpr auto kIdlePoll = std::chrono::milliseconds(2);
  for (;;) {
    std::string path;
    std::size_t i = 0;
    {
      std::unique_lock lock(mu_);
      while (first_unseen_ < probes_.size() &&
             probes_[first_unseen_].seen_at >= 0) {
        ++first_unseen_;
      }
      const bool done = first_unseen_ == probes_.size();
      if (finishing_ && (done || Now() >= finish_deadline_)) return;
      // The session's index exists once its first batch lands.
      if (done || !query_->HasIndex(index_)) {
        cv_.wait_for(lock, kIdlePoll, [this] { return finishing_; });
        continue;
      }
      i = first_unseen_;
      path = probes_[i].path;
    }
    auto count = query_->Count(
        index_, dio::backend::Query::Term("path", dio::Json(path)));
    polls_.fetch_add(1, std::memory_order_relaxed);
    if (!count.ok()) failed_polls_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock lock(mu_);
    if (count.ok() && *count > 0) {
      probes_[i].seen_at = Now();
      continue;
    }
    cv_.wait_for(lock, kIdlePoll, [this] { return finishing_; });
  }
}

std::vector<double> ProbePoller::freshness_ms() const {
  std::scoped_lock lock(mu_);
  std::vector<double> out;
  out.reserve(probes_.size());
  for (const Probe& p : probes_) {
    if (p.seen_at >= 0) out.push_back(ToMs(p.seen_at - p.returned_at));
  }
  return out;
}

std::size_t ProbePoller::published() const {
  std::scoped_lock lock(mu_);
  return probes_.size();
}

std::size_t ProbePoller::seen() const {
  std::scoped_lock lock(mu_);
  return static_cast<std::size_t>(
      std::count_if(probes_.begin(), probes_.end(),
                    [](const Probe& p) { return p.seen_at >= 0; }));
}

std::vector<std::string> ProbePoller::paths() const {
  std::scoped_lock lock(mu_);
  std::vector<std::string> out;
  out.reserve(probes_.size());
  for (const Probe& p : probes_) out.push_back(p.path);
  return out;
}

// ---- dashboards -------------------------------------------------------

int RenderDashboards(dio::backend::QueryBackend* query,
                     const std::string& index, Nanos interval_ns,
                     const std::string& table_syscall,
                     SpanRecorder* recorder) {
  const dio::viz::Dashboards dashboards(query, index);
  int failed = 0;
  {
    ScopedSpan span(recorder, "viz.summary");
    auto r = dashboards.SyscallSummary();
    failed += (r.ok() && r->row_count() > 0) ? 0 : 1;
  }
  {
    ScopedSpan span(recorder, "viz.timeline");
    auto r = dashboards.ThreadTimeline(interval_ns);
    failed += (r.ok() && !r->empty()) ? 0 : 1;
  }
  {
    ScopedSpan span(recorder, "viz.heatmap");
    auto r = dashboards.LatencyHeatmap(interval_ns);
    failed += (r.ok() && !r->empty()) ? 0 : 1;
  }
  {
    ScopedSpan span(recorder, "viz.share");
    auto r = dashboards.SyscallShare();
    failed += (r.ok() && !r->empty()) ? 0 : 1;
  }
  {
    ScopedSpan span(recorder, "viz.table");
    auto r = dashboards.SyscallTable(
        dio::backend::Query::Term("syscall", dio::Json(table_syscall)), 1000);
    failed += (r.ok() && r->row_count() > 0) ? 0 : 1;
  }
  return failed;
}

// ---- checks -----------------------------------------------------------

dio::Expected<std::map<std::string, std::uint64_t>> SyscallTerms(
    dio::backend::QueryBackend* query, const std::string& index) {
  auto agg = query->Aggregate(index, dio::backend::Query::MatchAll(),
                              dio::backend::Aggregation::Terms("syscall"));
  if (!agg.ok()) return agg.status();
  std::map<std::string, std::uint64_t> out;
  for (const dio::backend::AggBucket& bucket : agg->buckets) {
    out[bucket.key.is_string() ? bucket.key.as_string() : bucket.key.Dump()] =
        static_cast<std::uint64_t>(bucket.doc_count);
  }
  return out;
}

std::uint64_t CheckSession(
    Deployment& deployment, std::uint64_t issued,
    const std::map<std::string, std::uint64_t>& tally,
    const std::vector<std::string>& probes, RunResult* result) {
  dio::backend::QueryBackend* query = deployment.raw_query();
  const std::string& index = deployment.session();
  auto count = query->Count(index, dio::backend::Query::MatchAll());
  result->Check(count.ok(), index + ": count failed");
  const std::uint64_t indexed = count.ok() ? *count : 0;
  const Deployment::Ledger ledger = deployment.ReadLedger();
  result->Check(issued == indexed + ledger.lost(),
                index + ": ledger: issued " + std::to_string(issued) +
                    " != indexed " + std::to_string(indexed) + " + lost " +
                    std::to_string(ledger.lost()));
  if (ledger.lost() == 0) {
    auto terms = SyscallTerms(query, index);
    result->Check(terms.ok() && *terms == tally,
                  index + ": per-syscall terms differ from the generator");
  }
  std::size_t missing = 0;
  for (const std::string& path : probes) {
    auto n = query->Count(index,
                          dio::backend::Query::Term("path", dio::Json(path)));
    if (!n.ok() || *n != 1) ++missing;
  }
  result->Check(missing == 0, index + ": " + std::to_string(missing) +
                                  " probes not found exactly once");
  return indexed;
}

// ---- per-layer metrics ------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"loadgen.late_p99_ms", "ms"},
      {"oskernel.untraced_ops_per_s", "ops/s"},
      {"tracer.hook_ns_per_syscall", "ns"},
      {"tracer.enter_hits", "count"},
      {"tracer.ring_pushed", "count"},
      {"tracer.ring_dropped", "count"},
      {"tracer.pending_overflow", "count"},
      {"tracer.emitted", "count"},
      {"tracer.batches", "count"},
      {"tracer.events_per_batch", "ev/batch"},
      {"tracer.sink_wait_ms", "ms"},
      {"transport.queue_max_depth", "batches"},
      {"transport.dropped_events", "count"},
      {"transport.dead_letter_events", "count"},
      {"transport.retries", "count"},
      {"transport.bulk_busy_ms", "ms"},
      {"transport.bulk_network_wait_ms", "ms"},
      {"transport.spool_busy_ms", "ms"},
      {"transport.spool_bytes_per_event", "B/ev"},
      {"service.start_session_ms", "ms"},
      {"service.stop_session_ms", "ms"},
      {"backend.column_build_ms", "ms"},
      {"backend.refreshes", "count"},
      {"backend.refresh_pause_p99_ms", "ms"},
      {"backend.segments", "count"},
      {"backend.sealed_segments", "count"},
      {"backend.filter_cache_hit_ratio", "ratio"},
      {"backend.search_ms", "ms"},
      {"backend.count_ms", "ms"},
      {"backend.aggregate_ms", "ms"},
      {"backend.update_by_query_ms", "ms"},
      {"backend.query_calls", "count"},
      {"backend.correlate_ms", "ms"},
      {"backend.events_updated", "count"},
      {"backend.detectors_ms", "ms"},
      {"backend.preload_ms", "ms"},
      {"backend.restore_ms", "ms"},
      {"viz.summary_ms", "ms"},
      {"viz.timeline_ms", "ms"},
      {"viz.heatmap_ms", "ms"},
      {"viz.share_ms", "ms"},
      {"viz.table_ms", "ms"},
      {"viz.self_ms", "ms"},
      {"cluster.ingest_busy_ms", "ms"},
      {"cluster.settle_ms", "ms"},
      {"cluster.replication_applies", "count"},
      {"cluster.max_lag_batches", "batches"},
      {"cluster.fanout_shard_tasks", "count"},
      {"cluster.rejects", "count"},
      {"unattributed_ms", "ms"},
      {"profiler.overhead_pct", "%"},
      {"profiler.spans", "count"},
      {"profiler.spans_dropped", "count"},
      {"host.steal_pct", "%"},
      {"e2e.traced_ops_per_s", "ops/s"},
      {"e2e.syscall_p50_us", "us"},
      {"e2e.ingest_events_per_s", "ev/s"},
      {"e2e.freshness_p50_ms", "ms"},
      {"e2e.freshness_p90_ms", "ms"},
      {"e2e.dashboard_p50_ms", "ms"},
      {"e2e.syscall_p99_us", "us"},
      {"e2e.freshness_p99_ms", "ms"},
      {"e2e.diagnosis_s", "s"},
      {"e2e.restore_events_per_s", "ev/s"},
      {"e2e.loss_ratio", "ratio"},
  };
  return kNames;
}

void AddBackendLayerMetrics(dio::backend::QueryBackend* query,
                            const std::string& index, RunResult* result) {
  auto stats = query->Stats(index);
  if (!stats.ok()) return;
  result->Set("backend.column_build_ms",
              static_cast<double>(stats->column_build_ns) / 1e6, "ms");
  result->Set("backend.refreshes", static_cast<double>(stats->refreshes),
              "count");
  std::vector<double> pauses;
  pauses.reserve(stats->refresh_pause_ns.size());
  for (const std::uint64_t p : stats->refresh_pause_ns) {
    pauses.push_back(static_cast<double>(p) / 1e6);
  }
  result->Set("backend.refresh_pause_p99_ms", NearestRank(pauses, 99.0), "ms");
  result->Set("backend.segments", static_cast<double>(stats->segments),
              "count");
  result->Set("backend.sealed_segments",
              static_cast<double>(stats->sealed_segments), "count");
  const double lookups = static_cast<double>(stats->filter_cache_hits +
                                             stats->filter_cache_misses);
  result->Set("backend.filter_cache_hit_ratio",
              lookups == 0
                  ? 0.0
                  : static_cast<double>(stats->filter_cache_hits) / lookups,
              "ratio");
}

void AddLedgerLayerMetrics(const Deployment::Ledger& l, RunResult* result) {
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  result->Set("tracer.enter_hits", count(l.enter_hits), "count");
  result->Set("tracer.ring_pushed", count(l.ring_pushed), "count");
  result->Set("tracer.ring_dropped", count(l.ring_dropped), "count");
  result->Set("tracer.pending_overflow", count(l.pending_overflow), "count");
  result->Set("tracer.emitted", count(l.emitted), "count");
  result->Set("tracer.batches", count(l.batches), "count");
  result->Set("tracer.events_per_batch",
              l.batches == 0 ? 0.0 : count(l.emitted) / count(l.batches),
              "ev/batch");
  result->Set("transport.queue_max_depth", count(l.queue_max_depth),
              "batches");
  result->Set("transport.dropped_events", count(l.transport_dropped),
              "count");
  result->Set("transport.dead_letter_events", count(l.dead_letters), "count");
  result->Set("transport.retries", count(l.retries), "count");
}

void AddSpanLayerMetrics(const SpanRecorder& recorder, RunResult* result) {
  const std::map<std::string, SpanTotals> totals = recorder.Totals();
  const auto total_ms = [&](const std::string& name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : ToMs(it->second.total);
  };
  result->Set("tracer.sink_wait_ms", total_ms("tracer.sink"), "ms");
  result->Set("transport.bulk_busy_ms",
              total_ms("transport.bulk") + total_ms("transport.bulk_flush"),
              "ms");
  result->Set("transport.spool_busy_ms",
              total_ms("transport.spool") + total_ms("transport.spool_flush"),
              "ms");
  result->Set("service.start_session_ms", total_ms("service.start_session"),
              "ms");
  result->Set("service.stop_session_ms", total_ms("service.stop_session"),
              "ms");
  result->Set("backend.search_ms", total_ms("backend.search"), "ms");
  result->Set("backend.count_ms", total_ms("backend.count"), "ms");
  result->Set("backend.aggregate_ms", total_ms("backend.aggregate"), "ms");
  result->Set("backend.update_by_query_ms", total_ms("backend.update_by_query"),
              "ms");
  std::uint64_t query_calls = 0;
  for (const char* name : {"backend.search", "backend.count",
                           "backend.aggregate", "backend.update_by_query"}) {
    auto it = totals.find(name);
    if (it != totals.end()) query_calls += it->second.count;
  }
  result->Set("backend.query_calls", static_cast<double>(query_calls),
              "count");
  result->Set("backend.correlate_ms", total_ms("backend.correlate"), "ms");
  result->Set("backend.detectors_ms", total_ms("backend.detectors"), "ms");
  result->Set("viz.summary_ms", total_ms("viz.summary"), "ms");
  result->Set("viz.timeline_ms", total_ms("viz.timeline"), "ms");
  result->Set("viz.heatmap_ms", total_ms("viz.heatmap"), "ms");
  result->Set("viz.share_ms", total_ms("viz.share"), "ms");
  result->Set("viz.table_ms", total_ms("viz.table"), "ms");
  double viz_self = 0;
  for (const auto& [name, t] : totals) {
    if (name.rfind("viz.", 0) == 0) viz_self += ToMs(t.self);
  }
  result->Set("viz.self_ms", viz_self, "ms");
  result->Set("cluster.ingest_busy_ms", total_ms("cluster.ingest"), "ms");
  result->Set("cluster.settle_ms", total_ms("cluster.settle"), "ms");
  std::uint64_t spans = 0;
  for (const auto& [name, t] : totals) spans += t.count;
  result->Set("profiler.spans", static_cast<double>(spans), "count");
  result->Set("profiler.spans_dropped", static_cast<double>(recorder.dropped()),
              "count");
}

}  // namespace perfbench
