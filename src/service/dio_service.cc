#include "service/dio_service.h"

#include <utility>

#include "trace/writer.h"

namespace dio::service {

Json SessionInfo::ToJson() const {
  Json out = Json::MakeObject();
  out.Set("name", name);
  out.Set("owner", owner);
  out.Set("active", active);
  out.Set("started_at", started_at);
  out.Set("stopped_at", stopped_at);
  out.Set("events_emitted", static_cast<std::int64_t>(events_emitted));
  out.Set("events_dropped", static_cast<std::int64_t>(events_dropped));
  out.Set("transport_dropped", static_cast<std::int64_t>(transport_dropped));
  out.Set("transport_retries", static_cast<std::int64_t>(transport_retries));
  out.Set("transport_dead_letters",
          static_cast<std::int64_t>(transport_dead_letters));
  out.Set("transport_stages", transport_stages);
  if (cluster_health.is_object()) out.Set("cluster", cluster_health);
  if (filter_cache.is_object()) out.Set("filter_cache", filter_cache);
  out.Set("column_rows_written",
          static_cast<std::int64_t>(column_rows_written));
  out.Set("column_bytes", static_cast<std::int64_t>(column_bytes));
  return out;
}

Expected<BackendTier> BuildBackendTier(const Config& config) {
  BackendTier tier;
  const backend::ElasticStoreOptions store_options =
      backend::ElasticStoreOptions::FromConfig(config);
  bool clustered = false;
  for (const auto& [key, value] : config.entries()) {
    if (key.rfind("cluster.", 0) == 0) {
      clustered = true;
      break;
    }
  }
  if (clustered) {
    auto cluster_options = cluster::ClusterOptions::FromConfig(config);
    if (!cluster_options.ok()) return cluster_options.status();
    cluster_options->store = store_options;
    tier.router = std::make_unique<cluster::ClusterRouter>(*cluster_options);
    tier.query = tier.router.get();
  } else {
    tier.store = std::make_unique<backend::ElasticStore>(store_options);
    tier.query = tier.store.get();
  }
  return tier;
}

DioService::DioService(os::Kernel* kernel, backend::ElasticStore* store)
    : kernel_(kernel), store_(store), backend_(store) {}

DioService::DioService(os::Kernel* kernel, cluster::ClusterRouter* router)
    : kernel_(kernel), router_(router), backend_(router) {}

DioService::~DioService() { StopAll(); }

Expected<SessionInfo> DioService::StartSession(
    tracer::TracerOptions options, std::string owner,
    backend::BulkClientOptions client_options,
    transport::PipelineOptions pipeline_options) {
  if (options.session_name.empty()) {
    return InvalidArgument("session name must not be empty");
  }
  std::scoped_lock lock(mu_);
  if (sessions_.contains(options.session_name)) {
    return AlreadyExists("session exists: " + options.session_name);
  }
  if (backend_->HasIndex(options.session_name)) {
    return AlreadyExists("backend index exists: " + options.session_name);
  }

  Session session;
  session.info.name = options.session_name;
  session.info.owner = std::move(owner);
  session.info.active = true;
  session.info.started_at = kernel_->clock()->NowNanos();

  const std::string index = options.session_name;
  auto make_sink = [this, &index, &client_options](
                       const std::string& sink_name,
                       const transport::PipelineOptions& popts)
      -> Expected<std::unique_ptr<transport::Transport>> {
    // "trace" terminal: the binary record tap (transport.trace_path). Listed
    // alongside "bulk" it tees the session into a replayable trace file.
    if (sink_name == "trace") {
      auto sink = trace::TraceRecordSink::Open(popts.trace_path);
      if (!sink.ok()) return sink.status();
      return std::unique_ptr<transport::Transport>(std::move(*sink));
    }
    if (sink_name != "bulk") {
      return InvalidArgument("dio service: unknown sink: " + sink_name);
    }
    // The "bulk" terminal resolves to whichever backend tier the service
    // fronts: a single-store bulk client, or the cluster's replicated,
    // ack-gated ingest sink.
    if (router_ != nullptr) {
      return std::unique_ptr<transport::Transport>(
          std::make_unique<cluster::ClusterBulkSink>(
              router_, index, client_options.network_latency_ns,
              kernel_->clock()));
    }
    return std::unique_ptr<transport::Transport>(
        std::make_unique<backend::BulkClient>(store_, index, client_options,
                                              kernel_->clock()));
  };
  auto pipeline = transport::Pipeline::Build(index, pipeline_options,
                                             make_sink, kernel_->clock());
  if (!pipeline.ok()) return pipeline.status();
  session.pipeline = std::move(*pipeline);
  session.tracer = std::make_unique<tracer::DioTracer>(
      kernel_, session.pipeline.get(), std::move(options));
  DIO_RETURN_IF_ERROR(session.tracer->Start());

  RefreshInfoLocked(session);
  SessionInfo info = session.info;
  sessions_[info.name] = std::move(session);
  return info;
}

Expected<SessionInfo> DioService::StartSessionFromConfig(const Config& config,
                                                         std::string owner) {
  auto tracer_options = tracer::TracerOptions::FromConfig(config);
  if (!tracer_options.ok()) return tracer_options.status();
  auto pipeline_options = transport::PipelineOptions::FromConfig(config);
  if (!pipeline_options.ok()) return pipeline_options.status();
  return StartSession(std::move(tracer_options).value(), std::move(owner),
                      backend::BulkClientOptions::FromConfig(config),
                      std::move(pipeline_options).value());
}

Status DioService::StopSession(const std::string& name) {
  std::scoped_lock lock(mu_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) return NotFound("no such session: " + name);
  Session& session = it->second;
  if (!session.info.active) {
    return FailedPrecondition("session already stopped: " + name);
  }
  // Deterministic drain order: Stop() detaches the tracepoints and joins
  // the consumer threads (no more producers), then the transport chain is
  // flushed head-to-sink so every accepted batch is delivered or counted —
  // the Flush() guarantee holds even on abnormal teardown via StopAll().
  session.tracer->Stop();
  session.pipeline->Flush();
  session.info.active = false;
  session.info.stopped_at = kernel_->clock()->NowNanos();
  RefreshInfoLocked(session);
  return Status::Ok();
}

void DioService::StopAll() {
  std::scoped_lock lock(mu_);
  for (auto& [name, session] : sessions_) {
    if (session.info.active) {
      session.tracer->Stop();
      session.pipeline->Flush();
      session.info.active = false;
      session.info.stopped_at = kernel_->clock()->NowNanos();
      RefreshInfoLocked(session);
    }
  }
}

SessionInfo DioService::SnapshotLocked(const Session& session) const {
  SessionInfo info = session.info;
  const tracer::TracerStats stats = session.tracer->stats();
  info.events_emitted = stats.emitted;
  info.events_dropped = stats.ring_dropped + stats.pending_overflow;
  info.transport_dropped = 0;
  info.transport_retries = 0;
  info.transport_dead_letters = 0;
  for (const transport::StageStats& stage : session.pipeline->Stats()) {
    info.transport_dropped += stage.dropped_events;
    info.transport_retries += stage.retries;
    info.transport_dead_letters += stage.dead_letter_events;
  }
  info.transport_stages = session.pipeline->StatsJson();
  if (router_ != nullptr) info.cluster_health = router_->HealthJson();
  if (auto stats = backend_->Stats(info.name); stats.ok()) {
    Json cache = Json::MakeObject();
    cache.Set("hits", static_cast<std::int64_t>(stats->filter_cache_hits));
    cache.Set("misses", static_cast<std::int64_t>(stats->filter_cache_misses));
    cache.Set("evictions",
              static_cast<std::int64_t>(stats->filter_cache_evictions));
    info.filter_cache = cache;
    info.column_rows_written = stats->column_rows_written;
    info.column_bytes = stats->column_bytes;
  }
  return info;
}

void DioService::RefreshInfoLocked(Session& session) const {
  session.info = SnapshotLocked(session);
}

std::vector<SessionInfo> DioService::ListSessions() const {
  std::scoped_lock lock(mu_);
  std::vector<SessionInfo> out;
  out.reserve(sessions_.size());
  for (const auto& [name, session] : sessions_) {
    out.push_back(SnapshotLocked(session));
  }
  return out;
}

Expected<SessionInfo> DioService::GetSession(const std::string& name) const {
  std::scoped_lock lock(mu_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) return NotFound("no such session: " + name);
  return SnapshotLocked(it->second);
}

Expected<backend::CorrelationStats> DioService::Correlate(
    const std::string& name) {
  {
    std::scoped_lock lock(mu_);
    if (!sessions_.contains(name) && !backend_->HasIndex(name)) {
      return NotFound("no such session: " + name);
    }
  }
  backend_->Refresh(name);
  backend::FilePathCorrelator correlator(backend_);
  return correlator.Run(name);
}

Expected<std::vector<backend::Finding>> DioService::Diagnose(
    const std::string& name) {
  DIO_RETURN_IF_ERROR(Correlate(name).status());
  return backend::RunAllDetectors(backend_, name);
}

}  // namespace dio::service
