#include "backend/bulk_client.h"

#include <utility>

#include "backend/correlation.h"

namespace dio::backend {

BulkClientOptions BulkClientOptions::FromConfig(const Config& config) {
  BulkClientOptions options;
  options.network_latency_ns = config.GetInt("transport.network_latency_ns",
                                             options.network_latency_ns);
  options.refresh_every_batches = static_cast<std::size_t>(
      config.GetInt("transport.refresh_every_batches",
                    static_cast<std::int64_t>(options.refresh_every_batches)));
  options.auto_correlate =
      config.GetBool("transport.auto_correlate", options.auto_correlate);
  return options;
}

BulkClient::BulkClient(ElasticStore* store, std::string index,
                       BulkClientOptions options, Clock* clock)
    : store_(store),
      index_(std::move(index)),
      options_(options),
      clock_(clock) {
  stats_.stage = "bulk";
}

Status BulkClient::Submit(transport::EventBatch batch) {
  if (batch.empty()) return Status::Ok();
  // Network hop to the backend server (virtual time under a ManualClock).
  clock_->SleepFor(options_.network_latency_ns);
  const std::size_t batch_events = batch.size();
  if (!batch.wire.empty()) {
    // Typed route: the wire records go to the store as-is and become
    // doc-value columns at Refresh, with no JSON document in between. Any
    // Event/document payload riding the same batch takes the JSON route
    // below.
    store_->BulkWire(index_, batch.session, std::move(batch.wire));
    batch.wire.clear();
  }
  if (!batch.events.empty() || !batch.documents.empty()) {
    // Deferred materialization: binary events become JSON documents only
    // here, on the far side of the wire — never on a tracer drain loop.
    batch.Materialize();
    store_->Bulk(index_, std::move(batch.documents));
  }
  bool refresh = false;
  {
    std::scoped_lock lock(mu_);
    stats_.batches_in += 1;
    stats_.events_in += batch_events;
    stats_.batches_out += 1;
    stats_.events_out += batch_events;
    refresh = options_.refresh_every_batches > 0 &&
              stats_.batches_in % options_.refresh_every_batches == 0;
  }
  if (refresh) store_->Refresh(index_);
  return Status::Ok();
}

void BulkClient::Flush() {
  store_->Refresh(index_);
  if (options_.auto_correlate) {
    FilePathCorrelator correlator(store_);
    (void)correlator.Run(index_);
  }
  // The stream has ended here: the index keeps exactly its rows.
  store_->TrimTails(index_);
}

void BulkClient::IndexBatch(std::vector<Json> documents) {
  if (documents.empty()) return;
  transport::EventBatch batch;
  batch.documents = std::move(documents);
  (void)Submit(std::move(batch));
}

void BulkClient::IndexEvents(std::string_view session,
                             std::vector<tracer::Event> events) {
  if (events.empty()) return;
  transport::EventBatch batch;
  batch.session = std::string(session);
  batch.events = std::move(events);
  (void)Submit(std::move(batch));
}

void BulkClient::CollectStats(
    std::vector<transport::StageStats>* out) const {
  std::scoped_lock lock(mu_);
  out->push_back(stats_);
}

}  // namespace dio::backend
