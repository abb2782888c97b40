// BulkClient: the terminal bulk-indexing sink for the backend (the
// go-elasticsearch bulk API stand-in, §II-E). Delivery is synchronous: one
// Submit = one simulated network hop + one store bulk request. Queueing,
// backpressure, retry, and fan-out all live ABOVE this sink in the
// transport layer (transport/pipeline.h) — wiring a session through a
// transport::Pipeline restores the paper's asynchronous shipping while
// keeping this client a dumb wire.
//
// The tracer::EventSink facade remains for direct (synchronous) use in
// small tools and tests; DioService and DioAdapter always go through a
// pipeline.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "backend/store.h"
#include "common/clock.h"
#include "common/config.h"
#include "tracer/sink.h"
#include "transport/transport.h"

namespace dio::backend {

struct BulkClientOptions {
  // Simulated one-way network latency to the backend server (the paper runs
  // the pipeline on separate machines).
  Nanos network_latency_ns = 200 * kMicrosecond;
  // Refresh the index after every N bulk requests so data is searchable in
  // near real-time (0 = only on Flush).
  std::size_t refresh_every_batches = 8;
  // §II-E: "The file path correlation algorithm can be automatically
  // executed by the tracer or on-demand by users." When true, Flush() runs
  // the correlation algorithm after refreshing, so file_path is populated
  // without user intervention.
  bool auto_correlate = false;

  // Reads the bulk-sink keys of the [transport] section
  // (network_latency_ns, refresh_every_batches, auto_correlate).
  static BulkClientOptions FromConfig(const Config& config);
};

class BulkClient final : public transport::Transport,
                         public tracer::EventSink {
 public:
  BulkClient(ElasticStore* store, std::string index,
             BulkClientOptions options = {},
             Clock* clock = SteadyClock::Instance());

  BulkClient(const BulkClient&) = delete;
  BulkClient& operator=(const BulkClient&) = delete;

  // transport::Transport (terminal stage): synchronous delivery.
  Status Submit(transport::EventBatch batch) override;
  void CollectStats(std::vector<transport::StageStats>* out) const override;
  [[nodiscard]] std::string_view name() const override { return "bulk"; }

  // Shared by both interfaces: refreshes the index (and optionally runs
  // the correlation algorithm), then trims its tails to exactly their rows
  // (ElasticStore::TrimTails), since a flush ends the stream. Synchronous,
  // so there is nothing to drain.
  void Flush() override;

  // tracer::EventSink facade for direct use without a pipeline.
  void IndexBatch(std::vector<Json> documents) override;
  void IndexEvents(std::string_view session,
                   std::vector<tracer::Event> events) override;

  [[nodiscard]] std::uint64_t batches_sent() const {
    std::scoped_lock lock(mu_);
    return stats_.batches_in;
  }
  [[nodiscard]] const std::string& index() const { return index_; }

 private:
  ElasticStore* store_;
  std::string index_;
  BulkClientOptions options_;
  Clock* clock_;

  mutable std::mutex mu_;
  transport::StageStats stats_;
};

}  // namespace dio::backend
