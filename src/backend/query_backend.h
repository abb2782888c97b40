// QueryBackend: the abstract query surface of the analysis tier. Everything
// that *reads* traced data — the file-path correlator, the misbehaviour
// detectors, the dashboards, DioService's analysis entry points — is written
// against this interface, so the same algorithms run unchanged over a
// single embedded ElasticStore or over a multi-node cluster of them
// (cluster::ClusterRouter): the paper's "dedicated analysis servers"
// deployment shape without forking the analysis code.
//
// The request/response vocabulary (SearchRequest, SearchResult, Hit,
// IndexStats) lives here because it is the contract between backends and
// their consumers; ElasticStore adds the ingest/refresh/snapshot surface on
// top in store.h.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "backend/aggregation.h"
#include "backend/query.h"
#include "common/json.h"
#include "common/status.h"

namespace dio::backend {

using DocId = std::uint64_t;

struct Hit {
  DocId id = 0;
  Json source;
};

struct SortSpec {
  std::string field;
  bool ascending = true;
};

struct SearchRequest {
  Query query = Query::MatchAll();
  std::vector<SortSpec> sort;  // empty = docid (ingestion) order
  std::size_t from = 0;
  std::size_t size = 10'000;

  // Parses an Elasticsearch-style search body:
  //   {"query": {...}, "sort": ["time_enter", {"ret": {"order": "desc"}}],
  //    "from": 0, "size": 100}
  // Rejects requests paging past `max_result_window` (from + size), like
  // ES's index.max_result_window guard.
  static Expected<SearchRequest> FromJson(
      const Json& body, std::size_t max_result_window = 10'000);
  static Expected<SearchRequest> FromJsonText(
      std::string_view text, std::size_t max_result_window = 10'000);
};

struct SearchResult {
  std::vector<Hit> hits;
  std::size_t total = 0;  // matches before from/size paging
};

struct IndexStats {
  std::size_t doc_count = 0;       // searchable documents
  std::size_t pending_count = 0;   // bulked but not yet refreshed
  std::size_t typed_rows = 0;      // rows ingested via the typed route
  std::uint64_t bulk_requests = 0;
  std::uint64_t updates = 0;
  // Columnar engine: fields with doc-value columns (summed over sub-shards),
  // cumulative time spent building columns, column rows written (appended
  // rows, rows copied when a full buffer regrew, and rows an end-of-stream
  // trim copied: between one and about three per indexed row, since a
  // refresh never copies the tail it extends), and filter-bitmap cache
  // traffic.
  std::size_t doc_value_fields = 0;
  std::uint64_t column_build_ns = 0;
  std::uint64_t column_rows_written = 0;
  // Memory of the published segments' columns, counted by capacity: slot
  // cells (a kind byte and an int64 each), double arrays (only in columns
  // that hold a double), dictionaries (strings, and their lookup maps where
  // a column still keeps one) and rank tables.
  std::uint64_t column_bytes = 0;
  // Row slots the published segments' buffers hold room for. Sealed blocks
  // hold exactly their rows, so column_slots - doc_count is the unsealed
  // tails' growth slack (0 after ElasticStore::TrimTails).
  std::uint64_t column_slots = 0;
  // Entries of the row store: JSON rows, plus a null entry for each typed
  // row below a shard's last JSON row (0 on an index of typed rows only).
  std::size_t row_store_docs = 0;
  std::uint64_t filter_cache_hits = 0;
  std::uint64_t filter_cache_misses = 0;
  std::uint64_t filter_cache_evictions = 0;
  // Sealed-segment layout: total and sealed column blocks across sub-shards,
  // completed refreshes, and the exclusive-window duration of each recent
  // refresh (the pause concurrent queries can observe; bounded by tail
  // size when backend.segment_docs > 0).
  std::size_t segments = 0;
  std::size_t sealed_segments = 0;
  std::uint64_t refreshes = 0;
  std::vector<std::uint64_t> refresh_pause_ns;
  // Cluster query fan-out (zero on a single store): queries that took the
  // pooled scatter path, and per-shard tasks they fanned out.
  std::uint64_t fanout_queries = 0;
  std::uint64_t fanout_shard_tasks = 0;
};

// The read/analysis contract every backend implementation honors. All
// implementations return hits in ascending docid (ingestion) order when no
// sort is given, apply the same missing-last sort semantics, and count only
// actually-modified documents in UpdateByQuery — so analysis results are
// byte-identical across backends holding the same documents.
class QueryBackend {
 public:
  virtual ~QueryBackend() = default;

  [[nodiscard]] virtual Expected<SearchResult> Search(
      const std::string& index, const SearchRequest& request) const = 0;
  [[nodiscard]] virtual Expected<std::size_t> Count(
      const std::string& index, const Query& query) const = 0;
  [[nodiscard]] virtual Expected<AggResult> Aggregate(
      const std::string& index, const Query& query,
      const Aggregation& agg) const = 0;

  // Applies `update` to every matching document. The callback returns
  // whether it modified the document; only modified documents are
  // re-indexed and counted. Returns the number of documents modified.
  virtual Expected<std::size_t> UpdateByQuery(
      const std::string& index, const Query& query,
      const std::function<bool(Json&)>& update) = 0;

  // Makes all buffered documents searchable (near-real-time refresh).
  virtual void Refresh(const std::string& index) = 0;
  [[nodiscard]] virtual bool HasIndex(const std::string& index) const = 0;
  [[nodiscard]] virtual Expected<IndexStats> Stats(
      const std::string& index) const = 0;
};

}  // namespace dio::backend
