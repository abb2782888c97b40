// ReferenceStore: the parity suites' oracle for ElasticStore.
//
// A deliberately naive model of the store's observable behaviour: each index
// is a vector of JSON documents in docid order, filtered with
// Query::Matches, sorted with a stable per-comparison Json::Find
// comparator, aggregated with Aggregation::Execute, and updated in place.
// It has no columns, no bitmaps, no segments and no shards, so it shares no
// code path with the engine it checks beyond the Query and Aggregation
// definitions themselves. Wire records enter as tracer::WireEventToJson
// documents, which is exactly what the typed route must reproduce.
//
// Near-real-time semantics match the store: Bulk/BulkWire buffer documents,
// Refresh makes them searchable, and UpdateByQuery only sees searchable
// documents.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "backend/query_backend.h"
#include "common/json.h"
#include "common/status.h"
#include "tracer/wire.h"

namespace dio::testing {

class ReferenceStore final : public backend::QueryBackend {
 public:
  void Bulk(const std::string& index, std::vector<Json> documents);
  void BulkWire(const std::string& index, std::string_view session,
                const std::vector<tracer::WireEvent>& records);
  void Refresh(const std::string& index) override;

  [[nodiscard]] Expected<backend::SearchResult> Search(
      const std::string& index,
      const backend::SearchRequest& request) const override;
  [[nodiscard]] Expected<std::size_t> Count(
      const std::string& index, const backend::Query& query) const override;
  [[nodiscard]] Expected<backend::AggResult> Aggregate(
      const std::string& index, const backend::Query& query,
      const backend::Aggregation& agg) const override;
  [[nodiscard]] Expected<backend::AggPartial> AggregatePartial(
      const std::string& index, const backend::Query& query,
      const backend::Aggregation& agg) const;
  Expected<std::size_t> UpdateByQuery(
      const std::string& index, const backend::Query& query,
      const std::function<bool(Json&)>& update) override;

  [[nodiscard]] bool HasIndex(const std::string& index) const override;
  // Only doc_count and pending_count are modelled.
  [[nodiscard]] Expected<backend::IndexStats> Stats(
      const std::string& index) const override;

 private:
  struct Index {
    std::vector<Json> docs;     // searchable, position = docid
    std::vector<Json> pending;  // bulked, not yet refreshed
  };

  [[nodiscard]] const Index* Find(const std::string& index) const;
  // Docids of the searchable documents `query` matches, ascending.
  [[nodiscard]] static std::vector<backend::DocId> Matching(
      const Index& index, const backend::Query& query);
  [[nodiscard]] static std::vector<const Json*> Docs(
      const Index& index, const std::vector<backend::DocId>& ids);

  std::map<std::string, Index> indices_;
};

}  // namespace dio::testing
