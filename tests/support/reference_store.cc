#include "support/reference_store.h"

#include <algorithm>

#include "tracer/event.h"

namespace dio::testing {

using backend::DocId;

void ReferenceStore::Bulk(const std::string& index,
                          std::vector<Json> documents) {
  std::vector<Json>& pending = indices_[index].pending;
  std::move(documents.begin(), documents.end(), std::back_inserter(pending));
}

void ReferenceStore::BulkWire(const std::string& index,
                              std::string_view session,
                              const std::vector<tracer::WireEvent>& records) {
  std::vector<Json>& pending = indices_[index].pending;
  for (const tracer::WireEvent& record : records) {
    pending.push_back(tracer::WireEventToJson(record, session));
  }
}

void ReferenceStore::Refresh(const std::string& index) {
  auto it = indices_.find(index);
  if (it == indices_.end()) return;
  Index& target = it->second;
  std::move(target.pending.begin(), target.pending.end(),
            std::back_inserter(target.docs));
  target.pending.clear();
}

const ReferenceStore::Index* ReferenceStore::Find(
    const std::string& index) const {
  auto it = indices_.find(index);
  return it == indices_.end() ? nullptr : &it->second;
}

std::vector<DocId> ReferenceStore::Matching(const Index& index,
                                            const backend::Query& query) {
  std::vector<DocId> ids;
  for (std::size_t pos = 0; pos < index.docs.size(); ++pos) {
    if (query.Matches(index.docs[pos])) ids.push_back(pos);
  }
  return ids;
}

std::vector<const Json*> ReferenceStore::Docs(const Index& index,
                                              const std::vector<DocId>& ids) {
  std::vector<const Json*> docs;
  docs.reserve(ids.size());
  for (const DocId id : ids) docs.push_back(&index.docs[id]);
  return docs;
}

Expected<backend::SearchResult> ReferenceStore::Search(
    const std::string& index_name,
    const backend::SearchRequest& request) const {
  const Index* index = Find(index_name);
  if (index == nullptr) return NotFound("no such index: " + index_name);
  std::vector<DocId> ids = Matching(*index, request.query);
  // Missing values sort last regardless of direction; numbers and strings
  // compare within their class, anything else ties; docid breaks ties.
  std::stable_sort(ids.begin(), ids.end(), [&](DocId a, DocId b) {
    for (const backend::SortSpec& spec : request.sort) {
      const Json* va = index->docs[a].Find(spec.field);
      const Json* vb = index->docs[b].Find(spec.field);
      if (va == nullptr && vb == nullptr) continue;
      if (va == nullptr) return false;
      if (vb == nullptr) return true;
      int cmp = 0;
      if (va->is_number() && vb->is_number()) {
        const double da = va->as_double();
        const double db = vb->as_double();
        cmp = da < db ? -1 : (da > db ? 1 : 0);
      } else if (va->is_string() && vb->is_string()) {
        cmp = va->as_string().compare(vb->as_string());
      }
      if (cmp != 0) return spec.ascending ? cmp < 0 : cmp > 0;
    }
    return a < b;
  });
  backend::SearchResult result;
  result.total = ids.size();
  const std::size_t start = std::min(request.from, ids.size());
  const std::size_t end = start + std::min(request.size, ids.size() - start);
  for (std::size_t i = start; i < end; ++i) {
    result.hits.push_back(backend::Hit{ids[i], index->docs[ids[i]]});
  }
  return result;
}

Expected<std::size_t> ReferenceStore::Count(
    const std::string& index_name, const backend::Query& query) const {
  const Index* index = Find(index_name);
  if (index == nullptr) return NotFound("no such index: " + index_name);
  return Matching(*index, query).size();
}

Expected<backend::AggResult> ReferenceStore::Aggregate(
    const std::string& index_name, const backend::Query& query,
    const backend::Aggregation& agg) const {
  const Index* index = Find(index_name);
  if (index == nullptr) return NotFound("no such index: " + index_name);
  return agg.Execute(Docs(*index, Matching(*index, query)));
}

Expected<backend::AggPartial> ReferenceStore::AggregatePartial(
    const std::string& index_name, const backend::Query& query,
    const backend::Aggregation& agg) const {
  const Index* index = Find(index_name);
  if (index == nullptr) return NotFound("no such index: " + index_name);
  return agg.ExecutePartial(Docs(*index, Matching(*index, query)));
}

Expected<std::size_t> ReferenceStore::UpdateByQuery(
    const std::string& index_name, const backend::Query& query,
    const std::function<bool(Json&)>& update) {
  auto it = indices_.find(index_name);
  if (it == indices_.end()) return NotFound("no such index: " + index_name);
  Index& index = it->second;
  std::size_t modified = 0;
  for (const DocId id : Matching(index, query)) {
    if (update(index.docs[id])) ++modified;
  }
  return modified;
}

bool ReferenceStore::HasIndex(const std::string& index) const {
  return indices_.contains(index);
}

Expected<backend::IndexStats> ReferenceStore::Stats(
    const std::string& index_name) const {
  const Index* index = Find(index_name);
  if (index == nullptr) return NotFound("no such index: " + index_name);
  backend::IndexStats stats;
  stats.doc_count = index->docs.size();
  stats.pending_count = index->pending.size();
  return stats;
}

}  // namespace dio::testing
