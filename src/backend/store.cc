#include "backend/store.h"

#include <algorithm>
#include <condition_variable>
#include <fstream>
#include <numeric>
#include <optional>
#include <thread>

#include "backend/simd_kernels.h"
#include "backend/typed_ingest.h"

namespace dio::backend {

Expected<SearchRequest> SearchRequest::FromJson(const Json& body,
                                                std::size_t max_result_window) {
  if (!body.is_object()) {
    return InvalidArgument("search body must be an object");
  }
  SearchRequest request;
  for (const JsonMember& member : body.as_object()) {
    const std::string& key = member.first;
    const Json& value = member.second;
    if (key == "query") {
      auto query = Query::FromJson(value);
      if (!query.ok()) return query.status();
      request.query = std::move(query.value());
    } else if (key == "sort") {
      if (!value.is_array()) {
        return InvalidArgument("sort must be an array");
      }
      for (const Json& spec : value.as_array()) {
        if (spec.is_string()) {
          request.sort.push_back({spec.as_string(), true});
        } else if (spec.is_object() && spec.as_object().size() == 1) {
          const auto& [field, opts] = spec.as_object().front();
          const bool ascending = opts.GetString("order", "asc") != "desc";
          request.sort.push_back({field, ascending});
        } else {
          return InvalidArgument("bad sort spec");
        }
      }
    } else if (key == "from") {
      if (!value.is_number() || value.as_int() < 0) {
        return InvalidArgument("from must be a non-negative number");
      }
      request.from = static_cast<std::size_t>(value.as_int());
    } else if (key == "size") {
      if (!value.is_number() || value.as_int() < 0) {
        return InvalidArgument("size must be a non-negative number");
      }
      request.size = static_cast<std::size_t>(value.as_int());
    } else {
      return InvalidArgument("unknown search body key: " + key);
    }
  }
  if (request.size > max_result_window ||
      request.from > max_result_window - request.size) {
    return InvalidArgument(
        "from + size must be <= max_result_window (" +
        std::to_string(max_result_window) + ")");
  }
  return request;
}

Expected<SearchRequest> SearchRequest::FromJsonText(
    std::string_view text, std::size_t max_result_window) {
  auto parsed = Json::Parse(text);
  if (!parsed.ok()) return parsed.status();
  return FromJson(*parsed, max_result_window);
}

ElasticStoreOptions ElasticStoreOptions::FromConfig(const Config& config) {
  WarnUnknownKeys(config, "backend",
                  {"shards_per_index", "query_threads", "simd_kernels",
                   "max_result_window", "segment_docs",
                   "filter_cache_entries"});
  ElasticStoreOptions opts;
  opts.shards_per_index = static_cast<std::size_t>(std::max<std::int64_t>(
      1, config.GetInt("backend.shards_per_index",
                       static_cast<std::int64_t>(opts.shards_per_index))));
  opts.query_threads = static_cast<std::size_t>(std::max<std::int64_t>(
      0, config.GetInt("backend.query_threads",
                       static_cast<std::int64_t>(opts.query_threads))));
  opts.simd_kernels =
      config.GetBool("backend.simd_kernels", opts.simd_kernels);
  opts.max_result_window = static_cast<std::size_t>(std::max<std::int64_t>(
      1, config.GetInt("backend.max_result_window",
                       static_cast<std::int64_t>(opts.max_result_window))));
  opts.segment_docs = static_cast<std::size_t>(std::max<std::int64_t>(
      0, config.GetInt("backend.segment_docs",
                       static_cast<std::int64_t>(opts.segment_docs))));
  opts.filter_cache_entries = static_cast<std::size_t>(std::max<std::int64_t>(
      0, config.GetInt("backend.filter_cache_entries",
                       static_cast<std::int64_t>(opts.filter_cache_entries))));
  return opts;
}

ElasticStore::Index::Index(std::size_t num_shards, std::size_t segment_docs,
                           std::size_t cache_entries) {
  shards.reserve(num_shards);
  lanes.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<SubShard>(segment_docs, cache_entries);
    shard->shard_index = s;
    shard->stride = num_shards;
    shards.push_back(std::move(shard));
    lanes.push_back(std::make_unique<IngestLane>());
  }
}

Json ElasticStore::Index::MaterializedDoc(DocId id) const {
  const SubShard& shard = *shards[static_cast<std::size_t>(id) % shards.size()];
  const auto pos = static_cast<std::size_t>(id) / shards.size();
  if (shard.IsTyped(pos)) {
    const ColumnSegment& segment = shard.segments.SegmentFor(pos);
    return MaterializeWireDoc(segment.columns, shard.segments.LocalPos(pos));
  }
  return shard.docs[pos];
}

ElasticStore::ElasticStore(std::size_t shards_per_index)
    : ElasticStore([shards_per_index] {
        ElasticStoreOptions opts;
        opts.shards_per_index = shards_per_index;
        return opts;
      }()) {}

ElasticStore::ElasticStore(const ElasticStoreOptions& options)
    : options_([&options] {
        ElasticStoreOptions opts = options;
        opts.shards_per_index = std::max<std::size_t>(1, opts.shards_per_index);
        return opts;
      }()) {
  if (options_.query_threads > 0) {
    query_pool_ =
        std::make_unique<ThreadPool>(options_.query_threads, "es:query");
  }
  // The kernel switch is process-wide (the kernels are free functions under
  // the bitmap/column types); the most recently constructed store wins,
  // which in practice is the one store a process runs.
  simd::SetEnabled(options_.simd_kernels);
}

Status ElasticStore::CreateIndex(const std::string& name) {
  std::unique_lock lock(indices_mu_);
  if (indices_.contains(name)) {
    return AlreadyExists("index exists: " + name);
  }
  indices_[name] = std::make_shared<Index>(
      options_.shards_per_index, options_.segment_docs,
      options_.filter_cache_entries);
  return Status::Ok();
}

Status ElasticStore::DeleteIndex(const std::string& name) {
  std::unique_lock lock(indices_mu_);
  if (indices_.erase(name) == 0) return NotFound("no such index: " + name);
  return Status::Ok();
}

std::vector<std::string> ElasticStore::ListIndices() const {
  std::shared_lock lock(indices_mu_);
  std::vector<std::string> names;
  names.reserve(indices_.size());
  for (const auto& [name, index] : indices_) names.push_back(name);
  return names;
}

bool ElasticStore::HasIndex(const std::string& name) const {
  std::shared_lock lock(indices_mu_);
  return indices_.contains(name);
}

std::shared_ptr<ElasticStore::Index> ElasticStore::Find(
    const std::string& name) {
  std::shared_lock lock(indices_mu_);
  auto it = indices_.find(name);
  return it == indices_.end() ? nullptr : it->second;
}

std::shared_ptr<const ElasticStore::Index> ElasticStore::Find(
    const std::string& name) const {
  std::shared_lock lock(indices_mu_);
  auto it = indices_.find(name);
  return it == indices_.end() ? nullptr : it->second;
}

std::shared_ptr<ElasticStore::Index> ElasticStore::FindOrCreate(
    const std::string& name) {
  if (std::shared_ptr<Index> index = Find(name)) return index;
  // Auto-create (like ES with auto_create_index on).
  std::unique_lock lock(indices_mu_);
  auto it = indices_.find(name);
  if (it == indices_.end()) {
    it = indices_
             .emplace(name, std::make_shared<Index>(
                                options_.shards_per_index,
                                options_.segment_docs,
                                options_.filter_cache_entries))
             .first;
  }
  return it->second;
}

void ElasticStore::Bulk(const std::string& index_name,
                        std::vector<Json> documents) {
  const std::shared_ptr<Index> index = FindOrCreate(index_name);
  index->bulk_requests.fetch_add(1, std::memory_order_relaxed);
  // The sequence number fixes this batch's place in ingestion (docid)
  // order; the lane it lands on only spreads lock contention.
  const std::uint64_t seq =
      index->bulk_seq.fetch_add(1, std::memory_order_relaxed);
  IngestLane& lane = *index->lanes[seq % index->lanes.size()];
  std::scoped_lock lock(lane.mu);
  lane.batches.push_back(PendingBatch{seq, std::move(documents), {}, {}});
}

void ElasticStore::BulkWire(const std::string& index_name,
                            std::string_view session,
                            std::vector<tracer::WireEvent> records) {
  const std::shared_ptr<Index> index = FindOrCreate(index_name);
  index->bulk_requests.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t seq =
      index->bulk_seq.fetch_add(1, std::memory_order_relaxed);
  IngestLane& lane = *index->lanes[seq % index->lanes.size()];
  std::scoped_lock lock(lane.mu);
  lane.batches.push_back(
      PendingBatch{seq, {}, std::move(records), std::string(session)});
}

void ElasticStore::Refresh(const std::string& index_name) {
  const std::shared_ptr<Index> index = Find(index_name);
  if (index == nullptr) return;
  // Mutators serialize end-to-end on ingest_mu; concurrent queries are not
  // blocked until the brief exclusive swap window at the end.
  std::scoped_lock ingest_lock(index->ingest_mu);

  // Collect everything bulked so far, then replay in sequence order so
  // docids match a single-shard store exactly.
  std::vector<PendingBatch> batches;
  for (const auto& lane : index->lanes) {
    std::scoped_lock lane_lock(lane->mu);
    std::move(lane->batches.begin(), lane->batches.end(),
              std::back_inserter(batches));
    lane->batches.clear();
  }
  if (batches.empty()) return;
  std::sort(batches.begin(), batches.end(),
            [](const PendingBatch& a, const PendingBatch& b) {
              return a.seq < b.seq;
            });

  // Assign docids and stage each row with its owning sub-shard. JSON rows
  // move their document; typed rows carry a pointer into the (still-alive)
  // batch's wire records plus its session label. Reading next_docid without
  // refresh_mu is safe: only refreshes advance it, and they hold ingest_mu.
  struct StagedRow {
    Json doc;
    const tracer::WireEvent* wire = nullptr;
    const std::string* session = nullptr;
  };
  const std::size_t num_shards = index->num_shards();
  std::vector<std::vector<StagedRow>> staged(num_shards);
  std::size_t total = 0;
  for (PendingBatch& batch : batches) {
    total += batch.docs.size() + batch.wire.size();
  }
  for (auto& stage : staged) stage.reserve(total / num_shards + 1);
  std::uint64_t next_docid = index->next_docid;
  for (PendingBatch& batch : batches) {
    for (Json& doc : batch.docs) {
      const DocId id = next_docid++;
      staged[static_cast<std::size_t>(id) % num_shards].push_back(
          StagedRow{std::move(doc), nullptr, nullptr});
    }
    for (const tracer::WireEvent& record : batch.wire) {
      const DocId id = next_docid++;
      staged[static_cast<std::size_t>(id) % num_shards].push_back(
          StagedRow{Json(), &record, &batch.session});
    }
  }

  // Phase 1: build the new rows' columns entirely off-lock, one thread per
  // sub-shard when the batch is big enough to pay for the threads. Queries
  // keep running against the live segment lists the whole time — sealed
  // segments are adopted by pointer, the growing tail is extended past its
  // live row count, blocks seal at segment_docs. Nothing mutates the base
  // lists underneath us: every mutator holds ingest_mu.
  constexpr std::size_t kParallelRefreshThreshold = 4096;
  std::vector<std::unique_ptr<StagedSegmentBuild>> builds(num_shards);
  const auto build_shard = [&index, &staged, &builds](std::size_t s) {
    if (staged[s].empty()) return;
    auto build = std::make_unique<StagedSegmentBuild>(
        index->shards[s]->segments, staged[s].size());
    std::optional<WireColumnAppender> appender;
    for (const StagedRow& row : staged[s]) {
      // A sealed block means a fresh tail ColumnSet: re-bind the appender
      // (it caches column pointers into one set).
      if (build->PrepareRow()) appender.reset();
      if (row.wire != nullptr) {
        if (!appender.has_value()) appender.emplace(&build->tail());
        appender->Append(*row.wire, *row.session);
      } else {
        build->tail().AppendDoc(row.doc);
      }
    }
    build->Finish();
    builds[s] = std::move(build);
  };
  const Nanos start = SteadyClock::Instance()->NowNanos();
  if (total >= kParallelRefreshThreshold && num_shards > 1 &&
      std::thread::hardware_concurrency() > 1) {
    std::vector<std::thread> workers;
    workers.reserve(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      workers.emplace_back(build_shard, s);
    }
    for (std::thread& worker : workers) worker.join();
  } else {
    for (std::size_t s = 0; s < num_shards; ++s) build_shard(s);
  }
  index->column_build_ns.fetch_add(
      static_cast<std::uint64_t>(SteadyClock::Instance()->NowNanos() - start),
      std::memory_order_relaxed);
  std::uint64_t rows_written = 0;
  for (const auto& build : builds) {
    if (build != nullptr) rows_written += build->rows_written();
  }
  index->column_rows_written.fetch_add(rows_written,
                                       std::memory_order_relaxed);

  // Phase 2: the exclusive window — append the JSON rows to the row store,
  // swap the staged segment lists in, publish the docids. The column work
  // already happened, so this pause is bounded by the staged row count,
  // never by index size; typed rows add only their flag.
  std::unique_lock refresh_lock = index->LockForMutation();
  const Nanos pause_start = SteadyClock::Instance()->NowNanos();
  for (std::size_t s = 0; s < num_shards; ++s) {
    SubShard& shard = *index->shards[s];
    std::unique_lock shard_lock(shard.mu);
    for (StagedRow& row : staged[s]) {
      if (row.wire != nullptr) {
        ++shard.typed_rows;
      } else {
        // The row store reaches this row: typed rows skipped since its
        // last JSON row get null entries.
        shard.docs.resize(shard.typed.size());
        shard.docs.push_back(std::move(row.doc));
      }
      shard.typed.push_back(row.wire != nullptr ? 1 : 0);
    }
    if (builds[s] != nullptr) builds[s]->Commit(&shard.segments);
  }
  index->next_docid = next_docid;
  index->refreshes.fetch_add(1, std::memory_order_relaxed);
  const auto pause_ns = static_cast<std::uint64_t>(
      SteadyClock::Instance()->NowNanos() - pause_start);
  refresh_lock.unlock();

  std::scoped_lock pause_lock(index->pause_mu);
  if (index->refresh_pause_ns.size() >= Index::kPauseSamples) {
    index->refresh_pause_ns.erase(
        index->refresh_pause_ns.begin(),
        index->refresh_pause_ns.begin() + Index::kPauseSamples / 2);
  }
  index->refresh_pause_ns.push_back(pause_ns);
}

void ElasticStore::RefreshAll() {
  for (const std::string& name : ListIndices()) Refresh(name);
}

std::size_t ElasticStore::TrimTails(const std::string& index_name) {
  const std::shared_ptr<Index> index = Find(index_name);
  if (index == nullptr) return 0;
  std::scoped_lock ingest_lock(index->ingest_mu);

  // Off-lock, as in refresh phase 1: every mutator holds ingest_mu, so the
  // tails and row flags being copied cannot change, and readers only read
  // them too.
  const std::size_t num_shards = index->num_shards();
  std::vector<std::shared_ptr<ColumnSegment>> tails(num_shards);
  std::vector<std::optional<std::vector<std::uint8_t>>> typed(num_shards);
  std::size_t rows_copied = 0;
  bool any = false;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const SubShard& shard = *index->shards[s];
    std::size_t copied = 0;
    tails[s] = shard.segments.TrimmedTail(&copied);
    rows_copied += copied;
    if (shard.typed.capacity() > shard.typed.size()) {
      typed[s].emplace(shard.typed.begin(), shard.typed.end());
    }
    any = any || tails[s] != nullptr || typed[s].has_value();
  }
  if (!any) return 0;

  // The exclusive window only swaps pointers; the replaced tails and flag
  // vectors are released after it, with the locals holding them.
  std::vector<std::shared_ptr<ColumnSegment>> replaced(num_shards);
  {
    std::unique_lock refresh_lock = index->LockForMutation();
    for (std::size_t s = 0; s < num_shards; ++s) {
      SubShard& shard = *index->shards[s];
      std::unique_lock shard_lock(shard.mu);
      if (tails[s] != nullptr) {
        replaced[s] = shard.segments.ReplaceTail(std::move(tails[s]));
      }
      if (typed[s].has_value()) shard.typed.swap(*typed[s]);
    }
  }
  index->column_rows_written.fetch_add(rows_copied,
                                       std::memory_order_relaxed);
  return rows_copied;
}

std::vector<DocId> ElasticStore::MatchingDocs(const SubShard& shard,
                                              const Query& query) {
  // One segment at a time against that segment's bitmap cache: sealed
  // segments answer repeated predicates from cache, so after a refresh only
  // the tail is actually re-evaluated.
  std::vector<DocId> matches;
  for (const auto& segment : shard.segments.segments()) {
    const CompiledQuery compiled(query, segment->columns);
    const FilterBitmap bitmap = compiled.Eval(
        segment->rows(), shard.SegmentDocs(*segment), &segment->cache);
    const std::size_t base = segment->base;
    bitmap.ForEachSet([&matches, &shard, base](std::size_t local) {
      matches.push_back(
          static_cast<DocId>((base + local) * shard.stride + shard.shard_index));
    });
  }
  return matches;
}

void ElasticStore::RunPerShard(
    std::size_t num_shards, const std::function<void(std::size_t)>& fn) const {
  if (query_pool_ == nullptr || num_shards <= 1) {
    for (std::size_t s = 0; s < num_shards; ++s) fn(s);
    return;
  }
  // Shard 0 runs on the calling thread, so the request makes progress even
  // when the pool is saturated by other requests; workers never wait on
  // anything but their own shard, so pool-sharing cannot deadlock.
  std::mutex mu;
  std::condition_variable cv;
  std::size_t remaining = num_shards - 1;
  for (std::size_t s = 1; s < num_shards; ++s) {
    query_pool_->Submit([&fn, s, &mu, &cv, &remaining] {
      fn(s);
      std::scoped_lock lock(mu);
      if (--remaining == 0) cv.notify_one();
    });
  }
  fn(0);
  std::unique_lock lock(mu);
  cv.wait(lock, [&remaining] { return remaining == 0; });
}

std::vector<DocId> ElasticStore::MatchingDocs(const Index& index,
                                              const Query& query) const {
  const std::size_t num_shards = index.num_shards();
  std::vector<std::vector<DocId>> per_shard(num_shards);
  RunPerShard(num_shards, [&](std::size_t s) {
    const SubShard& shard = *index.shards[s];
    std::shared_lock shard_lock(shard.mu);
    per_shard[s] = MatchingDocs(shard, query);
  });

  // Merge the per-shard lists (each ascending) in ascending docid order
  // (= ingestion order), exactly as the unsharded store.
  std::size_t total = 0;
  for (const auto& list : per_shard) total += list.size();
  std::vector<DocId> matches;
  matches.reserve(total);
  std::vector<std::size_t> cursor(num_shards, 0);
  while (matches.size() < total) {
    std::size_t best = num_shards;
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (cursor[s] < per_shard[s].size() &&
          (best == num_shards ||
           per_shard[s][cursor[s]] < per_shard[best][cursor[best]])) {
        best = s;
      }
    }
    matches.push_back(per_shard[best][cursor[best]++]);
  }
  return matches;
}

namespace {

// Decorated sort key for the columnar top-k path: the value class mirrors
// the JSON comparator's branches (missing sorts last; numbers and strings
// compare within their class; anything else ties and falls through to the
// next sort spec).
struct SortKey {
  enum : std::uint8_t { kMissing = 0, kNumber, kString, kOther };
  std::uint8_t cls = kMissing;
  double num = 0.0;
  std::string_view str;
};

}  // namespace

Expected<SearchResult> ElasticStore::Search(const std::string& index_name,
                                            const SearchRequest& request) const {
  const std::shared_ptr<const Index> index = Find(index_name);
  if (index == nullptr) return NotFound("no such index: " + index_name);
  index->AwaitRefreshGate();
  std::shared_lock refresh_lock(index->refresh_mu);

  std::vector<DocId> matches = MatchingDocs(*index, request.query);

  // Paging bounds first (saturating), because the sort only needs the top
  // `end` entries.
  SearchResult result;
  result.total = matches.size();
  const std::size_t start = std::min(request.from, matches.size());
  const std::size_t end =
      start + std::min(request.size, matches.size() - start);

  if (request.sort.empty()) {
    result.hits.reserve(end - start);
    for (std::size_t i = start; i < end; ++i) {
      result.hits.push_back(Hit{matches[i], index->MaterializedDoc(matches[i])});
    }
    return result;
  }

  // Decorate once: resolve each sort field's column per (shard, segment),
  // then gather one flat key per (match, spec). The comparator never
  // touches Json.
  const std::size_t nspecs = request.sort.size();
  const std::size_t num_shards = index->num_shards();
  std::vector<std::vector<const DocValueColumn*>> cols(nspecs * num_shards);
  for (std::size_t j = 0; j < nspecs; ++j) {
    for (std::size_t s = 0; s < num_shards; ++s) {
      auto& per_segment = cols[j * num_shards + s];
      const auto& segments = index->shards[s]->segments.segments();
      per_segment.reserve(segments.size());
      for (const auto& segment : segments) {
        per_segment.push_back(segment->columns.Find(request.sort[j].field));
      }
    }
  }
  std::vector<SortKey> keys(matches.size() * nspecs);
  for (std::size_t r = 0; r < matches.size(); ++r) {
    const auto id = static_cast<std::size_t>(matches[r]);
    const std::size_t s = id % num_shards;
    const std::size_t pos = id / num_shards;
    const SegmentedColumns& segments = index->shards[s]->segments;
    const std::size_t seg = segments.SegmentIndexFor(pos);
    const std::size_t local = segments.LocalPos(pos);
    for (std::size_t j = 0; j < nspecs; ++j) {
      const DocValueColumn* col = cols[j * num_shards + s][seg];
      SortKey& key = keys[r * nspecs + j];
      if (col == nullptr) continue;  // field absent from this whole segment
      switch (col->kind(local)) {
        case ValueKind::kMissing:
          break;
        case ValueKind::kInt:
        case ValueKind::kDouble:
          key.cls = SortKey::kNumber;
          key.num = col->dbl(local);
          break;
        case ValueKind::kString:
          key.cls = SortKey::kString;
          key.str = col->str(local);
          break;
        default:  // bools and non-scalars are present but never order docs
          key.cls = SortKey::kOther;
          break;
      }
    }
  }
  const auto before = [&](std::size_t a, std::size_t b) {
    for (std::size_t j = 0; j < nspecs; ++j) {
      const SortKey& ka = keys[a * nspecs + j];
      const SortKey& kb = keys[b * nspecs + j];
      if (ka.cls == SortKey::kMissing && kb.cls == SortKey::kMissing) continue;
      if (ka.cls == SortKey::kMissing) return false;
      if (kb.cls == SortKey::kMissing) return true;
      int cmp = 0;
      if (ka.cls == SortKey::kNumber && kb.cls == SortKey::kNumber) {
        cmp = ka.num < kb.num ? -1 : (ka.num > kb.num ? 1 : 0);
      } else if (ka.cls == SortKey::kString && kb.cls == SortKey::kString) {
        cmp = ka.str.compare(kb.str);
      }
      if (cmp != 0) return request.sort[j].ascending ? cmp < 0 : cmp > 0;
    }
    // Total docid tiebreak: the order is strict, so a plain (partial) sort
    // produces exactly what a stable sort by the same keys does.
    return matches[a] < matches[b];
  };
  std::vector<std::size_t> order(matches.size());
  std::iota(order.begin(), order.end(), 0);
  if (end < order.size()) {
    std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(end),
                      order.end(), before);
  } else {
    std::sort(order.begin(), order.end(), before);
  }
  result.hits.reserve(end - start);
  for (std::size_t i = start; i < end; ++i) {
    const DocId id = matches[order[i]];
    result.hits.push_back(Hit{id, index->MaterializedDoc(id)});
  }
  return result;
}

Expected<SearchResult> ElasticStore::Search(const std::string& index_name,
                                            const Json& body) const {
  auto request = SearchRequest::FromJson(body, options_.max_result_window);
  if (!request.ok()) return request.status();
  return Search(index_name, *request);
}

Expected<std::size_t> ElasticStore::Count(const std::string& index_name,
                                          const Query& query) const {
  const std::shared_ptr<const Index> index = Find(index_name);
  if (index == nullptr) return NotFound("no such index: " + index_name);
  index->AwaitRefreshGate();
  std::shared_lock refresh_lock(index->refresh_mu);
  const std::size_t num_shards = index->num_shards();
  std::vector<std::size_t> counts(num_shards, 0);
  RunPerShard(num_shards, [&](std::size_t s) {
    const SubShard& shard = *index->shards[s];
    std::shared_lock shard_lock(shard.mu);
    counts[s] = MatchingDocs(shard, query).size();
  });
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  return total;
}

namespace {

// AggSource over a matched docid set: gathers one ColumnSlice per field from
// the per-shard columns, falling back to the document only for non-scalar
// members.
class ShardedAggSource final : public AggSource {
 public:
  struct ShardView {
    const std::vector<Json>* docs = nullptr;
    const SegmentedColumns* segments = nullptr;
  };

  ShardedAggSource(std::vector<ShardView> shards, std::vector<DocId> matches)
      : shards_(std::move(shards)), matches_(std::move(matches)) {}

  [[nodiscard]] std::size_t rows() const override { return matches_.size(); }

  [[nodiscard]] const ColumnSlice& Slice(
      const std::string& field) const override {
    auto [it, inserted] = cache_.try_emplace(field);
    if (!inserted) return it->second;
    ColumnSlice& slice = it->second;
    const std::size_t n = matches_.size();
    const std::size_t num_shards = shards_.size();
    slice.kinds.assign(n, static_cast<std::uint8_t>(ValueKind::kMissing));
    slice.ints.assign(n, 0);
    slice.dbls.assign(n, 0.0);
    slice.strs.assign(n, {});
    slice.raws.assign(n, nullptr);
    // The field's column resolved once per (shard, segment).
    std::vector<std::vector<const DocValueColumn*>> cols(num_shards);
    for (std::size_t s = 0; s < num_shards; ++s) {
      const auto& segments = shards_[s].segments->segments();
      cols[s].reserve(segments.size());
      for (const auto& segment : segments) {
        cols[s].push_back(segment->columns.Find(field));
      }
    }
    for (std::size_t r = 0; r < n; ++r) {
      const auto id = static_cast<std::size_t>(matches_[r]);
      const std::size_t s = id % num_shards;
      const std::size_t pos = id / num_shards;
      const SegmentedColumns& segments = *shards_[s].segments;
      const std::size_t local = segments.LocalPos(pos);
      const DocValueColumn* col = cols[s][segments.SegmentIndexFor(pos)];
      if (col == nullptr) continue;
      const ValueKind kind = col->kind(local);
      slice.kinds[r] = static_cast<std::uint8_t>(kind);
      switch (kind) {
        case ValueKind::kInt:
        case ValueKind::kDouble:
          slice.ints[r] = col->ints()[local];
          slice.dbls[r] = col->dbl(local);
          break;
        case ValueKind::kString:
          slice.strs[r] = col->str(local);
          break;
        case ValueKind::kBool:
          slice.ints[r] = col->ints()[local];
          break;
        case ValueKind::kOther:  // only JSON rows hold one
          slice.raws[r] = (*shards_[s].docs)[pos].Find(field);
          break;
        case ValueKind::kMissing:
          break;
      }
    }
    return slice;
  }

 private:
  std::vector<ShardView> shards_;
  std::vector<DocId> matches_;
  mutable std::map<std::string, ColumnSlice> cache_;
};

}  // namespace

Expected<AggResult> ElasticStore::Aggregate(const std::string& index_name,
                                            const Query& query,
                                            const Aggregation& agg) const {
  const std::shared_ptr<const Index> index = Find(index_name);
  if (index == nullptr) return NotFound("no such index: " + index_name);
  index->AwaitRefreshGate();
  std::shared_lock refresh_lock(index->refresh_mu);
  std::vector<DocId> matches = MatchingDocs(*index, query);
  std::vector<ShardedAggSource::ShardView> views;
  views.reserve(index->num_shards());
  for (const auto& shard : index->shards) {
    views.push_back({&shard->docs, &shard->segments});
  }
  const ShardedAggSource source(std::move(views), std::move(matches));
  return agg.ExecuteColumnar(source);
}

Expected<AggPartial> ElasticStore::AggregatePartial(
    const std::string& index_name, const Query& query,
    const Aggregation& agg) const {
  const std::shared_ptr<const Index> index = Find(index_name);
  if (index == nullptr) return NotFound("no such index: " + index_name);
  index->AwaitRefreshGate();
  std::shared_lock refresh_lock(index->refresh_mu);
  std::vector<DocId> matches = MatchingDocs(*index, query);
  std::vector<ShardedAggSource::ShardView> views;
  views.reserve(index->num_shards());
  for (const auto& shard : index->shards) {
    views.push_back({&shard->docs, &shard->segments});
  }
  const ShardedAggSource source(std::move(views), std::move(matches));
  return agg.ExecuteColumnarPartial(source);
}

Expected<std::size_t> ElasticStore::UpdateByQuery(
    const std::string& index_name, const Query& query,
    const std::function<bool(Json&)>& update) {
  const std::shared_ptr<Index> index = Find(index_name);
  if (index == nullptr) return NotFound("no such index: " + index_name);
  std::scoped_lock ingest_lock(index->ingest_mu);
  std::unique_lock refresh_lock = index->LockForMutation();
  std::vector<DocId> matches = MatchingDocs(*index, query);
  const std::size_t num_shards = index->num_shards();
  std::vector<std::vector<std::size_t>> modified_pos(num_shards);
  std::size_t modified = 0;
  for (DocId id : matches) {
    const std::size_t s = static_cast<std::size_t>(id) % num_shards;
    const auto pos = static_cast<std::size_t>(id) / num_shards;
    SubShard& shard = *index->shards[s];
    std::unique_lock shard_lock(shard.mu);
    if (shard.IsTyped(pos)) {
      // Typed rows are updated through their materialized document; a
      // modification converts the row to a JSON row (updates are rare —
      // one correlation pass per session).
      const ColumnSegment& segment = shard.segments.SegmentFor(pos);
      Json doc =
          MaterializeWireDoc(segment.columns, shard.segments.LocalPos(pos));
      if (!update(doc)) continue;
      if (pos >= shard.docs.size()) shard.docs.resize(pos + 1);
      shard.docs[pos] = std::move(doc);
      shard.typed[pos] = 0;
      --shard.typed_rows;
    } else {
      // The callback edits a copy: a declined update must leave the stored
      // document as it was, in step with the columns.
      Json doc = shard.docs[pos];
      if (!update(doc)) continue;
      shard.docs[pos] = std::move(doc);
    }
    ++modified;
    modified_pos[s].push_back(pos);
  }
  index->updates.fetch_add(modified, std::memory_order_relaxed);
  // Rewrite just the modified slots in place and invalidate only the
  // touched segments' caches: blocks the update never reached keep their
  // bitmaps and their dictionary ranks (a rewrite may add dictionary
  // entries, but FinishBatch re-ranks only dictionaries that grew). The
  // string -> ordinal maps the rewrite rebuilt are dropped again: only
  // appends to a tail reuse them, and the next refresh rebuilds its own.
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (modified_pos[s].empty()) continue;
    SubShard& shard = *index->shards[s];
    std::unique_lock shard_lock(shard.mu);
    std::vector<std::uint8_t> touched(shard.segments.num_segments(), 0);
    for (const std::size_t pos : modified_pos[s]) {
      ColumnSegment& segment = shard.segments.SegmentFor(pos);
      segment.columns.ReplaceRow(shard.segments.LocalPos(pos),
                                 shard.docs[pos]);
      touched[shard.segments.SegmentIndexFor(pos)] = 1;
    }
    for (std::size_t k = 0; k < touched.size(); ++k) {
      if (touched[k] == 0) continue;
      ColumnSegment& segment = *shard.segments.segments()[k];
      segment.columns.FinishBatch();
      segment.columns.DropLookups();
      segment.cache.Clear();
    }
  }
  return modified;
}

Expected<IndexStats> ElasticStore::Stats(const std::string& index_name) const {
  const std::shared_ptr<const Index> index = Find(index_name);
  if (index == nullptr) return NotFound("no such index: " + index_name);
  index->AwaitRefreshGate();
  std::shared_lock refresh_lock(index->refresh_mu);
  IndexStats stats;
  for (const auto& shard : index->shards) {
    std::shared_lock shard_lock(shard->mu);
    stats.doc_count += shard->segments.num_rows();
    stats.typed_rows += shard->typed_rows;
    stats.row_store_docs += shard->docs.size();
    for (const auto& segment : shard->segments.segments()) {
      stats.column_bytes += segment->columns.bytes();
      stats.column_slots += segment->columns.capacity();
    }
    stats.doc_value_fields += shard->segments.num_fields();
    stats.filter_cache_hits += shard->segments.cache_hits();
    stats.filter_cache_misses += shard->segments.cache_misses();
    stats.filter_cache_evictions += shard->segments.cache_evictions();
    stats.segments += shard->segments.num_segments();
    stats.sealed_segments += shard->segments.num_sealed();
  }
  for (const auto& lane : index->lanes) {
    std::scoped_lock lane_lock(lane->mu);
    for (const PendingBatch& batch : lane->batches) {
      stats.pending_count += batch.docs.size() + batch.wire.size();
    }
  }
  stats.bulk_requests = index->bulk_requests.load(std::memory_order_relaxed);
  stats.updates = index->updates.load(std::memory_order_relaxed);
  stats.column_build_ns =
      index->column_build_ns.load(std::memory_order_relaxed);
  stats.column_rows_written =
      index->column_rows_written.load(std::memory_order_relaxed);
  stats.refreshes = index->refreshes.load(std::memory_order_relaxed);
  {
    std::scoped_lock pause_lock(index->pause_mu);
    stats.refresh_pause_ns = index->refresh_pause_ns;
  }
  return stats;
}

Status ElasticStore::SaveIndex(const std::string& index_name,
                               const std::string& file_path) const {
  const std::shared_ptr<const Index> index = Find(index_name);
  if (index == nullptr) return NotFound("no such index: " + index_name);
  std::ofstream out(file_path, std::ios::trunc);
  if (!out) return Unavailable("cannot open for writing: " + file_path);
  index->AwaitRefreshGate();
  std::shared_lock refresh_lock(index->refresh_mu);
  std::size_t doc_count = 0;
  for (const auto& shard : index->shards) {
    doc_count += shard->segments.num_rows();
  }
  Json header = Json::MakeObject();
  header.Set("dio_index_snapshot", index_name);
  header.Set("docs", static_cast<std::int64_t>(doc_count));
  out << header.Dump() << "\n";
  for (DocId id = 0; id < doc_count; ++id) {
    out << index->MaterializedDoc(id).Dump() << "\n";
  }
  out.close();
  if (!out) return Unavailable("write failed: " + file_path);
  return Status::Ok();
}

Expected<std::string> ElasticStore::LoadIndex(const std::string& file_path,
                                              const std::string& rename_to) {
  std::ifstream in(file_path);
  if (!in) return NotFound("cannot open snapshot: " + file_path);
  std::string line;
  if (!std::getline(in, line)) {
    return InvalidArgument("empty snapshot: " + file_path);
  }
  auto header = Json::Parse(line);
  if (!header.ok() || !header->Has("dio_index_snapshot")) {
    return InvalidArgument("not a DIO index snapshot: " + file_path);
  }
  const std::string index = rename_to.empty()
                                ? header->GetString("dio_index_snapshot")
                                : rename_to;
  if (HasIndex(index)) {
    return AlreadyExists("index exists: " + index);
  }
  DIO_RETURN_IF_ERROR(CreateIndex(index));
  std::vector<Json> batch;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto doc = Json::Parse(line);
    if (!doc.ok()) {
      (void)DeleteIndex(index);
      return InvalidArgument("corrupt snapshot line: " + doc.status().message());
    }
    batch.push_back(std::move(doc.value()));
  }
  Bulk(index, std::move(batch));
  Refresh(index);
  return index;
}

}  // namespace dio::backend
