// Randomized retention test for the sealed-segment columnar layout
// (backend.segment_docs). Three stores and the reference model replay one
// randomly interleaved BulkWire / Refresh / UpdateByQuery / read-op
// sequence:
//
//   segmented — sealed segments + filter-bitmap cache (the production path)
//   nocache   — same segments, backend.filter_cache_entries=0: every bitmap
//               recomputed from the columns on every query
//   unsealed  — backend.segment_docs=0: one tail that never seals
//   model     — support/reference_store.h: Query::Matches over the
//               WireEventToJson documents, the oracle
//
// After every read op the four answers must be byte-identical
// (ColumnarParityTest discipline: DumpResult/DumpAgg string equality), which
// proves segment-granular cache retention and sealed-block reuse never leak
// a stale bitmap, a stale dictionary rank, or a stale compiled query across
// a refresh or an update-by-query. The segmented store must actually
// exercise the machinery: sealed segments and cache hits are asserted > 0.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "backend/segments.h"
#include "backend/store.h"
#include "common/random.h"
#include "support/reference_store.h"
#include "tracer/wire.h"

namespace dio::backend {
namespace {

constexpr char kIndex[] = "retention";
constexpr char kSession[] = "seg-retention";

std::string DumpResult(const SearchResult& result) {
  Json out = Json::MakeObject();
  out.Set("total", result.total);
  Json hits = Json::MakeArray();
  for (const Hit& hit : result.hits) {
    Json h = Json::MakeObject();
    h.Set("id", hit.id);
    h.Set("source", hit.source);
    hits.Append(std::move(h));
  }
  out.Set("hits", std::move(hits));
  return out.Dump();
}

std::string DumpAgg(const AggResult& agg) {
  Json out = Json::MakeObject();
  out.Set("metrics", agg.metrics);
  Json buckets = Json::MakeArray();
  for (const AggBucket& bucket : agg.buckets) {
    Json b = Json::MakeObject();
    b.Set("key", bucket.key);
    b.Set("doc_count", bucket.doc_count);
    for (const auto& [name, sub] : bucket.sub) {
      b.Set("sub_" + name, DumpAgg(sub));
    }
    buckets.Append(std::move(b));
  }
  out.Set("buckets", std::move(buckets));
  return out.Dump();
}

tracer::WireEvent MakeWire(Random& rng, int i) {
  static const os::SyscallNr kMix[] = {
      os::SyscallNr::kRead,  os::SyscallNr::kWrite, os::SyscallNr::kOpenat,
      os::SyscallNr::kFsync, os::SyscallNr::kLseek, os::SyscallNr::kClose};
  static const char* kComms[] = {"rocksdb:low", "rocksdb:high", "fluent-bit",
                                 "postgres"};
  tracer::WireEvent e;
  const os::SyscallNr nr = kMix[rng.Uniform(6)];
  const os::SyscallDescriptor& desc = os::Describe(nr);
  e.nr = static_cast<std::uint8_t>(nr);
  e.phase = 2;
  e.pid = 777;
  e.tid = static_cast<std::int32_t>(10 + rng.Uniform(8));
  e.cpu = static_cast<std::int32_t>(rng.Uniform(4));
  e.comm_len = tracer::WireEvent::FillString(
      e.comm, tracer::kWireCommCap, kComms[rng.Uniform(4)], &e.comm_trunc);
  e.proc_name_len = tracer::WireEvent::FillString(
      e.proc_name, tracer::kWireCommCap, "db_bench", &e.proc_name_trunc);
  e.time_enter = 1'000 + i * 7 + static_cast<std::int64_t>(rng.Uniform(5));
  e.time_exit = e.time_enter + static_cast<std::int64_t>(rng.Uniform(90'000));
  e.ret = rng.OneIn(8) ? -static_cast<std::int64_t>(1 + rng.Uniform(16))
                       : static_cast<std::int64_t>(rng.Uniform(4096));
  if (desc.takes_fd) e.fd = static_cast<std::int32_t>(3 + rng.Uniform(9));
  if (desc.data_related) e.count = rng.Uniform(1 << 12);
  if (!rng.OneIn(4)) {
    const std::string path =
        "/data/db/" + std::string(rng.OneIn(2) ? "sstable-" : "wal-") +
        std::to_string(rng.Uniform(12));
    e.path_len = tracer::WireEvent::FillString(e.path, tracer::kWirePathCap,
                                               path, &e.path_trunc);
  }
  if (nr == os::SyscallNr::kLseek) {
    e.whence = static_cast<std::int32_t>(rng.Uniform(3));
    e.arg_offset = static_cast<std::int64_t>(rng.Uniform(1 << 12));
  }
  return e;
}

// The read mix: column range count, scan-path Not/Exists count, prefix
// count, sorted window search, filtered terms agg with a stats sub-agg.
// Each returns its dump; equality across stores is asserted per op.
std::string ReadOp(const QueryBackend& store, std::size_t which,
                   int horizon) {
  switch (which % 5) {
    case 0: {
      auto count = store.Count(
          kIndex,
          Query::Range("ret", std::numeric_limits<std::int64_t>::min(), -1));
      return "failed=" + std::to_string(count.ok() ? *count : 0);
    }
    case 1: {
      auto count = store.Count(kIndex, Query::Not(Query::Exists("path")));
      return "pathless=" + std::to_string(count.ok() ? *count : 0);
    }
    case 2: {
      auto count =
          store.Count(kIndex, Query::Prefix("path", "/data/db/sstable-"));
      return "sst=" + std::to_string(count.ok() ? *count : 0);
    }
    case 3: {
      SearchRequest request;
      request.query =
          Query::Range("time_enter", 1'000 + horizon * 7 / 2, std::nullopt);
      request.sort = {{"duration_ns", false}, {"time_enter", true}};
      request.size = 25;
      auto result = store.Search(kIndex, request);
      return result.ok() ? DumpResult(*result) : "search-error";
    }
    default: {
      auto agg = store.Aggregate(
          kIndex, Query::Term("syscall", "write"),
          Aggregation::Terms("comm").SubAgg(
              "lat", Aggregation::Stats("duration_ns")));
      return agg.ok() ? DumpAgg(*agg) : "agg-error";
    }
  }
}

TEST(SegmentRetentionTest, InterleavedMutationsMatchAllOracles) {
  for (const std::size_t segment_docs : {4u, 8u, 16u, 64u}) {
    SCOPED_TRACE("segment_docs=" + std::to_string(segment_docs));

    ElasticStoreOptions segmented;
    segmented.shards_per_index = 3;
    segmented.segment_docs = segment_docs;

    ElasticStoreOptions nocache = segmented;
    nocache.filter_cache_entries = 0;

    ElasticStoreOptions unsealed = segmented;
    unsealed.segment_docs = 0;

    ElasticStore segmented_store(segmented);
    ElasticStore nocache_store(nocache);
    ElasticStore unsealed_store(unsealed);
    testing::ReferenceStore model;
    ElasticStore* stores[] = {&segmented_store, &nocache_store,
                              &unsealed_store};
    QueryBackend* backends[] = {&segmented_store, &nocache_store,
                                &unsealed_store, &model};
    static const char* kNames[] = {"segmented", "nocache", "unsealed",
                                   "model"};

    Random rng(1234 + static_cast<std::uint64_t>(segment_docs));
    int docnum = 0;
    std::size_t reads = 0;
    for (int step = 0; step < 160; ++step) {
      const std::uint64_t op = rng.Uniform(10);
      if (op < 3) {
        // BulkWire a batch sized to straddle seal boundaries both ways.
        const int batch_size = static_cast<int>(1 + rng.Uniform(2 * 16));
        std::vector<tracer::WireEvent> batch;
        Random gen(9000 + static_cast<std::uint64_t>(docnum));
        for (int i = 0; i < batch_size; ++i) {
          batch.push_back(MakeWire(gen, docnum + i));
        }
        for (ElasticStore* store : stores) {
          store->BulkWire(kIndex, kSession, std::vector(batch));
        }
        model.BulkWire(kIndex, kSession, batch);
        docnum += batch_size;
      } else if (op < 6) {
        for (QueryBackend* backend : backends) backend->Refresh(kIndex);
      } else if (op == 6) {
        // Update-by-query rewrites rows inside sealed segments in place;
        // only the touched blocks may drop their bitmaps.
        for (QueryBackend* backend : backends) {
          auto updated = backend->UpdateByQuery(
              kIndex, Query::Term("syscall", "fsync"), [](Json& doc) {
                if (doc.Has("correlated")) return false;
                doc.Set("correlated", true);
                return true;
              });
          if (docnum > 0) EXPECT_TRUE(updated.ok());
        }
      } else {
        ++reads;
        const std::size_t which = rng.Uniform(5);
        const std::string expected = ReadOp(model, which, docnum);
        for (std::size_t s = 0; s < 3; ++s) {
          EXPECT_EQ(ReadOp(*backends[s], which, docnum), expected)
              << "read op " << which << " diverged: " << kNames[s]
              << " vs model at step " << step;
        }
      }
    }
    ASSERT_GT(reads, 0u);
    // The interleaving may end on an unrefreshed bulk; drain it so the
    // final doc-count assertion sees the whole stream.
    for (QueryBackend* backend : backends) backend->Refresh(kIndex);

    // The machinery under test must actually have engaged: blocks sealed,
    // bitmaps cached and re-used across the interleaved refreshes — and the
    // cache-disabled twin must have stayed cold.
    auto stats = stores[0]->Stats(kIndex);
    ASSERT_TRUE(stats.ok());
    EXPECT_GT(stats->sealed_segments, 0u);
    EXPECT_GT(stats->filter_cache_hits, 0u);
    EXPECT_EQ(stats->doc_count, static_cast<std::size_t>(docnum));

    auto cold = stores[1]->Stats(kIndex);
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(cold->filter_cache_hits, 0u);
    EXPECT_GT(cold->sealed_segments, 0u);

    auto never = stores[2]->Stats(kIndex);
    ASSERT_TRUE(never.ok());
    EXPECT_EQ(never->sealed_segments, 0u);
  }
}

// A tail that regrows its slot buffers several times before it seals: small
// batches, a refresh after each, so every block passes through the
// capacity levels below segment_docs while its earlier rows stay published.
// After every refresh the three stores must agree with the reference model,
// and the regrowth copies must show up in the rows-written counter, bounded
// by geometric growth.
TEST(SegmentRetentionTest, TailCrossesBufferGrowthsBeforeSealing) {
  ElasticStoreOptions segmented;
  segmented.shards_per_index = 2;
  segmented.segment_docs = 256;

  ElasticStoreOptions nocache = segmented;
  nocache.filter_cache_entries = 0;

  ElasticStoreOptions unsealed = segmented;
  unsealed.segment_docs = 0;

  ElasticStore segmented_store(segmented);
  ElasticStore nocache_store(nocache);
  ElasticStore unsealed_store(unsealed);
  testing::ReferenceStore model;
  ElasticStore* stores[] = {&segmented_store, &nocache_store, &unsealed_store};

  Random rng(4321);
  int docnum = 0;
  while (docnum < 1200) {
    const int batch_size = static_cast<int>(1 + rng.Uniform(12));
    std::vector<tracer::WireEvent> batch;
    Random gen(5000 + static_cast<std::uint64_t>(docnum));
    for (int i = 0; i < batch_size; ++i) {
      batch.push_back(MakeWire(gen, docnum + i));
    }
    docnum += batch_size;
    for (ElasticStore* store : stores) {
      store->BulkWire(kIndex, kSession, std::vector(batch));
      store->Refresh(kIndex);
    }
    model.BulkWire(kIndex, kSession, batch);
    model.Refresh(kIndex);
    for (std::size_t which = 0; which < 5; ++which) {
      const std::string expected = ReadOp(model, which, docnum);
      for (std::size_t s = 0; s < 3; ++s) {
        ASSERT_EQ(ReadOp(*stores[s], which, docnum), expected)
            << "read op " << which << " diverged at " << docnum << " docs";
      }
    }
  }

  for (std::size_t s = 0; s < 3; ++s) {
    auto stats = stores[s]->Stats(kIndex);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->doc_count, static_cast<std::size_t>(docnum));
    // Appends alone write exactly one row per event; anything above that
    // is regrowth copies, which doubling keeps below two rows per row held.
    EXPECT_GT(stats->column_rows_written, stats->doc_count) << "store " << s;
    EXPECT_LT(stats->column_rows_written, 3 * stats->doc_count)
        << "store " << s;
  }
  auto stats = stores[0]->Stats(kIndex);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->sealed_segments, 0u);
}

// Refresh cost is proportional to the rows a refresh adds, not to the
// unsealed tail it extends: at the default segment_docs, 64 refreshes of
// 1,024 rows into one shard write at most twice the rows ingested, where
// copying the tail on every refresh would write about 33x.
TEST(SegmentRetentionTest, RefreshWritesRowsProportionalToTheBatch) {
  ElasticStoreOptions options;
  options.shards_per_index = 1;
  options.segment_docs = 65536;
  ElasticStore store(options);

  constexpr int kRefreshes = 64;
  constexpr int kBatch = 1024;
  Random gen(65536);
  int docnum = 0;
  for (int r = 0; r < kRefreshes; ++r) {
    std::vector<tracer::WireEvent> batch;
    for (int i = 0; i < kBatch; ++i) batch.push_back(MakeWire(gen, docnum++));
    store.BulkWire(kIndex, kSession, std::move(batch));
    store.Refresh(kIndex);
  }

  auto stats = store.Stats(kIndex);
  ASSERT_TRUE(stats.ok());
  const std::uint64_t ingested = kRefreshes * kBatch;
  EXPECT_EQ(stats->doc_count, ingested);
  EXPECT_EQ(stats->refreshes, static_cast<std::uint64_t>(kRefreshes));
  EXPECT_GE(stats->column_rows_written, ingested);
  EXPECT_LE(stats->column_rows_written, 2 * ingested);
  // The block filled to exactly segment_docs rows and sealed.
  EXPECT_EQ(stats->sealed_segments, 1u);
  EXPECT_EQ(stats->segments, 1u);
}

// Appends `docs` as one staged build over `segments`; commits it unless
// `publish` is false, in which case the build is dropped unpublished.
void StageRows(SegmentedColumns* segments, const std::vector<Json>& docs,
               bool publish = true) {
  StagedSegmentBuild build(*segments, docs.size());
  for (const Json& doc : docs) {
    build.PrepareRow();
    build.tail().AppendDoc(doc);
  }
  if (!publish) return;
  build.Finish();
  build.Commit(segments);
}

std::vector<Json> Rows(const std::string& prefix, int count, bool with_g) {
  std::vector<Json> docs;
  for (int i = 0; i < count; ++i) {
    Json doc = Json::MakeObject();
    doc.Set("s", Json(prefix + std::to_string(i)));
    if (with_g) doc.Set("g", Json(static_cast<std::int64_t>(100 + i)));
    docs.push_back(std::move(doc));
  }
  return docs;
}

// Every published cell, dictionary entry and rank of a segment list.
std::string DumpSegments(const SegmentedColumns& segments) {
  std::string out;
  for (const auto& segment : segments.segments()) {
    out += "segment base=" + std::to_string(segment->base) +
           " rows=" + std::to_string(segment->rows()) +
           " sealed=" + std::to_string(segment->sealed) + "\n";
    segment->columns.ForEachField([&](const std::string& field) {
      const DocValueColumn& col = *segment->columns.Find(field);
      out += " " + field + (col.has_doubles() ? " (doubles):" : ":");
      for (std::size_t pos = 0; pos < col.size(); ++pos) {
        out += " " + std::to_string(col.kinds()[pos]) + "/";
        out += col.kind(pos) == ValueKind::kString
                   ? std::string(col.str(pos))
                   : std::to_string(col.ints()[pos]) + "/" +
                         std::to_string(col.dbl(pos));
      }
      out += " | dict:";
      for (const std::string& value : col.dict()) out += " " + value;
      out += " | ranks:";
      for (const std::uint32_t ord : col.rank_to_ord()) {
        out += " " + std::to_string(ord);
      }
      out += "\n";
    });
  }
  return out;
}

// A build dropped without Commit has already written into the slot buffers
// and string map it shares with the published tail. Dropping it must take
// those writes back: afterwards the segment list must be indistinguishable
// from one that never saw the dropped rows — no stale ordinal handed to a
// later string, no stale cell in a later row's pad slot.
TEST(SegmentRetentionTest, DroppedBuildLeavesThePublishedTailIntact) {
  SegmentedColumns dropped(64, 8);
  SegmentedColumns reference(64, 8);
  for (SegmentedColumns* segments : {&dropped, &reference}) {
    StageRows(segments, Rows("a", 10, /*with_g=*/true));
  }
  // 40 rows with new strings, new "g" cells and a new column: the first
  // six land in the shared buffer, then the buffer regrows.
  std::vector<Json> unpublished = Rows("x", 40, /*with_g=*/true);
  for (Json& doc : unpublished) doc.Set("h", Json(true));
  StageRows(&dropped, unpublished, /*publish=*/false);
  // Three rows without "g" that stay in the shared buffer, interning a
  // string the dropped build had added ("x0") after a fresh one ("y0").
  std::vector<Json> next;
  for (const char* value : {"y0", "x0", "a1"}) {
    Json doc = Json::MakeObject();
    doc.Set("s", Json(value));
    next.push_back(std::move(doc));
  }
  for (SegmentedColumns* segments : {&dropped, &reference}) {
    StageRows(segments, next);
  }

  EXPECT_EQ(DumpSegments(dropped), DumpSegments(reference));
  const DocValueColumn* s = dropped.segments().back()->columns.Find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->str(11), "x0");
  EXPECT_FALSE(s->Ordinal("x1").has_value());
  const DocValueColumn* g = dropped.segments().back()->columns.Find("g");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->kind(12), ValueKind::kMissing);
  EXPECT_EQ(dropped.segments().back()->columns.Find("h"), nullptr);
}

// A block's first buffer is sized for its share of the refresh, capped at
// segment_docs, and regrowth climbs the levels segment_docs/2^k, so a block
// sealed at segment_docs holds exactly segment_docs slots however its rows
// arrived: one refresh far larger than a block, one extending a published
// tail, or many small refreshes. A segment_docs that is not a power of two
// also rules out plain doubling.
TEST(SegmentRetentionTest, SealedBlocksCarryNoSlack) {
  constexpr std::size_t kSegmentDocs = 48;
  SegmentedColumns segments(kSegmentDocs, 8);
  StageRows(&segments, Rows("a", 3 * kSegmentDocs + 5, /*with_g=*/true));
  StageRows(&segments, Rows("b", 3 * kSegmentDocs + 5, /*with_g=*/true));
  ASSERT_EQ(segments.num_rows(), 6 * kSegmentDocs + 10);
  // The tail's first buffer was sized for exactly the 10 rows left.
  EXPECT_EQ(segments.segments().back()->columns.capacity(), 10u);
  for (int r = 0; r < 6; ++r) {
    StageRows(&segments, Rows("c" + std::to_string(r), 7, /*with_g=*/true));
  }
  ASSERT_EQ(segments.num_rows(), 7 * kSegmentDocs + 4);
  ASSERT_EQ(segments.num_sealed(), 7u);
  for (const auto& segment : segments.segments()) {
    if (!segment->sealed) continue;
    EXPECT_EQ(segment->columns.capacity(), kSegmentDocs)
        << "block at " << segment->base;
  }
}

// LRU eviction sanity at a tiny capacity: a parade of distinct cacheable
// predicates overflows a 2-entry cache; evictions tick up, results stay
// identical to the cache-disabled twin throughout.
TEST(SegmentRetentionTest, TinyCacheEvictsButNeverLies) {
  ElasticStoreOptions small;
  small.shards_per_index = 2;
  small.segment_docs = 8;
  small.filter_cache_entries = 2;

  ElasticStoreOptions nocache = small;
  nocache.filter_cache_entries = 0;

  ElasticStore cached(small);
  ElasticStore plain(nocache);

  Random gen(77);
  std::vector<tracer::WireEvent> batch;
  for (int i = 0; i < 96; ++i) batch.push_back(MakeWire(gen, i));
  cached.BulkWire(kIndex, kSession, std::vector(batch));
  plain.BulkWire(kIndex, kSession, std::move(batch));
  cached.Refresh(kIndex);
  plain.Refresh(kIndex);

  for (int round = 0; round < 3; ++round) {
    for (std::int64_t bound = 0; bound < 8; ++bound) {
      const Query query = Query::Range("ret", bound * 100, std::nullopt);
      auto a = cached.Count(kIndex, query);
      auto b = plain.Count(kIndex, query);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(*a, *b) << "bound " << bound << " round " << round;
    }
  }

  auto stats = cached.Stats(kIndex);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->filter_cache_evictions, 0u);
  auto cold = plain.Stats(kIndex);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->filter_cache_hits, 0u);
  EXPECT_EQ(cold->filter_cache_evictions, 0u);
}

// ---- the on-demand double array ---------------------------------------------
// A column allocates its double array only when it first holds a kDouble.
// Field "v" holds only ints (some beyond 2^53, where an int and its double
// part ways) until its first block has sealed; then the tail gets its first
// double inside the buffer it shares with the published tail, the tail
// regrows with doubles in it, and an update-by-query turns ints of a sealed
// block into doubles and a double back into an int. After every step,
// term, range, sort, histogram and percentile answers must be
// byte-identical to the reference model's.

constexpr std::int64_t kTwo53 = std::int64_t{1} << 53;

Json VDoc(int n, Json v) {
  Json doc = Json::MakeObject();
  doc.Set("n", static_cast<std::int64_t>(n));
  doc.Set("v", std::move(v));
  return doc;
}

// Ints only: small values, 2^53 and its odd neighbour (the same double),
// and values far past 2^53 on both sides.
Json IntV(int n) {
  switch (n % 6) {
    case 0: return Json(kTwo53 + 1);
    case 1: return Json(kTwo53);
    case 2: return Json((std::int64_t{1} << 62) + 3);
    case 3: return Json(-(std::int64_t{1} << 60) - 1);
    default: return Json(static_cast<std::int64_t>(n % 40));
  }
}

Json MixedV(int n) {
  switch (n % 4) {
    case 0: return Json(2.5 + n);
    case 1: return Json(static_cast<double>(kTwo53));
    default: return IntV(n);
  }
}

void ExpectSameDoubleAnswers(const ElasticStore& store,
                             const testing::ReferenceStore& model,
                             const std::string& step) {
  std::vector<SearchRequest> requests;
  for (const Query& query :
       {Query::Term("v", Json(kTwo53 + 1)),
        Query::Term("v", Json(static_cast<double>(kTwo53))),
        Query::Term("v", Json(4.5)),
        Query::Terms("v", {Json(std::int64_t{7}), Json(10.5), Json(2.5)}),
        Query::Range("v", 0, 50), Query::Range("v", kTwo53, std::nullopt),
        Query::Range("v", std::nullopt, -1)}) {
    SearchRequest request;
    request.query = query;
    request.size = 1000;
    requests.push_back(request);
  }
  for (const bool ascending : {true, false}) {
    SearchRequest sorted;
    sorted.sort = {{"v", ascending}, {"n", false}};
    sorted.size = 1000;
    requests.push_back(sorted);
  }
  for (const SearchRequest& request : requests) {
    auto got = store.Search(kIndex, request);
    auto want = model.Search(kIndex, request);
    ASSERT_TRUE(got.ok() && want.ok()) << step;
    EXPECT_EQ(DumpResult(*got), DumpResult(*want))
        << step << ": " << request.query.ToString();
  }
  for (const Aggregation& agg :
       {Aggregation::Histogram("v", 16),
        Aggregation::Percentiles("v", {1.0, 50.0, 99.0}),
        Aggregation::Stats("v")}) {
    auto got = store.Aggregate(kIndex, Query::MatchAll(), agg);
    auto want = model.Aggregate(kIndex, Query::MatchAll(), agg);
    ASSERT_TRUE(got.ok() && want.ok()) << step;
    EXPECT_EQ(DumpAgg(*got), DumpAgg(*want)) << step;
  }
}

TEST(SegmentRetentionTest, FirstDoubleAfterSealMatchesReferenceModel) {
  ElasticStoreOptions options;
  options.shards_per_index = 2;
  options.segment_docs = 64;
  ElasticStore store(options);
  testing::ReferenceStore model;
  int n = 0;
  const auto ingest = [&](int count, Json (*value)(int)) {
    std::vector<Json> docs;
    for (int i = 0; i < count; ++i, ++n) docs.push_back(VDoc(n, value(n)));
    store.Bulk(kIndex, docs);
    model.Bulk(kIndex, std::move(docs));
    store.Refresh(kIndex);
    model.Refresh(kIndex);
  };
  // 75 rows per shard: a sealed block of 64 and a tail of 11 (a buffer of
  // exactly 11 slots), then one more row each regrows the tail to 32.
  ingest(150, IntV);
  ExpectSameDoubleAnswers(store, model, "ints, sealed");
  const std::uint64_t int_bytes = store.Stats(kIndex)->column_bytes;
  ingest(2, IntV);
  ExpectSameDoubleAnswers(store, model, "ints, regrown tail");
  // The first doubles land in the tail's shared buffer...
  ingest(4, MixedV);
  ExpectSameDoubleAnswers(store, model, "first double in the tail");
  EXPECT_GT(store.Stats(kIndex)->column_bytes, int_bytes);
  // ...and ride the tail's regrowth from 32 slots to 64.
  ingest(40, MixedV);
  ExpectSameDoubleAnswers(store, model, "doubles through a regrowth");

  // Ints of the sealed blocks become doubles, and a double becomes an int
  // past 2^53.
  const auto to_double = [](Json& doc) {
    doc.Set("v", Json(static_cast<double>(doc.GetInt("n")) + 0.5));
    return true;
  };
  auto sealed_updates = store.UpdateByQuery(
      kIndex, Query::Range("n", 0, 40), to_double);
  auto model_updates = model.UpdateByQuery(
      kIndex, Query::Range("n", 0, 40), to_double);
  ASSERT_TRUE(sealed_updates.ok() && model_updates.ok());
  EXPECT_EQ(*sealed_updates, *model_updates);
  ExpectSameDoubleAnswers(store, model, "sealed ints updated to doubles");
  const auto to_int = [](Json& doc) {
    doc.Set("v", Json(kTwo53 + 3));
    return true;
  };
  const Query one_double = Query::Term("v", Json(4.5));
  ASSERT_EQ(*store.UpdateByQuery(kIndex, one_double, to_int),
            *model.UpdateByQuery(kIndex, one_double, to_int));
  ExpectSameDoubleAnswers(store, model, "a double updated to an int");
  ingest(60, IntV);
  ExpectSameDoubleAnswers(store, model, "tail sealed, fresh block");
}

// A build dropped without Commit takes its doubles back with it: when it
// gave a column its first double, the published column still has no double
// array; when the published column had one, the slots the build wrote into
// it are cleared. Either way the list stays indistinguishable from a twin
// that never saw the build, and compiled term and range bitmaps agree with
// Query::Matches on the documents.
TEST(SegmentRetentionTest, DroppedBuildTakesItsDoublesBack) {
  SegmentedColumns dropped(64, 8);
  SegmentedColumns reference(64, 8);
  std::vector<Json> published;
  int n = 0;
  const auto rows = [&n](int count, Json (*value)(int)) {
    std::vector<Json> docs;
    for (int i = 0; i < count; ++i, ++n) docs.push_back(VDoc(n, value(n)));
    return docs;
  };
  const auto publish = [&](const std::vector<Json>& docs) {
    for (SegmentedColumns* segments : {&dropped, &reference}) {
      StageRows(segments, docs);
    }
    published.insert(published.end(), docs.begin(), docs.end());
  };
  const auto expect_twins = [&](const std::string& step) {
    EXPECT_EQ(DumpSegments(dropped), DumpSegments(reference)) << step;
    for (const Query& query :
         {Query::Term("v", Json(kTwo53 + 1)),
          Query::Term("v", Json(static_cast<double>(kTwo53))),
          Query::Terms("v", {Json(std::int64_t{7}), Json(3.5)}),
          Query::Range("v", 0, 50), Query::Range("v", kTwo53, std::nullopt)}) {
      for (const auto& segment : dropped.segments()) {
        const std::span<const Json> docs(published.data() + segment->base,
                                         segment->rows());
        const FilterBitmap bitmap =
            CompiledQuery(query, segment->columns)
                .Eval(segment->rows(), docs, nullptr);
        for (std::size_t pos = 0; pos < docs.size(); ++pos) {
          EXPECT_EQ(bitmap.Test(pos), query.Matches(docs[pos]))
              << step << ": " << query.ToString() << " row "
              << segment->base + pos;
        }
      }
    }
  };
  const auto tail_v = [&dropped] {
    return dropped.segments().back()->columns.Find("v");
  };

  // 10 + 3 rows: a tail of 13 in a buffer of 32, ints only.
  publish(rows(10, IntV));
  publish(rows(3, IntV));
  ASSERT_NE(tail_v(), nullptr);
  EXPECT_FALSE(tail_v()->has_doubles());
  // Dropped: first doubles in the shared buffer, then a regrowth.
  StageRows(&dropped, rows(30, MixedV), /*publish=*/false);
  EXPECT_FALSE(tail_v()->has_doubles());
  publish(rows(3, IntV));
  EXPECT_FALSE(tail_v()->has_doubles());
  expect_twins("first double dropped");

  // Now the published tail holds a double; a dropped build writes more into
  // the double array it shares, below the buffer's capacity.
  publish(rows(4, MixedV));
  EXPECT_TRUE(tail_v()->has_doubles());
  StageRows(&dropped, rows(5, MixedV), /*publish=*/false);
  publish(rows(5, IntV));
  expect_twins("shared doubles dropped");
}

// ---- the end-of-stream trim -------------------------------------------------
// TrimTails copies each unsealed tail into buffers of exactly its rows. One
// stream is trimmed at several points: mid-growth (a tail in a regrown
// buffer), with no tail (every block sealed), right after a seal (a fresh
// tail) and, with segment_docs = 0, on a tail that never seals. After each
// trim the index holds exactly its rows (column_slots == doc_count), a
// second trim finds nothing to copy, and every read is byte-identical to
// the reference model's. Then the stream goes on: appends regrow the
// trimmed tail from its exact capacity, and update-by-query rewrites rows
// in sealed blocks and in the trimmed tail (interning strings the blocks
// hold and one they do not), and the answers must still agree. A rewrite
// leaves no string -> ordinal map behind, so it keeps a tail exact.

std::string AllRows(const QueryBackend& store) {
  SearchRequest request;
  request.size = std::numeric_limits<std::size_t>::max();
  auto result = store.Search(kIndex, request);
  return result.ok() ? DumpResult(*result) : "search-error";
}

void ExpectSameAnswers(const ElasticStore& store,
                       const testing::ReferenceStore& model, int docnum,
                       const std::string& step) {
  EXPECT_EQ(AllRows(store), AllRows(model)) << step;
  for (std::size_t which = 0; which < 5; ++which) {
    EXPECT_EQ(ReadOp(store, which, docnum), ReadOp(model, which, docnum))
        << step << ": read op " << which;
  }
  for (const char* comm : {"postgres", "vacuum", "rocksdb:low"}) {
    EXPECT_EQ(*store.Count(kIndex, Query::Term("comm", comm)),
              *model.Count(kIndex, Query::Term("comm", comm)))
        << step << ": comm " << comm;
  }
}

TEST(SegmentRetentionTest, TrimmedTailsMatchReferenceModel) {
  for (const std::size_t segment_docs : {64u, 0u}) {
    SCOPED_TRACE("segment_docs=" + std::to_string(segment_docs));
    ElasticStoreOptions options;
    options.shards_per_index = 2;
    options.segment_docs = segment_docs;
    ElasticStore store(options);
    testing::ReferenceStore model;
    int docnum = 0;
    const auto ingest = [&](int count) {
      std::vector<tracer::WireEvent> batch;
      Random gen(7000 + static_cast<std::uint64_t>(docnum));
      for (int i = 0; i < count; ++i) {
        batch.push_back(MakeWire(gen, docnum + i));
      }
      docnum += count;
      store.BulkWire(kIndex, kSession, batch);
      model.BulkWire(kIndex, kSession, batch);
      store.Refresh(kIndex);
      model.Refresh(kIndex);
    };
    const auto update = [&](const Query& query,
                            const std::function<bool(Json&)>& fn) {
      auto got = store.UpdateByQuery(kIndex, query, fn);
      auto want = model.UpdateByQuery(kIndex, query, fn);
      ASSERT_TRUE(got.ok() && want.ok());
      EXPECT_EQ(*got, *want);
    };
    // Trims, then checks that the index holds exactly its rows; that the
    // slot rows copied (every unsealed row when the tails had slack, none
    // when their slots were already exact) were counted; that column bytes
    // fell (lookup maps and dictionary slack gone) exactly when a tail
    // needed trimming; and that a second trim changes nothing. Then
    // compares every read with the model.
    const auto trim = [&](const std::string& step, bool expect_trim) {
      const IndexStats before = *store.Stats(kIndex);
      const std::size_t copied = store.TrimTails(kIndex);
      const IndexStats after = *store.Stats(kIndex);
      const std::size_t unsealed =
          after.doc_count - after.sealed_segments * segment_docs;
      const bool slack = before.column_slots > before.doc_count;
      EXPECT_EQ(copied, slack ? unsealed : 0u) << step;
      EXPECT_EQ(after.column_rows_written,
                before.column_rows_written + copied)
          << step;
      EXPECT_EQ(after.column_slots, after.doc_count) << step;
      if (expect_trim) {
        EXPECT_LT(after.column_bytes, before.column_bytes) << step;
      } else {
        EXPECT_EQ(after.column_bytes, before.column_bytes) << step;
      }
      EXPECT_EQ(after.doc_count, before.doc_count) << step;
      EXPECT_EQ(store.TrimTails(kIndex), 0u) << step << ": second trim";
      EXPECT_EQ(store.Stats(kIndex)->column_bytes, after.column_bytes)
          << step << ": second trim";
      ExpectSameAnswers(store, model, docnum, step);
    };

    EXPECT_EQ(store.TrimTails(kIndex), 0u);  // no such index yet
    ASSERT_TRUE(store.CreateIndex(kIndex).ok());
    EXPECT_EQ(store.TrimTails(kIndex), 0u);  // an index with no segments

    // Mid-growth: 7 rows per shard, the tail regrown past its first buffer
    // of 5 slots (to 10 slots, or 16 on the level ladder below 64).
    ingest(10);
    ingest(4);
    ASSERT_GT(store.Stats(kIndex)->column_slots, 14u);
    trim("mid-growth", true);

    // 64 rows per shard: at segment_docs 64 every block has sealed and
    // there is no tail left to trim.
    ingest(114);
    trim("no tail", segment_docs == 0);

    // Right after a seal: a fresh three-row tail per shard.
    ingest(6);
    trim("right after a seal", true);
    // An update-by-query rewriting every row rebuilds the maps it interns
    // through and drops them again: the tails stay exact, and a trim finds
    // nothing to take.
    update(Query::MatchAll(), [](Json& doc) {
      doc.Set("seen", true);
      return true;
    });
    const std::uint64_t rewritten = store.Stats(kIndex)->column_bytes;
    EXPECT_EQ(store.TrimTails(kIndex), 0u);
    EXPECT_EQ(store.Stats(kIndex)->column_bytes, rewritten);
    ExpectSameAnswers(store, model, docnum, "every row rewritten");

    // The stream goes on: the trimmed tails regrow, and update-by-query
    // rewrites rows in sealed blocks and in the tails. Odd rows get a comm
    // the blocks already hold, even rows one they have never seen.
    ingest(50);
    ExpectSameAnswers(store, model, docnum, "appended after the trim");
    update(Query::Term("syscall", "fsync"), [](Json& doc) {
      if (doc.Has("correlated")) return false;
      doc.Set("correlated", true);
      return true;
    });
    update(Query::Range("time_enter", std::nullopt, 1'000 + 7 * 40),
           [](Json& doc) {
             doc.Set("comm", doc.GetInt("time_enter") % 2 == 1 ? "postgres"
                                                               : "vacuum");
             return true;
           });
    ExpectSameAnswers(store, model, docnum, "updated after the trim");
    ingest(17);
    trim("after the updates", true);
    ingest(9);
    ExpectSameAnswers(store, model, docnum, "appended after the last trim");
  }
}

// A sealed block keeps no string -> ordinal maps. An update-by-query that
// rewrites one of its rows must rebuild them from the dictionary rather
// than start empty: a string the block already holds keeps its ordinal, a
// new string gets the next one, and no string enters the dictionary twice.
TEST(SegmentRetentionTest, UpdateOnSealedBlockReusesItsOrdinals) {
  SegmentedColumns segments(8, 8);
  StageRows(&segments, Rows("a", 12, /*with_g=*/true));
  ColumnSegment& block = *segments.segments().front();
  ASSERT_TRUE(block.sealed);
  // Eight rows with eight distinct strings: slots, dictionary and no map.
  EXPECT_TRUE(block.columns.exact());
  EXPECT_FALSE(segments.segments().back()->columns.exact());

  const DocValueColumn& s = *block.columns.Find("s");
  ASSERT_EQ(s.dict().size(), 8u);
  const std::int64_t a3 = s.ints()[3];
  // What the store's update-by-query does to a rewritten row.
  Json existing = Json::MakeObject();
  existing.Set("s", Json("a3"));
  Json fresh = Json::MakeObject();
  fresh.Set("s", Json("new"));
  block.columns.ReplaceRow(1, existing);
  block.columns.ReplaceRow(2, fresh);
  block.columns.FinishBatch();

  EXPECT_EQ(s.ints()[1], a3);
  EXPECT_EQ(s.str(1), "a3");
  EXPECT_EQ(s.ints()[2], 8);
  EXPECT_EQ(s.str(2), "new");
  ASSERT_EQ(s.dict().size(), 9u);
  const std::set<std::string> unique(s.dict().begin(), s.dict().end());
  EXPECT_EQ(unique.size(), s.dict().size());
  EXPECT_EQ(s.Ordinal("a3"), std::optional<std::uint32_t>(3));
  EXPECT_EQ(s.Ordinal("new"), std::optional<std::uint32_t>(8));
  // The rewritten rows lost their "g" cells; the others kept theirs.
  EXPECT_EQ(block.columns.Find("g")->kind(1), ValueKind::kMissing);
  EXPECT_EQ(block.columns.Find("g")->ints()[0], 100);
}

// A build that extends a tail holding no string -> ordinal map (a trimmed
// tail) rebuilds one of its own, and a build that seals the tail it
// extends drops the map it shares with the published tail. Dropping
// either build unpublished must still leave the list indistinguishable
// from a twin that never saw it: no stale ordinal for a later string.
TEST(SegmentRetentionTest, DroppedBuildAroundDroppedMapsLeavesTheTailIntact) {
  SegmentedColumns dropped(64, 8);
  SegmentedColumns reference(64, 8);
  for (SegmentedColumns* segments : {&dropped, &reference}) {
    StageRows(segments, Rows("a", 10, /*with_g=*/true));
  }
  const std::vector<Json> next = [] {
    std::vector<Json> docs;
    for (const char* value : {"y0", "x0", "a1", "x1"}) {
      Json doc = Json::MakeObject();
      doc.Set("s", Json(value));
      docs.push_back(std::move(doc));
    }
    return docs;
  }();

  // The published tail has a map; a dropped build seals its extension at
  // 64 rows (Finish drops the extension's map) and is never committed.
  {
    StagedSegmentBuild build(dropped, 60);
    for (const Json& doc : Rows("x", 60, /*with_g=*/false)) {
      build.PrepareRow();
      build.tail().AppendDoc(doc);
    }
    build.Finish();
  }
  for (SegmentedColumns* segments : {&dropped, &reference}) {
    StageRows(segments, next);
  }
  EXPECT_EQ(DumpSegments(dropped), DumpSegments(reference));

  // Trim both tails (no map left), then drop a build that rebuilt a map of
  // its own while interning new strings.
  for (SegmentedColumns* segments : {&dropped, &reference}) {
    std::size_t copied = 0;
    std::shared_ptr<ColumnSegment> trimmed = segments->TrimmedTail(&copied);
    ASSERT_NE(trimmed, nullptr);
    EXPECT_EQ(copied, trimmed->rows());
    EXPECT_EQ(trimmed->columns.capacity(), trimmed->rows());
    EXPECT_TRUE(trimmed->columns.exact());
    segments->ReplaceTail(std::move(trimmed));
    EXPECT_EQ(segments->TrimmedTail(&copied), nullptr);
    EXPECT_EQ(copied, 0u);
  }
  StageRows(&dropped, Rows("z", 30, /*with_g=*/true), /*publish=*/false);
  for (SegmentedColumns* segments : {&dropped, &reference}) {
    StageRows(segments, Rows("z", 3, /*with_g=*/false));
    StageRows(segments, next);
  }
  EXPECT_EQ(DumpSegments(dropped), DumpSegments(reference));
  const DocValueColumn* s = dropped.segments().back()->columns.Find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_FALSE(s->Ordinal("z3").has_value());
  const std::set<std::string> unique(s->dict().begin(), s->dict().end());
  EXPECT_EQ(unique.size(), s->dict().size());
}

}  // namespace
}  // namespace dio::backend
