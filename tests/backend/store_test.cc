#include "backend/store.h"

#include <gtest/gtest.h>

#include <thread>

#include "backend/bulk_client.h"
#include "backend/typed_ingest.h"
#include "common/random.h"
#include "support/reference_store.h"
#include "trace/corpus.h"
#include "tracer/wire.h"

namespace dio::backend {
namespace {

Json Event(const std::string& syscall, int tid, std::int64_t ts,
           std::int64_t ret) {
  Json doc = Json::MakeObject();
  doc.Set("syscall", syscall);
  doc.Set("tid", tid);
  doc.Set("time_enter", ts);
  doc.Set("ret", ret);
  return doc;
}

class StoreTest : public ::testing::Test {
 protected:
  void Seed(const std::string& index, int count) {
    std::vector<Json> docs;
    for (int i = 0; i < count; ++i) {
      docs.push_back(Event(i % 2 == 0 ? "read" : "write", 100 + i % 4,
                           1000 + i, i));
    }
    store_.Bulk(index, std::move(docs));
    store_.Refresh(index);
  }

  ElasticStore store_;
};

TEST_F(StoreTest, CreateDeleteList) {
  EXPECT_TRUE(store_.CreateIndex("s1").ok());
  EXPECT_FALSE(store_.CreateIndex("s1").ok());
  EXPECT_TRUE(store_.HasIndex("s1"));
  EXPECT_EQ(store_.ListIndices(), (std::vector<std::string>{"s1"}));
  EXPECT_TRUE(store_.DeleteIndex("s1").ok());
  EXPECT_FALSE(store_.DeleteIndex("s1").ok());
  EXPECT_FALSE(store_.HasIndex("s1"));
}

TEST_F(StoreTest, BulkAutoCreatesIndex) {
  store_.Bulk("auto", {Event("read", 1, 1, 0)});
  EXPECT_TRUE(store_.HasIndex("auto"));
}

TEST_F(StoreTest, NearRealTimeVisibility) {
  store_.Bulk("nrt", {Event("read", 1, 1, 0)});
  auto stats = store_.Stats("nrt");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->doc_count, 0u);      // not yet searchable
  EXPECT_EQ(stats->pending_count, 1u);
  auto count = store_.Count("nrt", Query::MatchAll());
  EXPECT_EQ(*count, 0u);
  store_.Refresh("nrt");
  EXPECT_EQ(*store_.Count("nrt", Query::MatchAll()), 1u);
  EXPECT_EQ(store_.Stats("nrt")->pending_count, 0u);
}

TEST_F(StoreTest, SearchTermAndRange) {
  Seed("s", 100);
  SearchRequest request;
  request.query = Query::Term("syscall", Json("read"));
  auto result = store_.Search("s", request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total, 50u);

  request.query = Query::And({Query::Term("syscall", Json("write")),
                              Query::Range("time_enter", 1000, 1009)});
  result = store_.Search("s", request);
  EXPECT_EQ(result->total, 5u);
}

TEST_F(StoreTest, SearchMissingIndexErrors) {
  EXPECT_FALSE(store_.Search("none", SearchRequest{}).ok());
  EXPECT_FALSE(store_.Count("none", Query::MatchAll()).ok());
  EXPECT_FALSE(store_.Stats("none").ok());
}

TEST_F(StoreTest, SortAscendingDescendingAndMissingLast) {
  store_.Bulk("sorted", {Event("a", 1, 300, 0), Event("b", 2, 100, 0),
                         Event("c", 3, 200, 0)});
  Json no_ts = Json::MakeObject();
  no_ts.Set("syscall", "d");
  store_.Bulk("sorted", {std::move(no_ts)});
  store_.Refresh("sorted");

  SearchRequest request;
  request.sort = {{"time_enter", true}};
  auto result = store_.Search("sorted", request);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits.size(), 4u);
  EXPECT_EQ(result->hits[0].source.GetString("syscall"), "b");
  EXPECT_EQ(result->hits[1].source.GetString("syscall"), "c");
  EXPECT_EQ(result->hits[2].source.GetString("syscall"), "a");
  EXPECT_EQ(result->hits[3].source.GetString("syscall"), "d");  // missing last

  request.sort = {{"time_enter", false}};
  result = store_.Search("sorted", request);
  EXPECT_EQ(result->hits[0].source.GetString("syscall"), "a");
  EXPECT_EQ(result->hits[3].source.GetString("syscall"), "d");
}

TEST_F(StoreTest, PagingFromSize) {
  Seed("page", 25);
  SearchRequest request;
  request.sort = {{"time_enter", true}};
  request.from = 10;
  request.size = 10;
  auto result = store_.Search("page", request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total, 25u);
  ASSERT_EQ(result->hits.size(), 10u);
  EXPECT_EQ(result->hits[0].source.GetInt("time_enter"), 1010);
  request.from = 20;
  result = store_.Search("page", request);
  EXPECT_EQ(result->hits.size(), 5u);
  request.from = 100;
  result = store_.Search("page", request);
  EXPECT_TRUE(result->hits.empty());
}

TEST_F(StoreTest, UpdateByQueryMutatesAndStaysQueryable) {
  Seed("upd", 20);
  auto updated = store_.UpdateByQuery(
      "upd", Query::Term("syscall", Json("read")),
      [](Json& doc) {
        doc.Set("file_path", "/data/x");
        return true;
      });
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, 10u);
  // New field immediately searchable: the update rewrote the row's columns.
  EXPECT_EQ(*store_.Count("upd", Query::Term("file_path", Json("/data/x"))),
            10u);
  EXPECT_EQ(*store_.Count("upd", Query::Exists("file_path")), 10u);
}

TEST_F(StoreTest, UpdateByQueryChangedValueNotMatchedByStaleTerm) {
  store_.Bulk("stale", {Event("read", 1, 1, 0)});
  store_.Refresh("stale");
  ASSERT_TRUE(store_
                  .UpdateByQuery("stale", Query::MatchAll(),
                                 [](Json& doc) {
                                   doc.Set("syscall", "pread64");
                                   return true;
                                 })
                  .ok());
  // The rewritten column slot no longer holds the old term.
  EXPECT_EQ(*store_.Count("stale", Query::Term("syscall", Json("read"))), 0u);
  EXPECT_EQ(*store_.Count("stale", Query::Term("syscall", Json("pread64"))),
            1u);
}

// A callback that edits the document and then declines the update must
// leave the row exactly as it was: the hit, and every query over the
// columns. Checked on a JSON row and on a typed row.
void ExpectDeclinedUpdateLeavesRow(ElasticStore& store,
                                   const std::string& index) {
  SearchRequest all;
  auto before = store.Search(index, all);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->hits.size(), 1u);
  auto updated = store.UpdateByQuery(index, Query::MatchAll(), [](Json& doc) {
    doc.Set("syscall", "write");
    return false;
  });
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, 0u);
  auto after = store.Search(index, all);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->hits.size(), 1u);
  EXPECT_EQ(after->hits[0].source.Dump(), before->hits[0].source.Dump());
  EXPECT_EQ(after->hits[0].source.GetString("syscall"), "read");
  EXPECT_EQ(*store.Count(index, Query::Term("syscall", Json("read"))), 1u);
  EXPECT_EQ(*store.Count(index, Query::Term("syscall", Json("write"))), 0u);
}

TEST_F(StoreTest, DeclinedUpdateLeavesJsonRowUnchanged) {
  store_.Bulk("decline", {Event("read", 1, 1, 0)});
  store_.Refresh("decline");
  ExpectDeclinedUpdateLeavesRow(store_, "decline");
}

TEST_F(StoreTest, DeclinedUpdateLeavesTypedRowUnchanged) {
  tracer::WireEvent e;
  e.nr = static_cast<std::uint8_t>(os::SyscallNr::kRead);
  e.phase = 2;
  e.pid = 7;
  e.tid = 7;
  e.time_enter = 10;
  e.time_exit = 15;
  store_.BulkWire("decline", "s", {e});
  store_.Refresh("decline");
  ExpectDeclinedUpdateLeavesRow(store_, "decline");
  EXPECT_EQ(store_.Stats("decline")->typed_rows, 1u);
}

// Typed rows keep no row-store entry: an index of typed rows only has an
// empty row store, and a JSON row after typed ones grows it just far enough
// to hold that row.
TEST_F(StoreTest, TypedRowsKeepNoRowStoreEntry) {
  std::vector<tracer::WireEvent> records(10);
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].nr = static_cast<std::uint8_t>(os::SyscallNr::kWrite);
    records[i].phase = 2;
    records[i].time_enter = static_cast<std::int64_t>(i);
  }
  store_.BulkWire("rows", "s", records);
  store_.Refresh("rows");
  auto typed_only = store_.Stats("rows");
  ASSERT_TRUE(typed_only.ok());
  EXPECT_EQ(typed_only->doc_count, 10u);
  EXPECT_EQ(typed_only->row_store_docs, 0u);

  // Docid 10 is position 2 of sub-shard 2 (4 sub-shards): that shard's row
  // store grows to 3 entries, the others stay empty.
  store_.Bulk("rows", {Event("read", 1, 1, 0)});
  store_.Refresh("rows");
  auto mixed = store_.Stats("rows");
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(mixed->doc_count, 11u);
  EXPECT_EQ(mixed->row_store_docs, 3u);
  SearchRequest all;
  all.size = 20;
  auto hits = store_.Search("rows", all);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->hits.size(), 11u);
  EXPECT_EQ(hits->hits[2].source.GetString("syscall"), "write");
  EXPECT_EQ(hits->hits[10].source.GetString("syscall"), "read");
}

// Memory gate for typed rows: a slot costs a kind byte and one int64, a
// column exists only once a row writes it, and typed rows keep no row-store
// entry. 16,384 walfsync rows in one refresh (a 4,096-row tail per
// sub-shard, below the 65,536-row seal) must hold at most 10 B per present
// column plus 8 B of dictionary per row. A layout of 27 columns with an
// int64 and a double per slot (459 B/row) fails it.
TEST(ColumnBytesTest, TypedWalfsyncRowsPayOnlyForTheirCells) {
  constexpr std::size_t kRows = 16'384;
  const std::vector<tracer::WireEvent> events =
      trace::GenerateCorpusEvents(trace::CorpusClass::kWalFsync, kRows, 1);
  ElasticStoreOptions options;
  options.segment_docs = 65'536;
  ElasticStore store(options);
  store.BulkWire("wal", "walfsync", events);
  store.Refresh("wal");
  auto stats = store.Stats("wal");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->doc_count, kRows);
  EXPECT_EQ(stats->typed_rows, kRows);
  EXPECT_EQ(stats->row_store_docs, 0u);
  const double columns_present =
      static_cast<double>(stats->doc_value_fields) /
      static_cast<double>(options.shards_per_index);
  const double bytes_per_row =
      static_cast<double>(stats->column_bytes) / static_cast<double>(kRows);
  EXPECT_LE(bytes_per_row, 10.0 * columns_present + 8.0)
      << stats->column_bytes << " B over " << columns_present << " columns";

  // The same rows through one appender: no column holds a double array,
  // and fields no walfsync row has get no column at all.
  ColumnSet columns;
  WireColumnAppender appender(&columns);
  for (const tracer::WireEvent& e : events) appender.Append(e, "walfsync");
  columns.FinishBatch();
  EXPECT_LT(columns.num_fields(), WireDocFields().size());
  for (const char* absent : {"whence", "xattr_name", "arg_offset"}) {
    EXPECT_EQ(columns.Find(absent), nullptr) << absent;
  }
  columns.ForEachField([&columns](const std::string& field) {
    EXPECT_FALSE(columns.Find(field)->has_doubles()) << field;
    EXPECT_EQ(columns.Find(field)->size(), columns.num_docs()) << field;
  });
}

// Memory gate for a finished stream: a burst_walfsync-shaped session
// (16,384 walfsync rows over four refreshes, then 128 more, then the
// end-of-stream BulkClient::Flush) leaves each sub-shard with 4,128 rows.
// Regrowth left those tails in 8,192-slot buffers; after the flush's trim
// every tail holds exactly its rows, and the index's column bytes per row
// are within 1.1x of a store that took all the rows in one refresh. Without
// the trim the same stream holds about twice that.
TEST(ColumnBytesTest, FlushedBurstHoldsExactlyItsRows) {
  constexpr std::size_t kBurst = 16'384;
  constexpr std::size_t kProbes = 128;
  constexpr std::size_t kRefreshes = 4;
  const std::vector<tracer::WireEvent> events = trace::GenerateCorpusEvents(
      trace::CorpusClass::kWalFsync, kBurst + kProbes, 7);

  ElasticStore burst;
  BulkClientOptions options;
  options.network_latency_ns = 0;
  options.refresh_every_batches = 0;
  BulkClient client(&burst, "wal", options);
  const auto submit = [&client, &events](std::size_t first, std::size_t last) {
    transport::EventBatch batch;
    batch.session = "walfsync";
    batch.wire.assign(events.begin() + static_cast<std::ptrdiff_t>(first),
                      events.begin() + static_cast<std::ptrdiff_t>(last));
    ASSERT_TRUE(client.Submit(std::move(batch)).ok());
  };
  constexpr std::size_t kChunk = kBurst / kRefreshes;
  for (std::size_t r = 0; r < kRefreshes; ++r) {
    submit(r * kChunk, (r + 1) * kChunk);
    burst.Refresh("wal");
  }
  submit(kBurst, kBurst + kProbes);
  burst.Refresh("wal");
  const IndexStats grown = *burst.Stats("wal");
  client.Flush();
  auto stats = burst.Stats("wal");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->doc_count, kBurst + kProbes);
  ASSERT_EQ(stats->sealed_segments, 0u);
  // The stream did leave growth slack, and the flush took all of it.
  EXPECT_GT(grown.column_slots, grown.doc_count);
  EXPECT_EQ(stats->column_slots, stats->doc_count);
  EXPECT_EQ(stats->column_rows_written,
            grown.column_rows_written + stats->doc_count);

  ElasticStore single;
  single.BulkWire("wal", "walfsync", events);
  single.Refresh("wal");
  auto exact = single.Stats("wal");
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(exact->column_slots, exact->doc_count);
  const double rows = static_cast<double>(stats->doc_count);
  const double burst_per_row = static_cast<double>(stats->column_bytes) / rows;
  const double exact_per_row = static_cast<double>(exact->column_bytes) / rows;
  EXPECT_LE(burst_per_row, 1.1 * exact_per_row)
      << "flushed burst " << burst_per_row << " B/row, single refresh "
      << exact_per_row << " B/row";
}

// An empty bool query, or one whose only clause is an empty should, has
// no clause a document could fail, so it matches every document — what
// Elasticsearch's BoolQueryBuilder answers with match_all. The store holds
// that on JSON rows and typed rows, and on an index of either alone.
TEST_F(StoreTest, EmptyBoolMatchesEveryDocument) {
  std::vector<tracer::WireEvent> records(6);
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].nr = static_cast<std::uint8_t>(os::SyscallNr::kWrite);
    records[i].phase = 2;
    records[i].time_enter = static_cast<std::int64_t>(i);
  }
  Seed("json", 5);
  store_.BulkWire("typed", "s", records);
  store_.Refresh("typed");
  Seed("mixed", 5);
  store_.BulkWire("mixed", "s", records);
  store_.Refresh("mixed");

  for (const char* body : {R"({"bool": {}})", R"({"bool": {"should": []}})",
                           R"({"bool": {"should": [], "must": []}})"}) {
    auto query = Query::FromJsonText(body);
    ASSERT_TRUE(query.ok()) << body;
    for (const auto& [index, rows] :
         {std::pair<const char*, std::size_t>{"json", 5}, {"typed", 6},
          {"mixed", 11}}) {
      EXPECT_EQ(*store_.Count(index, *query), rows) << body << " on " << index;
      SearchRequest request;
      request.query = *query;
      request.size = 20;
      auto hits = store_.Search(index, request);
      ASSERT_TRUE(hits.ok());
      EXPECT_EQ(hits->total, rows) << body << " on " << index;
    }
  }
}

// The reference model gives the same answer as the store: its matcher,
// Query::Matches, treats an empty bool and an empty should as match_all.
TEST(ReferenceStoreTest, EmptyBoolMatchesEveryDocument) {
  testing::ReferenceStore model;
  std::vector<Json> docs;
  for (int i = 0; i < 4; ++i) {
    docs.push_back(Event(i % 2 == 0 ? "read" : "write", i, i, 0));
  }
  docs.push_back(Json::MakeObject());
  model.Bulk("m", std::move(docs));
  model.Refresh("m");
  for (const char* body : {R"({"bool": {}})", R"({"bool": {"should": []}})"}) {
    auto query = Query::FromJsonText(body);
    ASSERT_TRUE(query.ok()) << body;
    EXPECT_EQ(*model.Count("m", *query), 5u) << body;
    EXPECT_TRUE(query->Matches(Json::MakeObject())) << body;
  }
}

TEST_F(StoreTest, AggregateTermsWithSubHistogram) {
  for (int t = 0; t < 3; ++t) {
    std::vector<Json> docs;
    for (int i = 0; i < 10 * (t + 1); ++i) {
      docs.push_back(Event("rw", 100 + t, i * 10, 0));
    }
    store_.Bulk("agg", std::move(docs));
  }
  store_.Refresh("agg");
  auto agg = Aggregation::Terms("tid").SubAgg(
      "hist", Aggregation::Histogram("time_enter", 100));
  auto result = store_.Aggregate("agg", Query::MatchAll(), agg);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->buckets.size(), 3u);
  // Sorted by doc_count desc: tid 102 (30 docs) first.
  EXPECT_EQ(result->buckets[0].key.as_int(), 102);
  EXPECT_EQ(result->buckets[0].doc_count, 30);
  const AggResult& hist = result->buckets[0].sub.at("hist");
  EXPECT_EQ(hist.buckets.size(), 3u);  // 0..299 in 100-wide buckets
  EXPECT_EQ(hist.buckets[0].doc_count, 10);
}

TEST_F(StoreTest, CountMatchesSearchTotal) {
  Seed("cnt", 42);
  const Query q = Query::Term("syscall", Json("read"));
  SearchRequest request;
  request.query = q;
  EXPECT_EQ(*store_.Count("cnt", q), store_.Search("cnt", request)->total);
}

// Property: the store's scan over doc-value columns returns what the
// reference model's Query::Matches over plain documents returns, for JSON
// rows, typed (wire) rows, and rows an update-by-query converted from typed
// to JSON — all of which take the same scan path.
class StoreQueryEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

Json RandomEquivalenceDoc(Random& rng) {
  static const char* kSyscalls[] = {"read", "write", "openat", "close",
                                    "lseek"};
  Json doc = Json::MakeObject();
  doc.Set("syscall", kSyscalls[rng.Uniform(5)]);
  doc.Set("tid", static_cast<std::int64_t>(rng.Uniform(8)));
  doc.Set("ts", static_cast<std::int64_t>(rng.Uniform(10000)));
  if (rng.OneIn(3)) doc.Set("path", "/data/f" + std::to_string(rng.Uniform(10)));
  return doc;
}

// A wire record whose document carries the same field names as
// RandomEquivalenceDoc ("syscall", "tid", "path"), so one query set covers
// both row kinds; "ts" stays JSON-only.
tracer::WireEvent RandomEquivalenceWire(Random& rng) {
  static const os::SyscallNr kMix[] = {
      os::SyscallNr::kRead, os::SyscallNr::kWrite, os::SyscallNr::kOpenat,
      os::SyscallNr::kClose, os::SyscallNr::kLseek};
  tracer::WireEvent e;
  e.nr = static_cast<std::uint8_t>(kMix[rng.Uniform(5)]);
  e.phase = 2;
  e.pid = 7;
  e.tid = static_cast<std::int32_t>(rng.Uniform(8));
  e.time_enter = static_cast<std::int64_t>(rng.Uniform(10000));
  e.time_exit = e.time_enter + 5;
  if (rng.OneIn(3)) {
    e.path_len = tracer::WireEvent::FillString(
        e.path, tracer::kWirePathCap, "/data/f" + std::to_string(rng.Uniform(10)),
        &e.path_trunc);
  }
  return e;
}

TEST_P(StoreQueryEquivalence, ScanAgreesWithReferenceModel) {
  Random rng(GetParam());
  // "json": JSON rows only. "mixed": typed batches, JSON batches, and an
  // update-by-query that converts some typed rows to JSON rows.
  ElasticStore json_store;
  testing::ReferenceStore json_model;
  std::vector<Json> docs;
  for (int i = 0; i < 500; ++i) docs.push_back(RandomEquivalenceDoc(rng));
  json_store.Bulk("p", docs);
  json_model.Bulk("p", std::move(docs));
  json_store.Refresh("p");
  json_model.Refresh("p");

  ElasticStoreOptions mixed_options;
  mixed_options.shards_per_index = 3;
  mixed_options.segment_docs = 64;
  ElasticStore mixed_store(mixed_options);
  testing::ReferenceStore mixed_model;
  for (int batch = 0; batch < 6; ++batch) {
    if (batch % 2 == 0) {
      std::vector<tracer::WireEvent> records;
      for (int i = 0; i < 90; ++i) records.push_back(RandomEquivalenceWire(rng));
      mixed_store.BulkWire("p", "eq", records);
      mixed_model.BulkWire("p", "eq", records);
    } else {
      std::vector<Json> rows;
      for (int i = 0; i < 70; ++i) rows.push_back(RandomEquivalenceDoc(rng));
      mixed_store.Bulk("p", rows);
      mixed_model.Bulk("p", std::move(rows));
    }
    mixed_store.Refresh("p");
    mixed_model.Refresh("p");
  }
  const auto tag = [](Json& doc) {
    if (doc.Has("ts")) return false;  // JSON rows stay as they are
    doc.Set("ts", doc.GetInt("time_enter"));
    doc.Set("path", "/data/f1-converted");
    return true;
  };
  auto converted = mixed_store.UpdateByQuery(
      "p", Query::Terms("syscall", {Json("write"), Json("close")}), tag);
  auto converted_model = mixed_model.UpdateByQuery(
      "p", Query::Terms("syscall", {Json("write"), Json("close")}), tag);
  ASSERT_TRUE(converted.ok() && converted_model.ok());
  EXPECT_GT(*converted, 0u);
  EXPECT_EQ(*converted, *converted_model);
  auto stats = mixed_store.Stats("p");
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->typed_rows, 0u);
  EXPECT_LT(stats->typed_rows + *converted, stats->doc_count);

  std::vector<Query> queries;
  queries.push_back(Query::Term("syscall", Json("read")));
  queries.push_back(Query::Terms("syscall", {Json("write"), Json("lseek")}));
  queries.push_back(Query::Range("ts", 2500, 7500));
  queries.push_back(Query::Prefix("path", "/data/f1"));
  queries.push_back(Query::Exists("path"));
  queries.push_back(Query::And({Query::Term("tid", Json(3)),
                                Query::Range("ts", 1000, std::nullopt)}));
  queries.push_back(Query::Or({Query::Term("syscall", Json("close")),
                               Query::Range("ts", std::nullopt, 100)}));
  queries.push_back(Query::Not(Query::Term("syscall", Json("read"))));
  queries.push_back(Query::And(
      {Query::Not(Query::Exists("path")),
       Query::Or({Query::Term("tid", Json(0)), Query::Term("tid", Json(1))})}));

  const auto dump = [](const SearchResult& result) {
    std::string out = std::to_string(result.total);
    for (const Hit& hit : result.hits) {
      out += " " + std::to_string(hit.id) + hit.source.Dump();
    }
    return out;
  };
  const std::pair<ElasticStore*, testing::ReferenceStore*> indices[] = {
      {&json_store, &json_model}, {&mixed_store, &mixed_model}};
  for (const auto& [store, model] : indices) {
    for (const Query& q : queries) {
      SearchRequest request;
      request.query = q;
      request.sort = {{"ts", false}};
      auto got = store->Search("p", request);
      auto want = model->Search("p", request);
      ASSERT_TRUE(got.ok() && want.ok()) << q.ToString();
      EXPECT_EQ(dump(*got), dump(*want)) << q.ToString();
      EXPECT_EQ(*store->Count("p", q), *model->Count("p", q)) << q.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreQueryEquivalence,
                         ::testing::Values(11, 22, 33, 44));

TEST_F(StoreTest, SearchBodyFromJsonFullRoundTrip) {
  Seed("dsl", 50);
  auto request = SearchRequest::FromJsonText(R"({
    "query": {"bool": {
      "must": [{"term": {"syscall": "read"}},
               {"range": {"time_enter": {"gte": 1000, "lte": 1040}}}]
    }},
    "sort": [{"time_enter": {"order": "desc"}}],
    "from": 2,
    "size": 5
  })");
  ASSERT_TRUE(request.ok());
  auto result = store_.Search("dsl", *request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->total, 21u);  // even offsets in [1000,1040]
  ASSERT_EQ(result->hits.size(), 5u);
  // Sorted desc, paged past the first two: 1040, 1038 skipped.
  EXPECT_EQ(result->hits[0].source.GetInt("time_enter"), 1036);
}

TEST_F(StoreTest, SearchBodyStringSortAscending) {
  Seed("dsl2", 10);
  auto request = SearchRequest::FromJsonText(
      R"({"sort": ["time_enter"], "size": 3})");
  ASSERT_TRUE(request.ok());
  auto result = store_.Search("dsl2", *request);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->hits[0].source.GetInt("time_enter"), 1000);
}

TEST_F(StoreTest, SearchBodyRejectsMalformed) {
  EXPECT_FALSE(SearchRequest::FromJsonText("[]").ok());
  EXPECT_FALSE(SearchRequest::FromJsonText(R"({"unknown": 1})").ok());
  EXPECT_FALSE(SearchRequest::FromJsonText(R"({"from": -1})").ok());
  EXPECT_FALSE(SearchRequest::FromJsonText(R"({"sort": "x"})").ok());
  EXPECT_FALSE(
      SearchRequest::FromJsonText(R"({"query": {"bogus": {}}})").ok());
}

TEST_F(StoreTest, ConcurrentBulkAndSearch) {
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 50; ++i) {
      store_.Bulk("conc", {Event("read", 1, i, 0)});
      store_.Refresh("conc");
    }
    stop.store(true);
  });
  std::thread reader([&] {
    while (!stop.load()) {
      if (store_.HasIndex("conc")) {
        auto count = store_.Count("conc", Query::MatchAll());
        if (count.ok()) {
          EXPECT_LE(*count, 50u);
        }
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(*store_.Count("conc", Query::MatchAll()), 50u);
}

// ---- shard parity -----------------------------------------------------------
// The sharded store is a pure performance refactor: for the same Bulk call
// sequence, every observable result (hits, docids, totals, aggregations,
// update-by-query effects) must be byte-identical across shard counts.

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

class ShardParityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardParityTest, IdenticalToUnshardedStore) {
  ElasticStore reference(1);
  ElasticStore sharded(GetParam());

  // Same Bulk call sequence into both, with varied batch sizes so documents
  // land in every sub-shard.
  int doc = 0;
  for (const int batch_size : {1, 7, 64, 3, 128, 5}) {
    std::vector<Json> docs;
    for (int i = 0; i < batch_size; ++i, ++doc) {
      Json d = Event(doc % 3 == 0 ? "read" : (doc % 3 == 1 ? "write" : "fsync"),
                     100 + doc % 5, 1000 + (doc * 37) % 991, doc % 17);
      d.Set("file_path", "/data/db/sstable-" + std::to_string(doc % 9));
      docs.push_back(d);
    }
    reference.Bulk("parity", docs);
    sharded.Bulk("parity", std::move(docs));
    if (batch_size == 64) {  // interleave a refresh mid-sequence
      reference.Refresh("parity");
      sharded.Refresh("parity");
    }
  }
  reference.Refresh("parity");
  sharded.Refresh("parity");

  const std::vector<SearchRequest> requests = [] {
    std::vector<SearchRequest> out;
    SearchRequest all;
    out.push_back(all);  // docid order, match_all
    SearchRequest term;
    term.query = Query::Term("syscall", "read");
    out.push_back(term);
    SearchRequest range;
    range.query = Query::Range("time_enter", 1100, 1700);
    range.sort = {{"time_enter", true}, {"tid", false}};
    out.push_back(range);
    SearchRequest boolean;
    boolean.query = Query::And(
        {Query::Or({Query::Term("syscall", "write"),
                    Query::Term("syscall", "fsync")}),
         Query::Not(Query::Term("tid", 102)),
         Query::Prefix("file_path", "/data/db/sstable-1")});
    out.push_back(boolean);
    SearchRequest paged;
    paged.sort = {{"ret", false}};
    paged.from = 10;
    paged.size = 25;
    out.push_back(paged);
    return out;
  }();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    auto ref = reference.Search("parity", requests[i]);
    auto got = sharded.Search("parity", requests[i]);
    ASSERT_TRUE(ref.ok() && got.ok()) << "request " << i;
    EXPECT_EQ(DumpResult(*got), DumpResult(*ref)) << "request " << i;
  }

  // Counts and aggregations.
  EXPECT_EQ(*sharded.Count("parity", Query::Term("syscall", "read")),
            *reference.Count("parity", Query::Term("syscall", "read")));
  const Aggregation agg =
      Aggregation::Terms("syscall").SubAgg("lat", Aggregation::Stats("ret"));
  auto ref_agg = reference.Aggregate("parity", Query::MatchAll(), agg);
  auto got_agg = sharded.Aggregate("parity", Query::MatchAll(), agg);
  ASSERT_TRUE(ref_agg.ok() && got_agg.ok());
  EXPECT_EQ(DumpAgg(*got_agg), DumpAgg(*ref_agg));

  // Update-by-query must touch the same documents in both stores.
  const auto set_flag = [](Json& d) {
    d.Set("correlated", true);
    return true;
  };
  auto ref_updated = reference.UpdateByQuery(
      "parity", Query::Term("syscall", "fsync"), set_flag);
  auto got_updated =
      sharded.UpdateByQuery("parity", Query::Term("syscall", "fsync"),
                            set_flag);
  ASSERT_TRUE(ref_updated.ok() && got_updated.ok());
  EXPECT_EQ(*got_updated, *ref_updated);
  SearchRequest updated;
  updated.query = Query::Term("correlated", true);
  auto ref_after = reference.Search("parity", updated);
  auto got_after = sharded.Search("parity", updated);
  ASSERT_TRUE(ref_after.ok() && got_after.ok());
  EXPECT_EQ(DumpResult(*got_after), DumpResult(*ref_after));
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardParityTest,
                         ::testing::Values(2, 3, 4, 8));

}  // namespace
}  // namespace dio::backend
