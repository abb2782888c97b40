// Parity tests for the columnar query engine and the parallel per-shard
// fan-out (backend.query_threads). The oracle is the test-side reference
// model (support/reference_store.h): a serial JSON engine that filters a
// vector of documents with Query::Matches. For the same Bulk call sequence,
// every observable result — hits, docids, totals, sort order, aggregation
// buckets and metrics, update-by-query effects — must be byte-identical
// across shard and thread counts.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "backend/store.h"
#include "common/random.h"
#include "support/reference_store.h"

namespace dio::backend {
namespace {

// ---- result dumping (same shape as store_test's shard-parity helpers) ------

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

// ---- randomized corpus ------------------------------------------------------
// Mixed-type documents exercising every column kind: ints, doubles, strings,
// bools, null members / arrays / objects (kOther), and absent fields
// (kMissing). Type-per-field is deliberately unstable — the same field can be
// an int in one document and a string in the next, like real half-migrated
// event schemas.

Json RandomDoc(Random& rng, int docnum) {
  static const char* kSyscalls[] = {"read",  "write", "openat", "close",
                                    "fsync", "lseek", "pread64"};
  static const char* kComms[] = {"rocksdb:low", "rocksdb:high", "fluent-bit",
                                 "postgres", "dio-tracer"};
  Json doc = Json::MakeObject();
  doc.Set("syscall", kSyscalls[rng.Uniform(7)]);
  doc.Set("tid", static_cast<std::int64_t>(100 + rng.Uniform(16)));
  doc.Set("time_enter", static_cast<std::int64_t>(1'000'000 + docnum * 17 +
                                                  rng.Uniform(13)));
  // ret is mostly a count, sometimes a negative errno.
  doc.Set("ret", rng.OneIn(8) ? -static_cast<std::int64_t>(1 + rng.Uniform(32))
                              : static_cast<std::int64_t>(rng.Uniform(65536)));
  if (!rng.OneIn(4)) {
    doc.Set("comm", kComms[rng.Uniform(5)]);
  }
  if (!rng.OneIn(3)) {
    doc.Set("file_path",
            "/data/db/" +
                std::string(rng.OneIn(2) ? "sstable-" : "wal-") +
                std::to_string(rng.Uniform(40)));
  }
  // duration flips between int and double representations of nanoseconds.
  if (rng.OneIn(3)) {
    doc.Set("duration_ns", rng.NextDouble() * 1e6);
  } else {
    doc.Set("duration_ns", static_cast<std::int64_t>(rng.Uniform(1'000'000)));
  }
  if (rng.OneIn(5)) doc.Set("cached", rng.OneIn(2));
  if (rng.OneIn(9)) doc.Set("extra", Json());  // null member: still "exists"
  if (rng.OneIn(11)) {
    Json arr = Json::MakeArray();
    arr.Append(static_cast<std::int64_t>(rng.Uniform(3)));
    doc.Set("fds", std::move(arr));  // non-scalar member (kOther)
  }
  // A field that is sometimes a string and sometimes a number.
  if (rng.OneIn(2)) {
    doc.Set("offset", static_cast<std::int64_t>(rng.Uniform(1 << 20)));
  } else if (rng.OneIn(2)) {
    doc.Set("offset", "unknown");
  }
  return doc;
}

void FillStores(std::uint64_t seed, ElasticStore& store,
                testing::ReferenceStore& model) {
  Random rng(seed);
  int docnum = 0;
  for (const int batch_size : {3, 41, 128, 1, 64, 17, 200}) {
    std::vector<Json> docs;
    for (int i = 0; i < batch_size; ++i, ++docnum) {
      docs.push_back(RandomDoc(rng, docnum));
    }
    store.Bulk("ev", docs);
    model.Bulk("ev", std::move(docs));
    if (batch_size == 128) {  // interleave a refresh mid-sequence
      store.Refresh("ev");
      model.Refresh("ev");
    }
  }
  store.Refresh("ev");
  model.Refresh("ev");
}

std::vector<SearchRequest> ParityRequests() {
  std::vector<SearchRequest> out;
  out.emplace_back();  // match_all, docid order
  SearchRequest term;
  term.query = Query::Term("syscall", "read");
  out.push_back(term);
  SearchRequest cross_type;  // field that is int in some docs, string in others
  cross_type.query = Query::Or({Query::Term("offset", "unknown"),
                                Query::Range("offset", 0, 1024)});
  cross_type.sort = {{"offset", true}};
  out.push_back(cross_type);
  SearchRequest ranged;
  ranged.query = Query::Range("time_enter", 1'000'500, 1'004'000);
  ranged.sort = {{"duration_ns", false}, {"tid", true}};
  ranged.from = 5;
  ranged.size = 40;
  out.push_back(ranged);
  SearchRequest boolean;
  boolean.query = Query::And(
      {Query::Or({Query::Term("syscall", "write"),
                  Query::Term("syscall", "fsync"),
                  Query::Terms("comm", {Json("postgres"), Json("fluent-bit")})}),
       Query::Not(Query::Term("cached", true)),
       Query::Exists("file_path")});
  boolean.sort = {{"time_enter", true}};
  out.push_back(boolean);
  SearchRequest prefix;
  prefix.query = Query::Prefix("file_path", "/data/db/wal-1");
  out.push_back(prefix);
  SearchRequest scan_only;  // negation over a cached exists bitmap
  scan_only.query = Query::Not(Query::Exists("comm"));
  scan_only.sort = {{"ret", false}};
  out.push_back(scan_only);
  SearchRequest null_member;  // null members exist and group as kOther
  null_member.query = Query::Exists("extra");
  out.push_back(null_member);
  SearchRequest empty_or;  // structural edge: an empty Or matches everything
  empty_or.query = Query::And({Query::Or({}), Query::Exists("tid")});
  out.push_back(empty_or);
  SearchRequest deep_page;
  deep_page.sort = {{"duration_ns", true}};
  deep_page.from = 300;
  deep_page.size = 100;
  out.push_back(deep_page);
  // Sort keys some matched documents lack: those documents sort last
  // either way.
  SearchRequest by_path;
  by_path.query =
      Query::Terms("syscall", {Json("read"), Json("openat"), Json("close")});
  by_path.sort = {{"file_path", true}};
  by_path.size = 60;
  out.push_back(by_path);
  SearchRequest by_comm;
  by_comm.query = Query::Not(Query::Term("syscall", "read"));
  by_comm.sort = {{"comm", false}, {"file_path", true}};
  by_comm.size = 60;
  out.push_back(by_comm);
  return out;
}

std::vector<Aggregation> ParityAggs() {
  std::vector<Aggregation> out;
  out.push_back(
      Aggregation::Terms("syscall").SubAgg("lat", Aggregation::Stats("duration_ns")));
  out.push_back(Aggregation::Terms("offset"));   // mixed int/string/missing keys
  out.push_back(Aggregation::Terms("extra"));    // null-member grouping (kOther)
  out.push_back(Aggregation::DateHistogram("time_enter", 500)
                    .SubAgg("p", Aggregation::Percentiles(
                                     "duration_ns", {50.0, 95.0, 99.0})));
  out.push_back(Aggregation::Histogram("ret", 1000));
  out.push_back(Aggregation::Terms("comm", 3).SubAgg(
      "by_path", Aggregation::Terms("file_path", 4)));
  out.push_back(Aggregation::Stats("ret"));
  out.push_back(Aggregation::Percentiles("ret", {1.0, 50.0, 99.9}));
  return out;
}

struct EngineConfig {
  std::size_t shards;
  std::size_t threads;
};

class ColumnarParityTest
    : public ::testing::TestWithParam<EngineConfig> {};

TEST_P(ColumnarParityTest, MatchesSerialJsonEngine) {
  for (const std::uint64_t seed : {7ULL, 1234ULL, 982451653ULL}) {
    testing::ReferenceStore oracle;

    ElasticStoreOptions columnar_opts;
    columnar_opts.shards_per_index = GetParam().shards;
    columnar_opts.query_threads = GetParam().threads;
    ElasticStore columnar(columnar_opts);

    FillStores(seed, columnar, oracle);

    const auto requests = ParityRequests();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      auto ref = oracle.Search("ev", requests[i]);
      auto got = columnar.Search("ev", requests[i]);
      ASSERT_TRUE(ref.ok() && got.ok()) << "seed " << seed << " request " << i;
      EXPECT_EQ(DumpResult(*got), DumpResult(*ref))
          << "seed " << seed << " request " << i;
      EXPECT_EQ(*columnar.Count("ev", requests[i].query),
                *oracle.Count("ev", requests[i].query))
          << "seed " << seed << " request " << i;
    }

    const auto aggs = ParityAggs();
    for (std::size_t i = 0; i < aggs.size(); ++i) {
      auto ref = oracle.Aggregate("ev", Query::MatchAll(), aggs[i]);
      auto got = columnar.Aggregate("ev", Query::MatchAll(), aggs[i]);
      ASSERT_TRUE(ref.ok() && got.ok()) << "seed " << seed << " agg " << i;
      EXPECT_EQ(DumpAgg(*got), DumpAgg(*ref)) << "seed " << seed << " agg " << i;
      // Filtered aggregation: exercises the matched-rows gather.
      const Query filter = Query::Range("ret", 0, 40'000);
      auto ref_f = oracle.Aggregate("ev", filter, aggs[i]);
      auto got_f = columnar.Aggregate("ev", filter, aggs[i]);
      ASSERT_TRUE(ref_f.ok() && got_f.ok());
      EXPECT_EQ(DumpAgg(*got_f), DumpAgg(*ref_f))
          << "seed " << seed << " filtered agg " << i;
    }

    // Update-by-query must modify the same documents, then requery cleanly
    // (touched slots are rewritten in place).
    const auto tag = [](Json& d) {
      if (d.Has("correlated")) return false;
      d.Set("correlated", true);
      return true;
    };
    auto ref_updated =
        oracle.UpdateByQuery("ev", Query::Term("syscall", "fsync"), tag);
    auto got_updated =
        columnar.UpdateByQuery("ev", Query::Term("syscall", "fsync"), tag);
    ASSERT_TRUE(ref_updated.ok() && got_updated.ok());
    EXPECT_EQ(*got_updated, *ref_updated) << "seed " << seed;
    SearchRequest updated;
    updated.query = Query::Term("correlated", true);
    auto ref_after = oracle.Search("ev", updated);
    auto got_after = columnar.Search("ev", updated);
    ASSERT_TRUE(ref_after.ok() && got_after.ok());
    EXPECT_EQ(DumpResult(*got_after), DumpResult(*ref_after)) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ColumnarParityTest,
    ::testing::Values(EngineConfig{1, 0}, EngineConfig{4, 0},
                      EngineConfig{3, 2}, EngineConfig{8, 4}),
    [](const ::testing::TestParamInfo<EngineConfig>& info) {
      return "shards" + std::to_string(info.param.shards) + "_threads" +
             std::to_string(info.param.threads);
    });

// ---- distributed partial aggregation ----------------------------------------
// AggregatePartial over a split corpus, merged in split order and finalized,
// must equal Aggregate over the full corpus — on the store and on the
// reference model, and the two must agree. The aggs keep stats fields
// integer-valued (exact partial sums); percentile merges are exact even over
// true doubles because they merge sorted values, not sums.

template <typename Store>
void CheckSplitPartials(Store& full, Store& first, Store& second,
                        std::vector<std::string>* dumps) {
  Random rng(982451653ULL);
  int docnum = 0;
  int batch_index = 0;
  for (const int batch_size : {3, 41, 128, 1, 64, 17, 200}) {
    std::vector<Json> docs;
    for (int i = 0; i < batch_size; ++i, ++docnum) {
      docs.push_back(RandomDoc(rng, docnum));
    }
    full.Bulk("ev", docs);
    (batch_index++ < 3 ? first : second).Bulk("ev", docs);
  }
  for (Store* store : {&full, &first, &second}) store->Refresh("ev");

  std::vector<Aggregation> aggs;
  aggs.push_back(Aggregation::Terms("syscall")
                     .SubAgg("lat", Aggregation::Stats("ret"))
                     .SubAgg("p", Aggregation::Percentiles("duration_ns",
                                                           {50, 95, 99})));
  aggs.push_back(Aggregation::DateHistogram("time_enter", 500)
                     .SubAgg("by_comm", Aggregation::Terms("comm", 3)));
  aggs.push_back(Aggregation::Terms("offset"));  // mixed int/string keys
  aggs.push_back(Aggregation::Terms("extra"));   // null members (kOther)
  aggs.push_back(Aggregation::Stats("ret"));
  aggs.push_back(Aggregation::Percentiles("duration_ns", {1.0, 50.0, 99.9}));

  std::vector<Query> queries;
  queries.push_back(Query::MatchAll());
  queries.push_back(Query::Range("ret", 0, 40'000));
  for (std::size_t q = 0; q < queries.size(); ++q) {
    for (std::size_t i = 0; i < aggs.size(); ++i) {
      auto ref = full.Aggregate("ev", queries[q], aggs[i]);
      auto part_a = first.AggregatePartial("ev", queries[q], aggs[i]);
      auto part_b = second.AggregatePartial("ev", queries[q], aggs[i]);
      auto part_full = full.AggregatePartial("ev", queries[q], aggs[i]);
      ASSERT_TRUE(ref.ok() && part_a.ok() && part_b.ok() && part_full.ok())
          << "query " << q << " agg " << i;
      AggPartial merged;
      aggs[i].MergePartial(merged, std::move(*part_a));
      aggs[i].MergePartial(merged, std::move(*part_b));
      EXPECT_EQ(DumpAgg(aggs[i].FinalizePartial(std::move(merged))),
                DumpAgg(*ref))
          << "query " << q << " agg " << i;
      // Degenerate split: one partial over the whole corpus.
      EXPECT_EQ(DumpAgg(aggs[i].FinalizePartial(std::move(*part_full))),
                DumpAgg(*ref))
          << "query " << q << " agg " << i;
      dumps->push_back(DumpAgg(*ref));
    }
  }
}

TEST(AggregatePartialStoreTest, SplitPartialsFinalizeToFullAggregate) {
  ElasticStoreOptions opts;
  opts.shards_per_index = 4;
  opts.query_threads = 0;
  ElasticStore full(opts);
  ElasticStore first(opts);
  ElasticStore second(opts);
  std::vector<std::string> got;
  CheckSplitPartials(full, first, second, &got);

  testing::ReferenceStore model_full;
  testing::ReferenceStore model_first;
  testing::ReferenceStore model_second;
  std::vector<std::string> expected;
  CheckSplitPartials(model_full, model_first, model_second, &expected);
  EXPECT_EQ(got, expected);
}

// ---- prefix queries over wide term dictionaries (sorted ranks) -------------

TEST(ColumnarPrefixTest, PrefixSkipsNonMatchingTerms) {
  // Thousands of terms that do NOT match the prefix, bracketing the ones
  // that do: the prefix must resolve to one contiguous range of the
  // dictionary's lexicographic ranks, and agree with the reference model.
  testing::ReferenceStore oracle;
  ElasticStore columnar;

  std::vector<Json> docs;
  for (int i = 0; i < 3000; ++i) {
    Json d = Json::MakeObject();
    // Keys sort as aaa-…, match-…, zzz-…: the match range sits mid-dictionary.
    const std::string path = i % 3 == 0
                                 ? "aaa-" + std::to_string(i)
                                 : (i % 3 == 1 ? "match-" + std::to_string(i)
                                               : "zzz-" + std::to_string(i));
    d.Set("file_path", path);
    d.Set("n", static_cast<std::int64_t>(i));
    docs.push_back(d);
  }
  columnar.Bulk("p", docs);
  oracle.Bulk("p", std::move(docs));
  oracle.Refresh("p");
  columnar.Refresh("p");

  for (const std::string& prefix :
       {std::string("match-"), std::string("match-1"), std::string("aaa-29"),
        std::string("zzz-"), std::string("nosuch"), std::string("")}) {
    SearchRequest request;
    request.query = Query::Prefix("file_path", prefix);
    request.size = 5000;
    auto ref = oracle.Search("p", request);
    auto got = columnar.Search("p", request);
    ASSERT_TRUE(ref.ok() && got.ok()) << "prefix '" << prefix << "'";
    EXPECT_EQ(DumpResult(*got), DumpResult(*ref)) << "prefix '" << prefix << "'";
    if (prefix == "nosuch") {
      EXPECT_EQ(ref->total, 0u);
    } else {
      EXPECT_GT(ref->total, 0u) << "prefix '" << prefix << "' matched nothing";
    }
  }
  EXPECT_EQ(*columnar.Count("p", Query::Prefix("file_path", "match-")), 1000u);
}

// ---- max_result_window (satellite: paging guard) ----------------------------

TEST(MaxResultWindowTest, FromJsonClampsFromPlusSize) {
  // Default window is 10'000, like ES.
  EXPECT_TRUE(SearchRequest::FromJsonText(R"({"from": 0, "size": 10000})").ok());
  EXPECT_TRUE(
      SearchRequest::FromJsonText(R"({"from": 9999, "size": 1})").ok());
  auto too_big = SearchRequest::FromJsonText(R"({"from": 1, "size": 10000})");
  EXPECT_FALSE(too_big.ok());
  EXPECT_FALSE(SearchRequest::FromJsonText(R"({"size": 10001})").ok());
  EXPECT_FALSE(SearchRequest::FromJsonText(R"({"from": 20000})").ok());
  // Explicit window overrides the default.
  EXPECT_TRUE(SearchRequest::FromJsonText(R"({"size": 10001})", 20'000).ok());
  EXPECT_FALSE(SearchRequest::FromJsonText(R"({"size": 50})", 30).ok());
  EXPECT_TRUE(SearchRequest::FromJsonText(R"({"from": 10, "size": 20})", 30).ok());
}

TEST(MaxResultWindowTest, SearchBodyHonorsStoreOption) {
  ElasticStoreOptions options;
  options.max_result_window = 100;
  ElasticStore store(options);
  std::vector<Json> docs;
  for (int i = 0; i < 150; ++i) {
    Json d = Json::MakeObject();
    d.Set("n", static_cast<std::int64_t>(i));
    docs.push_back(std::move(d));
  }
  store.Bulk("w", std::move(docs));
  store.Refresh("w");

  auto ok = store.Search("w", *Json::Parse(R"({"from": 40, "size": 60})"));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->hits.size(), 60u);
  auto rejected = store.Search("w", *Json::Parse(R"({"from": 40, "size": 61})"));
  EXPECT_FALSE(rejected.ok());
  // Programmatic SearchRequests are not clamped (internal callers page
  // through everything, e.g. the correlator).
  SearchRequest request;
  request.size = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(store.Search("w", request)->hits.size(), 150u);
}

// ---- config plumbing --------------------------------------------------------

TEST(StoreOptionsTest, FromConfigParsesBackendSection) {
  auto config = Config::ParseString(
      "[backend]\n"
      "shards_per_index = 6\n"
      "query_threads = 3\n"
      "max_result_window = 500\n");
  ASSERT_TRUE(config.ok());
  const ElasticStoreOptions options = ElasticStoreOptions::FromConfig(*config);
  EXPECT_EQ(options.shards_per_index, 6u);
  EXPECT_EQ(options.query_threads, 3u);
  EXPECT_EQ(options.max_result_window, 500u);
}

TEST(StoreOptionsTest, FromConfigDefaults) {
  auto config = Config::ParseString("");
  ASSERT_TRUE(config.ok());
  const ElasticStoreOptions options = ElasticStoreOptions::FromConfig(*config);
  EXPECT_EQ(options.shards_per_index, 4u);
  EXPECT_EQ(options.query_threads, 0u);
  EXPECT_EQ(options.max_result_window, 10'000u);
}

// ---- columnar stats counters ------------------------------------------------

TEST(ColumnarStatsTest, ReportsColumnBuildAndCacheTraffic) {
  ElasticStore store;
  std::vector<Json> docs;
  for (int i = 0; i < 64; ++i) {
    Json d = Json::MakeObject();
    d.Set("syscall", i % 2 == 0 ? "read" : "write");
    d.Set("ret", static_cast<std::int64_t>(i));
    docs.push_back(std::move(d));
  }
  store.Bulk("st", std::move(docs));
  store.Refresh("st");

  auto stats = store.Stats("st");
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->doc_value_fields, 0u);
  EXPECT_GT(stats->column_build_ns, 0u);
  EXPECT_EQ(stats->filter_cache_hits, 0u);

  // A predicate computes a bitmap per segment on the first run and reuses
  // it afterwards.
  const Query scan = Query::Not(Query::Term("syscall", "read"));
  ASSERT_TRUE(store.Count("st", scan).ok());
  auto after_first = store.Stats("st");
  EXPECT_GT(after_first->filter_cache_misses, 0u);
  ASSERT_TRUE(store.Count("st", scan).ok());
  ASSERT_TRUE(store.Count("st", scan).ok());
  auto after_repeat = store.Stats("st");
  EXPECT_GT(after_repeat->filter_cache_hits, 0u);
  EXPECT_EQ(after_repeat->filter_cache_misses, after_first->filter_cache_misses);

  // Any visibility change drops the cached bitmaps.
  Json extra = Json::MakeObject();
  extra.Set("syscall", "fsync");
  store.Bulk("st", {std::move(extra)});
  store.Refresh("st");
  ASSERT_TRUE(store.Count("st", scan).ok());
  auto after_refresh = store.Stats("st");
  EXPECT_GT(after_refresh->filter_cache_misses,
            after_repeat->filter_cache_misses);
}

}  // namespace
}  // namespace dio::backend
