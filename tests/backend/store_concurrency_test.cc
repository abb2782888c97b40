// Refresh-vs-search hammer for the columnar engine. A writer thread streams
// bulk batches and refreshes (and occasionally runs update-by-query) while
// reader threads issue searches, counts, and aggregations against a store
// with a query pool fanning sub-shards out in parallel. Every reader must
// observe a consistent refresh generation: results are internally coherent
// (hits sorted, totals match) and nothing crashes or races, and answers are
// checked byte for byte against the reference model
// (support/reference_store.h) fed the same stream. This file is also
// compiled into tsan_stress_test so the whole reader/writer interleaving
// runs under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "backend/store.h"
#include "support/reference_store.h"
#include "tracer/wire.h"

namespace dio::backend {
namespace {

Json Event(int docnum) {
  Json doc = Json::MakeObject();
  doc.Set("syscall", docnum % 3 == 0 ? "read" : (docnum % 3 == 1 ? "write"
                                                                 : "fsync"));
  doc.Set("tid", static_cast<std::int64_t>(100 + docnum % 5));
  doc.Set("time_enter", static_cast<std::int64_t>(1000 + docnum));
  doc.Set("ret", static_cast<std::int64_t>(docnum % 128));
  if (docnum % 4 != 0) {
    doc.Set("file_path", "/data/db/sstable-" + std::to_string(docnum % 7));
  }
  return doc;
}

bool FlagFsync(Json& doc) {
  if (doc.Has("flagged")) return false;
  doc.Set("flagged", true);
  return true;
}

// The readers' three queries, answered in one string.
std::string HammerAnswers(const QueryBackend& backend,
                          const std::string& index) {
  SearchRequest request;
  request.query = Query::And({Query::Term("syscall", "read"),
                              Query::Prefix("file_path", "/data/db/sstable-")});
  request.sort = {{"time_enter", false}};
  request.size = 50;
  auto result = backend.Search(index, request);
  auto scanned = backend.Count(index, Query::Not(Query::Exists("file_path")));
  auto agg = backend.Aggregate(
      index, Query::MatchAll(),
      Aggregation::Terms("syscall").SubAgg("lat", Aggregation::Stats("ret")));
  if (!result.ok() || !scanned.ok() || !agg.ok()) return "error";
  std::string out = std::to_string(result->total) + " " +
                    std::to_string(*scanned) + "\n";
  for (const Hit& hit : result->hits) {
    out += std::to_string(hit.id) + hit.source.Dump() + "\n";
  }
  for (const AggBucket& bucket : agg->buckets) {
    out += bucket.key.Dump() + "=" + std::to_string(bucket.doc_count) +
           bucket.sub.at("lat").metrics.Dump() + "\n";
  }
  return out;
}

TEST(StoreConcurrencyTest, RefreshVsSearchHammer) {
  ElasticStoreOptions options;
  options.shards_per_index = 4;
  options.query_threads = 2;
  ElasticStore store(options);

  constexpr int kBatches = 40;
  constexpr int kBatchSize = 25;
  constexpr std::size_t kTotalDocs = kBatches * kBatchSize;

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> visible{0};  // docs made searchable so far

  std::thread writer([&] {
    int docnum = 0;
    for (int b = 0; b < kBatches; ++b) {
      std::vector<Json> docs;
      for (int i = 0; i < kBatchSize; ++i) docs.push_back(Event(docnum++));
      store.Bulk("hammer", std::move(docs));
      store.Refresh("hammer");
      visible.store(static_cast<std::size_t>(docnum),
                    std::memory_order_release);
      if (b % 8 == 7) {
        // Update-by-query concurrently with readers: takes refresh_mu unique
        // and rewrites the touched rows' column slots.
        auto updated = store.UpdateByQuery(
            "hammer", Query::Term("syscall", "fsync"), FlagFsync);
        EXPECT_TRUE(updated.ok());
      }
    }
    stop.store(true);
  });

  const Aggregation agg =
      Aggregation::Terms("syscall").SubAgg("lat", Aggregation::Stats("ret"));
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      // Bounded and yielding: glibc rwlocks prefer readers, so readers that
      // re-acquire back-to-back can starve the writer's unique Refresh lock
      // on a single-core host. The yield opens a writer window each lap and
      // the cap bounds the test even if the stop flag is slow to arrive.
      constexpr std::uint64_t kMaxIterations = 20'000;
      std::uint64_t iterations = 0;
      while (!stop.load(std::memory_order_acquire) &&
             iterations < kMaxIterations) {
        ++iterations;
        std::this_thread::yield();
        if (!store.HasIndex("hammer")) continue;
        // The refresh lock pins one generation: a query never sees a
        // half-refreshed store, so counts are bounded by what the writer
        // published before we started (floor) and the final total (ceiling).
        const std::size_t floor = visible.load(std::memory_order_acquire);
        auto count = store.Count("hammer", Query::MatchAll());
        if (count.ok()) {
          EXPECT_GE(*count, floor);
          EXPECT_LE(*count, kTotalDocs);
        }
        switch ((iterations + static_cast<std::uint64_t>(r)) % 3) {
          case 0: {
            SearchRequest request;
            request.query = Query::And(
                {Query::Term("syscall", "read"),
                 Query::Prefix("file_path", "/data/db/sstable-")});
            request.sort = {{"time_enter", false}};
            request.size = 50;
            auto result = store.Search("hammer", request);
            if (result.ok()) {
              for (std::size_t i = 1; i < result->hits.size(); ++i) {
                EXPECT_GE(
                    result->hits[i - 1].source.GetInt("time_enter"),
                    result->hits[i].source.GetInt("time_enter"));
              }
            }
            break;
          }
          case 1: {
            // Scan-path predicate: exercises the filter-bitmap cache while
            // refreshes clear it.
            auto scanned =
                store.Count("hammer", Query::Not(Query::Exists("file_path")));
            if (scanned.ok()) {
              EXPECT_LE(*scanned, kTotalDocs);
            }
            break;
          }
          default: {
            auto result = store.Aggregate("hammer", Query::MatchAll(), agg);
            if (result.ok()) {
              std::size_t bucketed = 0;
              for (const AggBucket& bucket : result->buckets) {
                bucketed += bucket.doc_count;
              }
              EXPECT_LE(bucketed, kTotalDocs);
            }
            break;
          }
        }
      }
    });
  }

  writer.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(*store.Count("hammer", Query::MatchAll()), kTotalDocs);
  auto stats = store.Stats("hammer");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->doc_count, kTotalDocs);
  EXPECT_GT(stats->doc_value_fields, 0u);

  // The same stream, quiesced, into the reference model.
  testing::ReferenceStore model;
  int docnum = 0;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<Json> docs;
    for (int i = 0; i < kBatchSize; ++i) docs.push_back(Event(docnum++));
    model.Bulk("hammer", std::move(docs));
    model.Refresh("hammer");
    if (b % 8 == 7) {
      ASSERT_TRUE(
          model.UpdateByQuery("hammer", Query::Term("syscall", "fsync"),
                              FlagFsync)
              .ok());
    }
  }
  EXPECT_EQ(HammerAnswers(store, "hammer"), HammerAnswers(model, "hammer"));
}

// Off-lock staged-refresh hammer: typed wire ingest while readers run. The
// writer's Phase-1 column build happens with no lock held, and with
// segment_docs = 64 and five rows per shard per refresh every tail is
// extended across many refreshes: the build appends into the slot buffers
// the readers are scanning, regrows them as the tail passes each capacity
// level (8, 16, 32, 64), and adds a new path string every batch, so the
// shared string buffers grow and new rank tables are merged under the
// readers' feet. From batch kJsonFrom on, each refresh also brings two JSON
// rows with a double-valued "lat_ms", so a tail's first double (and the
// double array it allocates on demand) lands while readers sort and
// aggregate on that field. End-of-stream trims race all of it: a trimmer
// thread keeps calling TrimTails, and the writer itself trims after every
// seventh batch, so exact tail copies are built beside the readers and
// swapped in between refreshes, and the next refresh regrows a trimmed
// tail from its exact capacity.
// TSan must see no race between the build or the trim and readers walking
// the live segment list, and every answer a reader gets must be
// byte-identical to the same query against the reference model fed the
// stream up to the same refresh.
TEST(StoreConcurrencyTest, SegmentedOffLockBuildHammer) {
  ElasticStoreOptions options;
  options.shards_per_index = 4;
  options.query_threads = 2;
  options.segment_docs = 64;
  options.filter_cache_entries = 8;  // small: eviction runs concurrently too

  constexpr int kBatches = 50;
  constexpr int kBatchSize = 20;
  constexpr int kJsonFrom = 20;
  constexpr int kJsonPerBatch = 2;
  // Rows visible after batch b's refresh.
  constexpr auto rows_after = [](int b) {
    return static_cast<std::size_t>(
        (b + 1) * kBatchSize +
        (b >= kJsonFrom ? (b - kJsonFrom + 1) * kJsonPerBatch : 0));
  };
  constexpr std::size_t kTotalDocs = rows_after(kBatches - 1);

  auto wire = [](int docnum) {
    tracer::WireEvent e;
    const os::SyscallNr nr = docnum % 3 == 0
                                 ? os::SyscallNr::kRead
                                 : (docnum % 3 == 1 ? os::SyscallNr::kWrite
                                                    : os::SyscallNr::kFsync);
    e.nr = static_cast<std::uint8_t>(nr);
    e.phase = 2;
    e.pid = 99;
    e.tid = static_cast<std::int32_t>(100 + docnum % 5);
    e.time_enter = 1000 + docnum;
    e.time_exit = e.time_enter + 50 + docnum % 7;
    e.ret = docnum % 16 == 0 ? -5 : docnum % 128;
    if (docnum % 4 != 0) {
      // One new string per batch grows a dictionary on every refresh.
      const std::string path =
          docnum % 4 == 1
              ? "/data/db/wal-" + std::to_string(docnum / kBatchSize)
              : "/data/db/sstable-" + std::to_string(docnum % 7);
      e.path_len = tracer::WireEvent::FillString(e.path, tracer::kWirePathCap,
                                                 path, &e.path_trunc);
    }
    return e;
  };
  auto ingest = [&wire](auto& store, int b) {
    std::vector<tracer::WireEvent> batch;
    for (int i = 0; i < kBatchSize; ++i) {
      batch.push_back(wire(b * kBatchSize + i));
    }
    store.BulkWire("seg", "hammer", std::move(batch));
    if (b >= kJsonFrom) {
      std::vector<Json> docs;
      for (int i = 0; i < kJsonPerBatch; ++i) {
        Json doc = Event(b * kBatchSize + i);
        doc.Set("path", "/data/db/wal-" + std::to_string(b));
        doc.Set("lat_ms", 0.25 + b + 0.5 * i);
        docs.push_back(std::move(doc));
      }
      store.Bulk("seg", std::move(docs));
    }
    store.Refresh("seg");
  };
  auto flag_fsyncs = [](QueryBackend& store) {
    return store.UpdateByQuery("seg", Query::Term("syscall", "fsync"),
                               FlagFsync);
  };
  // Two self-keyed reads: each answer carries the number of documents its
  // snapshot held (MatchAll total / summed syscall buckets), and neither
  // depends on the update-by-query's "flagged" member, so a quiesced
  // replay pins the expected answer per refresh.
  auto sorted_window = [](const QueryBackend& store, std::size_t* docs) {
    SearchRequest request;
    request.sort = {{"path", false}, {"lat_ms", false}, {"time_enter", true}};
    request.size = 12;
    auto result = store.Search("seg", request);
    if (!result.ok()) return std::string("error");
    *docs = result->total;
    std::string out = std::to_string(result->total);
    for (const Hit& hit : result->hits) {
      out += " " + std::to_string(hit.id) + ":" +
             hit.source.GetString("path") + ":" +
             std::to_string(hit.source.GetInt("time_enter"));
    }
    return out;
  };
  auto path_terms = [](const QueryBackend& store, std::size_t* docs) {
    auto agg = store.Aggregate(
        "seg", Query::Prefix("syscall", ""),
        Aggregation::Terms("syscall")
            .SubAgg("paths", Aggregation::Terms("path", 0))
            .SubAgg("lat", Aggregation::Percentiles("lat_ms", {50.0, 99.0})));
    if (!agg.ok()) return std::string("error");
    std::size_t total = 0;
    std::string out;
    for (const AggBucket& bucket : agg->buckets) {
      total += static_cast<std::size_t>(bucket.doc_count);
      out += bucket.key.Dump() + "=" + std::to_string(bucket.doc_count) +
             bucket.sub.at("lat").metrics.Dump() + "[";
      for (const AggBucket& sub : bucket.sub.at("paths").buckets) {
        out += sub.key.Dump() + ":" + std::to_string(sub.doc_count) + ",";
      }
      out += "]";
    }
    *docs = total;
    return out;
  };

  // Quiesced replay: the same stream into the reference model, one refresh
  // at a time, recording each read's answer per visible document count.
  std::map<std::size_t, std::string> expected_window;
  std::map<std::size_t, std::string> expected_terms;
  {
    testing::ReferenceStore quiet;
    for (int b = 0; b < kBatches; ++b) {
      ingest(quiet, b);
      std::size_t docs = 0;
      const std::string window = sorted_window(quiet, &docs);
      expected_window[docs] = window;
      const std::string terms = path_terms(quiet, &docs);
      expected_terms[docs] = terms;
      if (b % 10 == 9) EXPECT_TRUE(flag_fsyncs(quiet).ok());
    }
  }

  ElasticStore store(options);
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> visible{0};
  // Rows copied by either thread's trims.
  std::atomic<std::size_t> trimmed{0};

  std::thread writer([&] {
    for (int b = 0; b < kBatches; ++b) {
      ingest(store, b);
      visible.store(rows_after(b), std::memory_order_release);
      if (b % 10 == 9) {
        // Rewrites rows inside sealed blocks while readers hold their
        // cached bitmaps; only the touched segments may drop caches.
        EXPECT_TRUE(flag_fsyncs(store).ok());
      }
      if (b % 7 == 3) trimmed.fetch_add(store.TrimTails("seg"));
    }
    stop.store(true);
  });
  std::thread trimmer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      trimmed.fetch_add(store.TrimTails("seg"));
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> readers;
  std::atomic<std::uint64_t> compared{0};
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      constexpr std::uint64_t kMaxIterations = 20'000;
      std::uint64_t iterations = 0;
      while (!stop.load(std::memory_order_acquire) &&
             iterations < kMaxIterations) {
        ++iterations;
        std::this_thread::yield();
        if (!store.HasIndex("seg")) continue;
        const std::size_t floor = visible.load(std::memory_order_acquire);
        auto count = store.Count("seg", Query::MatchAll());
        if (count.ok()) {
          EXPECT_GE(*count, floor);
          EXPECT_LE(*count, kTotalDocs);
        }
        switch ((iterations + static_cast<std::uint64_t>(r)) % 3) {
          case 0: {
            // Cached column predicate: hits sealed-segment bitmaps that
            // survive the concurrent refreshes.
            auto failed = store.Count(
                "seg",
                Query::Range("ret", std::numeric_limits<std::int64_t>::min(),
                             -1));
            if (failed.ok()) EXPECT_LE(*failed, kTotalDocs);
            break;
          }
          case 1: {
            std::size_t docs = 0;
            const std::string got = sorted_window(store, &docs);
            if (docs == 0) break;  // index created, nothing refreshed yet
            auto it = expected_window.find(docs);
            ASSERT_NE(it, expected_window.end()) << "docs " << docs;
            EXPECT_EQ(got, it->second) << "docs " << docs;
            compared.fetch_add(1, std::memory_order_relaxed);
            break;
          }
          default: {
            std::size_t docs = 0;
            const std::string got = path_terms(store, &docs);
            if (docs == 0) break;
            auto it = expected_terms.find(docs);
            ASSERT_NE(it, expected_terms.end()) << "docs " << docs;
            EXPECT_EQ(got, it->second) << "docs " << docs;
            compared.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
    });
  }

  writer.join();
  trimmer.join();
  for (std::thread& reader : readers) reader.join();

  EXPECT_GT(compared.load(), 0u);
  EXPECT_GT(trimmed.load(), 0u);
  EXPECT_EQ(*store.Count("seg", Query::MatchAll()), kTotalDocs);
  auto stats = store.Stats("seg");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->doc_count, kTotalDocs);
  // Update-by-query materializes the rows it rewrites (they stop being
  // typed), so typed_rows is the untouched remainder.
  EXPECT_GT(stats->typed_rows, 0u);
  EXPECT_LE(stats->typed_rows,
            static_cast<std::size_t>(kBatches * kBatchSize));
  EXPECT_GT(stats->sealed_segments, 0u);
  EXPECT_EQ(stats->refreshes, static_cast<std::uint64_t>(kBatches));
  // The tails regrew on the way to each seal.
  EXPECT_GT(stats->column_rows_written, kTotalDocs);
  // A last trim leaves exactly the rows, with the same answers.
  (void)store.TrimTails("seg");
  stats = store.Stats("seg");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->column_slots, kTotalDocs);
  std::size_t docs = 0;
  EXPECT_EQ(sorted_window(store, &docs), expected_window.at(kTotalDocs));
  EXPECT_EQ(path_terms(store, &docs), expected_terms.at(kTotalDocs));
}

}  // namespace
}  // namespace dio::backend
