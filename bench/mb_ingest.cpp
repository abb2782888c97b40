// Macro-benchmark: wire-record ingest to searchable, typed vs JSON route.
//
// The aggregate-mode tracer ships raw WireEvent records; the store ingests
// them straight into doc-value columns (BulkWire, the typed route). The
// JSON route this harness compares against materializes each record with
// tracer::WireEventToJson and ingests the documents through Bulk, the way
// the historical pipeline did. It replays the same deterministic synthetic
// wire stream through both routes in bulk batches, refreshes to
// searchable, and reports events/s for each route plus a cross-route query
// checksum (identical results are the typed route's correctness contract;
// the full byte-level proof lives in typed_ingest_parity_test). A third
// route restores the same documents from an NDJSON spool file with
// service::LoadSpool (one large JSON refresh; the file is written before
// the clock starts). Each route also reports the store's heap growth per
// event (mallinfo2: arena chunks in use plus mmapped chunks, from before
// the store is built to after the refresh and the end-of-stream
// ElasticStore::TrimTails, which runs after the clock stops) and its
// column bytes per event (IndexStats::column_bytes). Emits
// BENCH_mb_ingest.json.
#include <malloc.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "backend/store.h"
#include "bench/harness_util.h"
#include "common/clock.h"
#include "common/random.h"
#include "service/replay.h"
#include "tracer/event.h"
#include "tracer/wire.h"

using namespace dio;
using backend::Aggregation;
using backend::ElasticStore;
using backend::ElasticStoreOptions;
using backend::Query;
using backend::SearchRequest;

namespace {

constexpr std::size_t kDefaultEvents = 1'000'000;
constexpr std::size_t kBatch = 8192;
constexpr char kIndex[] = "events";
constexpr char kSession[] = "mb-ingest";

// One synthetic traced syscall, shaped like the aggregate-mode tracer's
// output: a handful of hot syscalls, per-thread comm strings, paths and
// file tags on most data events. Deterministic in `rng`, so both routes
// replay the identical stream.
tracer::WireEvent MakeEvent(Random& rng, std::size_t i) {
  static const os::SyscallNr kMix[] = {
      os::SyscallNr::kRead,  os::SyscallNr::kWrite, os::SyscallNr::kOpenat,
      os::SyscallNr::kClose, os::SyscallNr::kFsync, os::SyscallNr::kLseek};
  static const char* kComms[] = {"rocksdb:low", "rocksdb:high", "fluent-bit",
                                 "postgres", "dio-tracer"};
  tracer::WireEvent e;
  const os::SyscallNr nr = kMix[rng.Uniform(6)];
  const os::SyscallDescriptor& desc = os::Describe(nr);
  e.nr = static_cast<std::uint8_t>(nr);
  e.phase = 2;  // completed pair, what the aggregate path emits
  e.pid = 4242;
  e.tid = static_cast<std::int32_t>(100 + rng.Uniform(64));
  e.cpu = static_cast<std::int32_t>(rng.Uniform(8));
  e.comm_len = tracer::WireEvent::FillString(
      e.comm, tracer::kWireCommCap, kComms[rng.Uniform(5)], &e.comm_trunc);
  e.proc_name_len = tracer::WireEvent::FillString(
      e.proc_name, tracer::kWireCommCap, "db_bench", &e.proc_name_trunc);
  e.time_enter = static_cast<std::int64_t>(i * 13 + rng.Uniform(11));
  e.time_exit = e.time_enter + static_cast<std::int64_t>(rng.Uniform(5'000'000));
  e.ret = rng.OneIn(16) ? -static_cast<std::int64_t>(1 + rng.Uniform(32))
                        : static_cast<std::int64_t>(rng.Uniform(1 << 16));
  if (desc.takes_fd) e.fd = static_cast<std::int32_t>(3 + rng.Uniform(61));
  if (desc.data_related) {
    e.count = rng.Uniform(1 << 16);
    e.file_offset = static_cast<std::int64_t>(rng.Uniform(1 << 24));
  }
  if (!rng.OneIn(5)) {
    const std::string path =
        "/data/db/sstable-" + std::to_string(rng.Uniform(64));
    e.path_len = tracer::WireEvent::FillString(e.path, tracer::kWirePathCap,
                                               path, &e.path_trunc);
    e.tag_valid = 1;
    e.tag_dev = 259;
    e.tag_ino = 1000 + rng.Uniform(64);
    e.tag_ts = static_cast<std::int64_t>(rng.Uniform(1 << 20));
  }
  if (nr == os::SyscallNr::kLseek) {
    e.whence = static_cast<std::int32_t>(rng.Uniform(3));
    e.arg_offset = static_cast<std::int64_t>(rng.Uniform(1 << 20));
  }
  if (nr == os::SyscallNr::kOpenat) {
    e.flags = 0x241;  // O_WRONLY|O_CREAT|O_TRUNC
    e.mode = 0644;
  }
  return e;
}

std::uint64_t HeapBytes() {
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

double MsSince(Nanos start) {
  return static_cast<double>(SteadyClock::Instance()->NowNanos() - start) /
         1e6;
}

// Analyst sanity mix over the ingested index; the summed totals must be
// identical across routes.
std::uint64_t QueryChecksum(const ElasticStore& store, std::size_t events,
                            double* query_ms) {
  const Nanos t0 = SteadyClock::Instance()->NowNanos();
  std::uint64_t checksum = 0;
  auto failed = store.Count(
      kIndex, Query::Range("ret", std::numeric_limits<std::int64_t>::min(),
                           -1));
  checksum += failed.ok() ? *failed : 0;
  auto terms = store.Aggregate(
      kIndex, Query::MatchAll(),
      Aggregation::Terms("comm").SubAgg("lat",
                                        Aggregation::Stats("duration_ns")));
  if (terms.ok()) {
    for (const backend::AggBucket& bucket : terms->buckets) {
      checksum += static_cast<std::uint64_t>(bucket.doc_count) * 31;
    }
  }
  auto hist = store.Aggregate(
      kIndex, Query::Term("syscall", "write"),
      Aggregation::DateHistogram("time_enter",
                                 static_cast<std::int64_t>(events) * 13 / 20 +
                                     1));
  checksum += hist.ok() ? hist->buckets.size() : 0;
  SearchRequest recent;
  recent.query = Query::Range("time_enter",
                              static_cast<std::int64_t>(events),
                              static_cast<std::int64_t>(events) * 13);
  recent.sort = {{"duration_ns", false}, {"time_enter", true}};
  recent.size = 100;
  auto search = store.Search(kIndex, recent);
  checksum += search.ok() ? search->total : 0;
  if (search.ok()) {
    for (const backend::Hit& hit : search->hits) {
      checksum += hit.source.Dump().size();
    }
  }
  *query_ms = MsSince(t0);
  return checksum;
}

struct RouteRun {
  std::string route;  // "json" | "typed" | "spool"
  double ingest_ms = 0.0;       // bulk batches (or LoadSpool) + Refresh
  double column_build_ms = 0.0;
  double query_ms = 0.0;
  double events_per_sec = 0.0;
  // Exclusive refresh-window hold time distribution (the reader-visible
  // pause per refresh) and the filter-bitmap cache economy over the query
  // mix — both straight from IndexStats.
  double refresh_pause_ms_p50 = 0.0;
  double refresh_pause_ms_p99 = 0.0;
  double filter_cache_hit_rate = 0.0;
  std::size_t typed_rows = 0;
  double heap_bytes_per_event = 0.0;
  double column_bytes_per_event = 0.0;
  std::uint64_t checksum = 0;
};

// The stream as an NDJSON spool, one WireEventToJson document per line.
std::string WriteSpool(std::size_t events) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("mb_ingest_" + std::to_string(::getpid()) + ".ndjson"))
          .string();
  std::ofstream out(path, std::ios::trunc);
  Random rng(42);
  for (std::size_t i = 0; i < events; ++i) {
    out << tracer::WireEventToJson(MakeEvent(rng, i), kSession).Dump() << "\n";
  }
  return path;
}

RouteRun RunRoute(const std::string& route, std::size_t events) {
  const std::string spool = route == "spool" ? WriteSpool(events) : "";
  const std::uint64_t heap_before = HeapBytes();
  ElasticStoreOptions options;
  options.shards_per_index = 4;
  ElasticStore store(options);

  RouteRun run;
  run.route = route;

  // One bulk request per batch: typed records as they are, or each record
  // materialized to its JSON document first.
  const auto ship = [&store, &route](std::vector<tracer::WireEvent> batch) {
    if (route == "typed") {
      store.BulkWire(kIndex, kSession, std::move(batch));
      return;
    }
    std::vector<Json> documents;
    documents.reserve(batch.size());
    for (const tracer::WireEvent& record : batch) {
      documents.push_back(tracer::WireEventToJson(record, kSession));
    }
    store.Bulk(kIndex, std::move(documents));
  };

  const Nanos start = SteadyClock::Instance()->NowNanos();
  if (route == "spool") {
    auto loaded = service::LoadSpool(&store, spool, kIndex);
    std::filesystem::remove(spool);
    if (!loaded.ok() || *loaded != events) {
      std::printf("spool restore failed: %s\n",
                  loaded.ok() ? "short load" : loaded.status().message().c_str());
      std::exit(1);
    }
  } else {
    Random rng(42);
    std::vector<tracer::WireEvent> batch;
    batch.reserve(kBatch);
    for (std::size_t i = 0; i < events; ++i) {
      batch.push_back(MakeEvent(rng, i));
      if (batch.size() == kBatch) {
        ship(std::move(batch));
        batch.clear();
        batch.reserve(kBatch);
      }
    }
    if (!batch.empty()) ship(std::move(batch));
    store.Refresh(kIndex);
  }
  run.ingest_ms = MsSince(start);
  // The stream has ended: the store keeps exactly its rows, as after a
  // BulkClient::Flush.
  store.TrimTails(kIndex);
  // Before the query mix, whose filter bitmaps are not ingest cost.
  run.heap_bytes_per_event =
      (static_cast<double>(HeapBytes()) - static_cast<double>(heap_before)) /
      static_cast<double>(events);
  run.events_per_sec =
      run.ingest_ms > 0 ? static_cast<double>(events) / (run.ingest_ms / 1e3)
                        : 0.0;

  run.checksum = QueryChecksum(store, events, &run.query_ms);
  // Stats read after the query mix so the filter-cache counters cover it.
  if (auto stats = store.Stats(kIndex); stats.ok()) {
    run.column_build_ms = static_cast<double>(stats->column_build_ns) / 1e6;
    run.typed_rows = stats->typed_rows;
    run.column_bytes_per_event = static_cast<double>(stats->column_bytes) /
                                 static_cast<double>(events);
    run.refresh_pause_ms_p50 = bench::PercentileMs(stats->refresh_pause_ns, 50);
    run.refresh_pause_ms_p99 = bench::PercentileMs(stats->refresh_pause_ns, 99);
    const double lookups = static_cast<double>(stats->filter_cache_hits +
                                               stats->filter_cache_misses);
    run.filter_cache_hit_rate =
        lookups > 0 ? static_cast<double>(stats->filter_cache_hits) / lookups
                    : 0.0;
  }
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t events = kDefaultEvents;
  if (argc > 1) events = static_cast<std::size_t>(std::atoll(argv[1]));

  std::printf("MACRO-BENCH: wire ingest to searchable — JSON route vs typed "
              "wire->column route (%zu events, %zu-event bulks)\n\n",
              events, kBatch);

  bench::BenchReport report("mb_ingest");
  report.SetConfig("events", Json(static_cast<std::int64_t>(events)));
  report.SetConfig("bulk_size", Json(static_cast<std::int64_t>(kBatch)));
  report.SetConfig("shards_per_index", Json(static_cast<std::int64_t>(4)));

  std::printf(
      "%-8s %-12s %-14s %-12s %-12s %-10s %-10s %-10s %-12s %-10s %-10s\n",
      "route", "ingest_ms", "events_per_s", "colbuild_ms", "query_ms",
      "pause_p50", "pause_p99", "cache_hit", "typed_rows", "heap_B/ev",
      "col_B/ev");

  std::vector<RouteRun> runs;
  for (const char* route : {"json", "typed", "spool"}) {
    runs.push_back(RunRoute(route, events));
    const RouteRun& run = runs.back();
    std::printf(
        "%-8s %-12.1f %-14.0f %-12.1f %-12.1f %-10.2f %-10.2f %-10.2f %-12zu "
        "%-10.1f %-10.1f\n",
        run.route.c_str(), run.ingest_ms, run.events_per_sec,
        run.column_build_ms, run.query_ms, run.refresh_pause_ms_p50,
        run.refresh_pause_ms_p99, run.filter_cache_hit_rate, run.typed_rows,
        run.heap_bytes_per_event, run.column_bytes_per_event);
  }

  const RouteRun& json = runs[0];
  const RouteRun& typed = runs[1];
  const RouteRun& spool = runs[2];
  const double speedup =
      typed.ingest_ms > 0 ? json.ingest_ms / typed.ingest_ms : 0.0;
  const bool checksums_agree =
      json.checksum == typed.checksum && json.checksum == spool.checksum;

  for (const RouteRun& run : runs) {
    Json row = Json::MakeObject();
    row.Set("route", run.route);
    row.Set("ingest_ms", run.ingest_ms);
    row.Set("events_per_sec", run.events_per_sec);
    row.Set("column_build_ms", run.column_build_ms);
    row.Set("query_ms", run.query_ms);
    row.Set("refresh_pause_ms_p50", run.refresh_pause_ms_p50);
    row.Set("refresh_pause_ms_p99", run.refresh_pause_ms_p99);
    row.Set("filter_cache_hit_rate", run.filter_cache_hit_rate);
    row.Set("typed_rows", static_cast<std::int64_t>(run.typed_rows));
    row.Set("heap_bytes_per_event", run.heap_bytes_per_event);
    row.Set("column_bytes_per_event", run.column_bytes_per_event);
    row.Set("speedup_vs_json",
            run.ingest_ms > 0 ? json.ingest_ms / run.ingest_ms : 0.0);
    row.Set("checksum", static_cast<std::int64_t>(run.checksum));
    report.AddRow(std::move(row));
  }
  report.Write();

  std::printf("\ntyped ingest speedup over JSON route: %.2fx "
              "(%.0f vs %.0f events/s)\n",
              speedup, typed.events_per_sec, json.events_per_sec);
  std::printf("query checksums: %s\n",
              checksums_agree ? "identical across routes" : "MISMATCH");
  if (!checksums_agree) return 1;
  if (typed.typed_rows != events) {
    std::printf("typed route indexed %zu typed rows, expected %zu\n",
                typed.typed_rows, events);
    return 1;
  }
  return 0;
}
