// Replay driver: re-issues a recorded trace against the pipeline at virtual
// speed with N-way load amplification ("fanout").
//
// Two replay targets share the clone/remap machinery:
//
//   * INJECT mode (ReplayDriver + an EventSink such as StoreIngestSink) —
//     the remapped wire stream is pushed straight into an indexing sink.
//     This is the byte-exact path: the same trace + seed + fanout always
//     produces the same injected records, so backend digests are comparable
//     across runs, speeds, and fanout decompositions.
//   * SYSCALL mode (SyscallIssuer) — each wire record is re-issued as a real
//     syscall against an os::Kernel so the replayed load exercises the whole
//     oskernel + tracer stack (the sim and the dio-replay CLI use this).
//
// Clone remap contract (documented in DESIGN.md "Trace record/replay"):
// clone c shifts pids/tids by c * kClonePidStride and all timestamps by
// CloneTimeOffset(seed, c) — a pure function of (seed, clone), never of the
// fanout count. Clone 0 is the identity in time, so a fanout-1 replay is the
// recorded run itself, and a fanout-N replay is bit-for-bit the union of N
// independent fanout-1 replays launched with clone_base = 0..N-1.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "backend/store.h"
#include "common/clock.h"
#include "common/config.h"
#include "common/status.h"
#include "oskernel/kernel.h"
#include "trace/reader.h"
#include "tracer/sink.h"
#include "tracer/wire.h"

namespace dio::trace {

// Pid/tid shift between adjacent clones; comfortably above any pid the
// oskernel or a recorded host trace hands out.
inline constexpr std::int32_t kClonePidStride = 1'000'000;

struct ReplayOptions {
  // Virtual speedup: inter-event gaps are divided by `speed` before pacing
  // (1 = recorded cadence, 1000 = 1000x compressed). Pacing runs through
  // `clock`, so a ManualClock makes any speed instantaneous-but-accounted.
  double speed = 1.0;
  // Number of clones of the recorded workload replayed together.
  int fanout = 1;
  // Global index of the first clone; clone c of any run equals clone c of
  // any other run with the same trace + seed (the fanout-parity property).
  int clone_base = 0;
  // Seed for the per-clone time jitter. Same seed -> same schedule.
  std::uint64_t seed = 1;
  // Events per IndexWire call into the sink.
  std::size_t batch_size = 256;
  // false: single-threaded k-way merge of the clone streams in remapped
  // time order — the deterministic schedule the parity tests digest.
  // true: one thread per clone, each pacing independently — the throughput
  // configuration mb_replay measures (per-clone streams stay deterministic;
  // only the interleaving across clones is scheduler-dependent).
  bool threaded = false;
  // Tolerate a torn final record in the trace (see TraceReadOptions).
  bool allow_truncated_tail = false;
  // Session name stamped on injected batches.
  std::string session = "replay";
  // Pacing clock; nullptr = SteadyClock::Instance().
  Clock* clock = nullptr;

  // Parses the `replay.*` section of a config file (replay.speed,
  // replay.fanout, replay.clone_base, replay.seed, replay.batch_size,
  // replay.threaded, replay.allow_truncated_tail, replay.session).
  static Expected<ReplayOptions> FromConfig(const Config& config);

  Status Validate() const;
};

struct ReplayReport {
  std::uint64_t events_read = 0;      // events decoded from the trace
  std::uint64_t events_injected = 0;  // events delivered to the sink
  std::uint64_t batches = 0;
  int clones = 0;
  bool truncated_tail = false;
  // FNV-1a digest of the injected schedule: in merge mode the exact global
  // order (clone id folded in), in threaded mode the XOR of per-clone
  // stream digests (order across clones is not part of the contract there).
  std::uint64_t schedule_digest = 0;
  Nanos virtual_span = 0;  // remapped last time_enter - first, all clones
  Nanos wall_elapsed = 0;  // clock time the replay took
  double requested_speed = 1.0;
  // virtual_span / wall_elapsed: how much recorded time was replayed per
  // unit of wall time (the achieved-vs-requested number mb_replay reports).
  double achieved_speed = 0.0;
};

// Deterministic per-clone time shift: 0 for clone 0 (the recorded run
// itself), otherwise a seed-derived jitter in [stride, stride + 1ms) with
// stride = clone * 1ms, so clone streams are offset but interleave.
Nanos CloneTimeOffset(std::uint64_t seed, int clone);

// Applies the clone remap in place: pid/tid shifted by
// clone * kClonePidStride, time_enter/time_exit/tag_ts shifted by `offset`.
void RemapForClone(tracer::WireEvent* event, int clone, Nanos offset);

// Folds one wire record into an FNV-1a digest. Hashes field-by-field (never
// raw struct bytes — padding is unspecified), so equal records always hash
// equal.
std::uint64_t HashWireEvent(std::uint64_t digest,
                            const tracer::WireEvent& event);

class ReplayDriver {
 public:
  // `sink` receives the remapped stream; it must be thread-safe when
  // options.threaded is set.
  ReplayDriver(ReplayOptions options, tracer::EventSink* sink);

  // Decodes `trace_path` and replays it.
  Expected<ReplayReport> ReplayFile(const std::string& trace_path);

  // Replays an already-decoded event stream (the bench path: decode once,
  // replay many configurations).
  Expected<ReplayReport> Replay(const std::vector<tracer::WireEvent>& events);

 private:
  ReplayReport RunMerged(const std::vector<tracer::WireEvent>& events,
                         Clock* clock);
  ReplayReport RunThreaded(const std::vector<tracer::WireEvent>& events,
                           Clock* clock);

  ReplayOptions options_;
  tracer::EventSink* sink_;
};

// EventSink that lands wire batches in an ElasticStore index (the inject
// target for parity tests and mb_replay). Flush ends the stream: it
// refreshes the index and trims its tails (ElasticStore::TrimTails).
// Thread-safe to the extent the store is.
class StoreIngestSink final : public tracer::EventSink {
 public:
  StoreIngestSink(backend::ElasticStore* store, std::string index)
      : store_(store), index_(std::move(index)) {}

  void IndexBatch(std::vector<Json> documents) override;
  void IndexEvents(std::string_view session,
                   std::vector<tracer::Event> events) override;
  void IndexWire(std::string_view session,
                 std::vector<tracer::WireEvent> records) override;
  void Flush() override;

 private:
  backend::ElasticStore* store_;
  std::string index_;
};

// Canonical digest of an index's visible documents: every document is
// dumped to its canonical JSON text, the dumps are sorted, and the sorted
// byte stream is FNV-1a hashed. Two indices hold byte-identical document
// sets iff their digests match, independent of ingest order — the
// "byte-identical backend digest" the replay determinism contract promises.
Expected<std::uint64_t> BackendQueryDigest(const backend::ElasticStore& store,
                                           const std::string& index);

struct IssueStats {
  std::uint64_t issued = 0;        // syscalls re-executed
  std::uint64_t skipped = 0;       // unmappable fd / unsupported syscall
  std::uint64_t ret_matches = 0;   // replay ret agreed with recorded ret
  std::uint64_t ret_mismatches = 0;
};

// Re-issues wire records as syscalls. Replay-side fds are tracked per
// (pid, recorded fd) — an open's recorded return value keys later reads,
// writes and closes, exactly like service::TraceReplayer does for store
// documents. Single-threaded; use one issuer per clone.
class SyscallIssuer {
 public:
  // Rewrites recorded paths into the replay namespace (e.g. prefixing a
  // per-clone root). Identity when empty.
  using PathMapper = std::function<std::string(const std::string&)>;

  // With bind_tasks, each distinct traced pid gets its own kernel
  // process/thread and every issue runs under a ScopedTask for it; without,
  // syscalls run on whatever task the caller has bound (the sim does its
  // own task management). skip_namespace_ops drops mkdir/rmdir/rename/
  // unlink records (counted as skipped): under the deterministic sim every
  // inode must be allocated before tracing starts, so namespace mutations —
  // which would allocate or free inodes mid-run in schedule-dependent
  // order — are replayed only by the CLI's syscall mode, not the sim.
  SyscallIssuer(os::Kernel* kernel, PathMapper mapper = {},
                bool bind_tasks = true, bool skip_namespace_ops = false);

  // Executes one recorded event. kEnter-phase records carry no result and
  // are counted as skipped; kFull/kExit records are issued.
  void Issue(const tracer::WireEvent& event);

  [[nodiscard]] const IssueStats& stats() const { return stats_; }

 private:
  struct ReplayTask {
    os::Pid pid;
    os::Tid tid;
  };
  ReplayTask& TaskFor(std::int32_t traced_pid, const std::string& proc_name);

  os::Kernel* kernel_;
  PathMapper mapper_;
  bool bind_tasks_;
  bool skip_namespace_ops_;
  IssueStats stats_;
  std::map<std::int32_t, ReplayTask> tasks_;
  std::map<std::pair<std::int32_t, std::int32_t>, os::Fd> fd_map_;
};

// Predicts how many of `events` a SyscallIssuer would actually execute,
// assuming every replayed open succeeds (true whenever the replay target
// pre-creates the mapped files, as the sim does). Pure function of the
// stream — the sim uses it to fix its op-accounting invariant before any
// run happens.
std::uint64_t CountIssuableEvents(const std::vector<tracer::WireEvent>& events,
                                  bool skip_namespace_ops);

}  // namespace dio::trace
