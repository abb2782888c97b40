#include "trace/replay.h"

#include <algorithm>
#include <limits>
#include <set>
#include <thread>

#include "common/random.h"

namespace dio::trace {

namespace {

// Pacing granularity: inter-event gaps accumulate until the scaled sleep is
// worth taking, so a microsecond-cadence trace does not turn into thousands
// of sub-scheduler-quantum nanosleeps. ManualClock accounting is unaffected
// (the remainder is slept at stream end, so total slept == span / speed).
constexpr Nanos kPacingQuantum = kMillisecond;

constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t FnvMix(std::uint64_t digest, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest = (digest ^ (value & 0xFF)) * kFnvPrime;
    value >>= 8;
  }
  return digest;
}

std::uint64_t FnvMixBytes(std::uint64_t digest, const char* data,
                          std::size_t size) {
  digest = FnvMix(digest, size);
  for (std::size_t i = 0; i < size; ++i) {
    digest = (digest ^ static_cast<std::uint8_t>(data[i])) * kFnvPrime;
  }
  return digest;
}

// Per-clone stream pacer: scales recorded virtual time by 1/speed and
// sleeps toward the absolute wall deadline `start + virtual_elapsed/speed`.
// Deadline (not delta) pacing matters on a real clock: nanosleep overshoots
// by scheduler latency, and summing per-gap sleeps would compound that
// overshoot into wall time — sleeping to the deadline self-corrects, so a
// replay that is already behind schedule never sleeps at all. Sleeps under
// kPacingQuantum are deferred (a microsecond-cadence trace must not become
// thousands of sub-quantum nanosleeps); Drain settles the stream end
// exactly, so on a ManualClock total accounted time == span / speed.
class Pacer {
 public:
  Pacer(Clock* clock, double speed)
      : clock_(clock), speed_(speed), start_(clock->NowNanos()) {}

  void Advance(Nanos virtual_delta) {
    if (virtual_delta > 0) virtual_elapsed_ += virtual_delta;
    const Nanos behind = Deadline() - clock_->NowNanos();
    if (behind >= kPacingQuantum) clock_->SleepFor(behind);
  }

  void Drain() {
    const Nanos behind = Deadline() - clock_->NowNanos();
    if (behind > 0) clock_->SleepFor(behind);
  }

 private:
  [[nodiscard]] Nanos Deadline() const {
    return start_ + static_cast<Nanos>(
                        static_cast<double>(virtual_elapsed_) / speed_);
  }

  Clock* clock_;
  double speed_;
  Nanos start_;
  Nanos virtual_elapsed_ = 0;
};

}  // namespace

Nanos CloneTimeOffset(std::uint64_t seed, int clone) {
  if (clone == 0) return 0;
  Random rng(seed ^ (0x9E3779B97F4A7C15ull *
                     static_cast<std::uint64_t>(clone)));
  return static_cast<Nanos>(clone) * kMillisecond +
         static_cast<Nanos>(rng.Uniform(kMillisecond));
}

void RemapForClone(tracer::WireEvent* event, int clone, Nanos offset) {
  event->pid += clone * kClonePidStride;
  event->tid += clone * kClonePidStride;
  event->time_enter += offset;
  event->time_exit += offset;
  if (event->tag_valid != 0) event->tag_ts += offset;
}

std::uint64_t HashWireEvent(std::uint64_t digest,
                            const tracer::WireEvent& event) {
  digest = FnvMix(digest, event.nr);
  digest = FnvMix(digest, event.phase);
  digest = FnvMix(digest, static_cast<std::uint64_t>(event.pid));
  digest = FnvMix(digest, static_cast<std::uint64_t>(event.tid));
  digest = FnvMix(digest, static_cast<std::uint64_t>(event.cpu));
  digest = FnvMix(digest, static_cast<std::uint64_t>(event.time_enter));
  digest = FnvMix(digest, static_cast<std::uint64_t>(event.time_exit));
  digest = FnvMix(digest, static_cast<std::uint64_t>(event.ret));
  digest = FnvMix(digest, event.count);
  digest = FnvMix(digest, static_cast<std::uint64_t>(event.arg_offset));
  digest = FnvMix(digest, static_cast<std::uint64_t>(event.file_offset));
  digest = FnvMix(digest, static_cast<std::uint64_t>(event.fd));
  digest = FnvMix(digest, static_cast<std::uint64_t>(event.whence));
  digest = FnvMix(digest, event.flags);
  digest = FnvMix(digest, event.mode);
  digest = FnvMix(digest, event.file_type);
  digest = FnvMix(digest, event.tag_valid);
  if (event.tag_valid != 0) {
    digest = FnvMix(digest, event.tag_dev);
    digest = FnvMix(digest, event.tag_ino);
    digest = FnvMix(digest, static_cast<std::uint64_t>(event.tag_ts));
  }
  digest = FnvMixBytes(digest, event.comm, event.comm_len);
  digest = FnvMixBytes(digest, event.proc_name, event.proc_name_len);
  digest = FnvMixBytes(digest, event.path, event.path_len);
  digest = FnvMixBytes(digest, event.path2, event.path2_len);
  digest = FnvMixBytes(digest, event.xattr_name, event.xattr_len);
  return digest;
}

Expected<ReplayOptions> ReplayOptions::FromConfig(const Config& config) {
  (void)WarnUnknownKeys(config, "replay",
                        {"speed", "fanout", "clone_base", "seed",
                         "batch_size", "threaded", "allow_truncated_tail",
                         "session"});
  ReplayOptions options;
  options.speed = config.GetDouble("replay.speed", options.speed);
  options.fanout = static_cast<int>(
      config.GetInt("replay.fanout", options.fanout));
  options.clone_base = static_cast<int>(
      config.GetInt("replay.clone_base", options.clone_base));
  options.seed = static_cast<std::uint64_t>(
      config.GetInt("replay.seed", static_cast<std::int64_t>(options.seed)));
  options.batch_size = static_cast<std::size_t>(config.GetInt(
      "replay.batch_size", static_cast<std::int64_t>(options.batch_size)));
  options.threaded = config.GetBool("replay.threaded", options.threaded);
  options.allow_truncated_tail = config.GetBool(
      "replay.allow_truncated_tail", options.allow_truncated_tail);
  options.session = config.GetString("replay.session", options.session);
  DIO_RETURN_IF_ERROR(options.Validate());
  return options;
}

Status ReplayOptions::Validate() const {
  if (speed <= 0.0) return InvalidArgument("replay.speed must be > 0");
  if (fanout < 1) return InvalidArgument("replay.fanout must be >= 1");
  if (clone_base < 0) {
    return InvalidArgument("replay.clone_base must be >= 0");
  }
  if (batch_size < 1) {
    return InvalidArgument("replay.batch_size must be >= 1");
  }
  return Status::Ok();
}

ReplayDriver::ReplayDriver(ReplayOptions options, tracer::EventSink* sink)
    : options_(std::move(options)), sink_(sink) {}

Expected<ReplayReport> ReplayDriver::ReplayFile(
    const std::string& trace_path) {
  TraceReadOptions read_options;
  read_options.allow_truncated_tail = options_.allow_truncated_tail;
  TraceReadStats read_stats;
  auto events = ReadTraceFile(trace_path, read_options, &read_stats);
  if (!events.ok()) return events.status();
  auto report = Replay(*events);
  if (report.ok()) report->truncated_tail = read_stats.truncated_tail();
  return report;
}

Expected<ReplayReport> ReplayDriver::Replay(
    const std::vector<tracer::WireEvent>& events) {
  DIO_RETURN_IF_ERROR(options_.Validate());
  Clock* clock =
      options_.clock != nullptr ? options_.clock : SteadyClock::Instance();
  ReplayReport report = options_.threaded ? RunThreaded(events, clock)
                                          : RunMerged(events, clock);
  report.events_read = events.size();
  report.clones = options_.fanout;
  report.requested_speed = options_.speed;
  if (report.wall_elapsed > 0) {
    report.achieved_speed = static_cast<double>(report.virtual_span) /
                            static_cast<double>(report.wall_elapsed);
  }
  return report;
}

ReplayReport ReplayDriver::RunMerged(
    const std::vector<tracer::WireEvent>& events, Clock* clock) {
  ReplayReport report;
  report.schedule_digest = kFnvBasis;
  if (events.empty()) return report;

  const int fanout = options_.fanout;
  std::vector<Nanos> offsets(static_cast<std::size_t>(fanout));
  std::vector<std::size_t> next(static_cast<std::size_t>(fanout), 0);
  for (int i = 0; i < fanout; ++i) {
    offsets[static_cast<std::size_t>(i)] =
        CloneTimeOffset(options_.seed, options_.clone_base + i);
  }

  const Nanos wall_start = clock->NowNanos();
  Pacer pacer(clock, options_.speed);
  std::vector<tracer::WireEvent> batch;
  batch.reserve(options_.batch_size);
  const auto flush_batch = [&] {
    if (batch.empty()) return;
    sink_->IndexWire(options_.session, std::move(batch));
    batch = {};
    batch.reserve(options_.batch_size);
    ++report.batches;
  };

  Nanos first_enter = 0;
  Nanos prev_enter = 0;
  bool any = false;
  for (;;) {
    // Smallest remapped time_enter wins; ties break toward the lower clone
    // index, so the merged order is a pure function of (trace, seed).
    int best = -1;
    Nanos best_enter = 0;
    for (int i = 0; i < fanout; ++i) {
      const std::size_t at = next[static_cast<std::size_t>(i)];
      if (at >= events.size()) continue;
      const Nanos enter = events[at].time_enter +
                          offsets[static_cast<std::size_t>(i)];
      if (best < 0 || enter < best_enter) {
        best = i;
        best_enter = enter;
      }
    }
    if (best < 0) break;

    tracer::WireEvent e = events[next[static_cast<std::size_t>(best)]++];
    RemapForClone(&e, options_.clone_base + best,
                  offsets[static_cast<std::size_t>(best)]);
    if (!any) {
      first_enter = e.time_enter;
      any = true;
    } else {
      pacer.Advance(e.time_enter - prev_enter);
    }
    prev_enter = e.time_enter;
    report.schedule_digest = HashWireEvent(report.schedule_digest, e);
    batch.push_back(e);
    ++report.events_injected;
    if (batch.size() >= options_.batch_size) flush_batch();
  }
  pacer.Drain();
  flush_batch();
  sink_->Flush();
  report.virtual_span = any ? prev_enter - first_enter : 0;
  report.wall_elapsed = std::max<Nanos>(clock->NowNanos() - wall_start, 1);
  return report;
}

ReplayReport ReplayDriver::RunThreaded(
    const std::vector<tracer::WireEvent>& events, Clock* clock) {
  ReplayReport report;
  report.schedule_digest = 0;
  if (events.empty()) {
    report.schedule_digest = kFnvBasis;
    return report;
  }

  const int fanout = options_.fanout;
  struct CloneResult {
    std::uint64_t digest = kFnvBasis;
    std::uint64_t injected = 0;
    std::uint64_t batches = 0;
    Nanos first_enter = 0;
    Nanos last_enter = 0;
  };
  std::vector<CloneResult> results(static_cast<std::size_t>(fanout));

  const Nanos wall_start = clock->NowNanos();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(fanout));
  for (int i = 0; i < fanout; ++i) {
    threads.emplace_back([&, i] {
      CloneResult& result = results[static_cast<std::size_t>(i)];
      const int clone = options_.clone_base + i;
      const Nanos offset = CloneTimeOffset(options_.seed, clone);
      Pacer pacer(clock, options_.speed);
      std::vector<tracer::WireEvent> batch;
      batch.reserve(options_.batch_size);
      Nanos prev_enter = 0;
      for (std::size_t at = 0; at < events.size(); ++at) {
        tracer::WireEvent e = events[at];
        RemapForClone(&e, clone, offset);
        if (at == 0) {
          result.first_enter = e.time_enter;
        } else {
          pacer.Advance(e.time_enter - prev_enter);
        }
        prev_enter = e.time_enter;
        result.digest = HashWireEvent(result.digest, e);
        batch.push_back(e);
        ++result.injected;
        if (batch.size() >= options_.batch_size) {
          sink_->IndexWire(options_.session, std::move(batch));
          batch = {};
          batch.reserve(options_.batch_size);
          ++result.batches;
        }
      }
      pacer.Drain();
      if (!batch.empty()) {
        sink_->IndexWire(options_.session, std::move(batch));
        ++result.batches;
      }
      result.last_enter = prev_enter;
    });
  }
  for (std::thread& t : threads) t.join();
  sink_->Flush();

  Nanos min_first = results[0].first_enter;
  Nanos max_last = results[0].last_enter;
  for (const CloneResult& result : results) {
    // XOR combine: per-clone stream digests are deterministic; the combined
    // value is independent of which clone's batches landed first.
    report.schedule_digest ^= result.digest;
    report.events_injected += result.injected;
    report.batches += result.batches;
    min_first = std::min(min_first, result.first_enter);
    max_last = std::max(max_last, result.last_enter);
  }
  report.virtual_span = max_last - min_first;
  report.wall_elapsed = std::max<Nanos>(clock->NowNanos() - wall_start, 1);
  return report;
}

// ---- StoreIngestSink ----------------------------------------------------

void StoreIngestSink::IndexBatch(std::vector<Json> documents) {
  store_->Bulk(index_, std::move(documents));
}

void StoreIngestSink::IndexEvents(std::string_view session,
                                  std::vector<tracer::Event> events) {
  std::vector<Json> documents;
  documents.reserve(events.size());
  for (const tracer::Event& event : events) {
    documents.push_back(event.ToJson(session));
  }
  store_->Bulk(index_, std::move(documents));
}

void StoreIngestSink::IndexWire(std::string_view session,
                                std::vector<tracer::WireEvent> records) {
  store_->BulkWire(index_, session, std::move(records));
}

void StoreIngestSink::Flush() {
  store_->Refresh(index_);
  store_->TrimTails(index_);
}

Expected<std::uint64_t> BackendQueryDigest(const backend::ElasticStore& store,
                                           const std::string& index) {
  backend::SearchRequest request;
  request.query = backend::Query::MatchAll();
  request.size = std::numeric_limits<std::size_t>::max();
  auto result = store.Search(index, request);
  if (!result.ok()) return result.status();
  std::vector<std::string> dumps;
  dumps.reserve(result->hits.size());
  for (const backend::Hit& hit : result->hits) {
    dumps.push_back(hit.source.Dump());
  }
  std::sort(dumps.begin(), dumps.end());
  std::uint64_t digest = kFnvBasis;
  for (const std::string& dump : dumps) {
    digest = FnvMixBytes(digest, dump.data(), dump.size());
  }
  return digest;
}

// ---- SyscallIssuer ------------------------------------------------------

namespace {

bool IsNamespaceOp(os::SyscallNr nr) {
  switch (nr) {
    case os::SyscallNr::kMkdir:
    case os::SyscallNr::kMkdirat:
    case os::SyscallNr::kRmdir:
    case os::SyscallNr::kRename:
    case os::SyscallNr::kRenameat:
    case os::SyscallNr::kRenameat2:
    case os::SyscallNr::kUnlink:
    case os::SyscallNr::kUnlinkat:
      return true;
    default:
      return false;
  }
}

}  // namespace

SyscallIssuer::SyscallIssuer(os::Kernel* kernel, PathMapper mapper,
                             bool bind_tasks, bool skip_namespace_ops)
    : kernel_(kernel),
      mapper_(std::move(mapper)),
      bind_tasks_(bind_tasks),
      skip_namespace_ops_(skip_namespace_ops) {}

SyscallIssuer::ReplayTask& SyscallIssuer::TaskFor(
    std::int32_t traced_pid, const std::string& proc_name) {
  auto it = tasks_.find(traced_pid);
  if (it != tasks_.end()) return it->second;
  ReplayTask task;
  const std::string name =
      proc_name.empty() ? "replay-" + std::to_string(traced_pid) : proc_name;
  task.pid = kernel_->CreateProcess(name);
  task.tid = kernel_->SpawnThread(task.pid, name);
  return tasks_.emplace(traced_pid, task).first->second;
}

void SyscallIssuer::Issue(const tracer::WireEvent& event) {
  // Enter-phase records carry no result to re-issue against.
  if (event.phase == static_cast<std::uint8_t>(tracer::EventPhase::kEnter)) {
    ++stats_.skipped;
    return;
  }
  const auto nr = static_cast<os::SyscallNr>(event.nr);
  if (skip_namespace_ops_ && IsNamespaceOp(nr)) {
    ++stats_.skipped;
    return;
  }
  const std::string recorded_path(event.path, event.path_len);
  const std::string recorded_path2(event.path2, event.path2_len);
  const std::string path =
      mapper_ ? mapper_(recorded_path) : recorded_path;
  const std::string path2 =
      mapper_ ? mapper_(recorded_path2) : recorded_path2;
  const std::int64_t recorded_ret = event.ret;
  const std::uint64_t count = event.count;
  const std::int32_t traced_pid = event.pid;
  const std::int32_t traced_fd = event.fd;

  std::unique_ptr<os::ScopedTask> bound;
  if (bind_tasks_) {
    ReplayTask& task =
        TaskFor(traced_pid, std::string(event.proc_name, event.proc_name_len));
    bound = std::make_unique<os::ScopedTask>(*kernel_, task.pid, task.tid);
  }
  os::Kernel& k = *kernel_;

  const auto mapped_fd = [&]() -> os::Fd {
    auto it = fd_map_.find({traced_pid, traced_fd});
    return it == fd_map_.end() ? os::kNoFd : it->second;
  };

  std::int64_t ret = 0;
  bool compare_ret = true;
  switch (nr) {
    case os::SyscallNr::kOpen:
    case os::SyscallNr::kOpenat:
    case os::SyscallNr::kCreat: {
      if (nr == os::SyscallNr::kCreat) {
        ret = k.sys_creat(path, event.mode != 0 ? event.mode : 0644);
      } else {
        ret = k.sys_openat(os::kAtFdCwd, path, event.flags,
                           event.mode != 0 ? event.mode : 0644);
      }
      if (ret >= 0 && recorded_ret >= 0) {
        fd_map_[{traced_pid, static_cast<std::int32_t>(recorded_ret)}] =
            static_cast<os::Fd>(ret);
      }
      // fd numbering may legitimately differ; success/failure must agree.
      if ((ret >= 0) == (recorded_ret >= 0)) ++stats_.ret_matches;
      else ++stats_.ret_mismatches;
      compare_ret = false;
      break;
    }
    case os::SyscallNr::kClose: {
      const os::Fd fd = mapped_fd();
      if (fd == os::kNoFd) {
        ++stats_.skipped;
        return;
      }
      fd_map_.erase({traced_pid, traced_fd});
      ret = k.sys_close(fd);
      break;
    }
    case os::SyscallNr::kRead:
    case os::SyscallNr::kWrite:
    case os::SyscallNr::kPread64:
    case os::SyscallNr::kPwrite64:
    case os::SyscallNr::kReadv:
    case os::SyscallNr::kWritev: {
      const os::Fd fd = mapped_fd();
      if (fd == os::kNoFd) {
        ++stats_.skipped;
        return;
      }
      const std::int64_t offset = event.arg_offset;
      std::string buf;
      switch (nr) {
        case os::SyscallNr::kRead:
          ret = k.sys_read(fd, &buf, count);
          break;
        case os::SyscallNr::kReadv: {
          const std::uint64_t lens[] = {count};
          ret = k.sys_readv(fd, &buf, lens);
          break;
        }
        case os::SyscallNr::kPread64:
          ret = k.sys_pread64(fd, &buf, count, offset);
          break;
        case os::SyscallNr::kWrite:
          ret = k.sys_write(fd, std::string(count, 'r'));
          break;
        case os::SyscallNr::kWritev: {
          const std::string chunk(count, 'r');
          const std::string_view iov[] = {chunk};
          ret = k.sys_writev(fd, iov);
          break;
        }
        default:  // kPwrite64
          ret = k.sys_pwrite64(fd, std::string(count, 'r'), offset);
          break;
      }
      break;
    }
    case os::SyscallNr::kLseek: {
      const os::Fd fd = mapped_fd();
      if (fd == os::kNoFd) {
        ++stats_.skipped;
        return;
      }
      ret = k.sys_lseek(fd, event.arg_offset,
                        static_cast<int>(event.whence));
      break;
    }
    case os::SyscallNr::kFsync:
    case os::SyscallNr::kFdatasync: {
      const os::Fd fd = mapped_fd();
      if (fd == os::kNoFd) {
        ++stats_.skipped;
        return;
      }
      ret = nr == os::SyscallNr::kFsync ? k.sys_fsync(fd)
                                        : k.sys_fdatasync(fd);
      break;
    }
    case os::SyscallNr::kFtruncate: {
      const os::Fd fd = mapped_fd();
      if (fd == os::kNoFd) {
        ++stats_.skipped;
        return;
      }
      ret = k.sys_ftruncate(fd, count);
      break;
    }
    case os::SyscallNr::kUnlink:
    case os::SyscallNr::kUnlinkat:
      ret = k.sys_unlink(path);
      break;
    case os::SyscallNr::kMkdir:
    case os::SyscallNr::kMkdirat:
      ret = k.sys_mkdir(path, event.mode != 0 ? event.mode : 0755);
      break;
    case os::SyscallNr::kRmdir:
      ret = k.sys_rmdir(path);
      break;
    case os::SyscallNr::kRename:
    case os::SyscallNr::kRenameat:
    case os::SyscallNr::kRenameat2:
      ret = k.sys_rename(path, path2);
      break;
    case os::SyscallNr::kStat: {
      os::StatBuf st;
      ret = k.sys_stat(path, &st);
      break;
    }
    case os::SyscallNr::kLstat: {
      os::StatBuf st;
      ret = k.sys_lstat(path, &st);
      break;
    }
    case os::SyscallNr::kTruncate:
      ret = k.sys_truncate(path, count);
      break;
    default:
      ++stats_.skipped;
      return;
  }

  ++stats_.issued;
  if (compare_ret) {
    if (ret == recorded_ret) ++stats_.ret_matches;
    else ++stats_.ret_mismatches;
  }
}

std::uint64_t CountIssuableEvents(const std::vector<tracer::WireEvent>& events,
                                  bool skip_namespace_ops) {
  // Mirrors SyscallIssuer's skip logic, with replayed opens assumed to
  // succeed (so the fd map evolves exactly as in a pre-created replay).
  std::set<std::pair<std::int32_t, std::int32_t>> fds;
  std::uint64_t issuable = 0;
  for (const tracer::WireEvent& event : events) {
    if (event.phase ==
        static_cast<std::uint8_t>(tracer::EventPhase::kEnter)) {
      continue;
    }
    const auto nr = static_cast<os::SyscallNr>(event.nr);
    if (skip_namespace_ops && IsNamespaceOp(nr)) continue;
    switch (nr) {
      case os::SyscallNr::kOpen:
      case os::SyscallNr::kOpenat:
      case os::SyscallNr::kCreat:
        if (event.ret >= 0) {
          fds.insert({event.pid, static_cast<std::int32_t>(event.ret)});
        }
        ++issuable;
        break;
      case os::SyscallNr::kClose:
        if (fds.erase({event.pid, event.fd}) == 0) continue;
        ++issuable;
        break;
      case os::SyscallNr::kRead:
      case os::SyscallNr::kWrite:
      case os::SyscallNr::kPread64:
      case os::SyscallNr::kPwrite64:
      case os::SyscallNr::kReadv:
      case os::SyscallNr::kWritev:
      case os::SyscallNr::kLseek:
      case os::SyscallNr::kFsync:
      case os::SyscallNr::kFdatasync:
      case os::SyscallNr::kFtruncate:
        if (fds.count({event.pid, event.fd}) == 0) continue;
        ++issuable;
        break;
      case os::SyscallNr::kUnlink:
      case os::SyscallNr::kUnlinkat:
      case os::SyscallNr::kMkdir:
      case os::SyscallNr::kMkdirat:
      case os::SyscallNr::kRmdir:
      case os::SyscallNr::kRename:
      case os::SyscallNr::kRenameat:
      case os::SyscallNr::kRenameat2:
      case os::SyscallNr::kStat:
      case os::SyscallNr::kLstat:
      case os::SyscallNr::kTruncate:
        ++issuable;
        break;
      default:
        continue;
    }
  }
  return issuable;
}

}  // namespace dio::trace
