// Profiling for the benchmark's profiled run: span recording plus timing
// decorators over DIO's public layer interfaces (tracer::EventSink,
// transport::Transport, backend::QueryBackend). Nothing here reaches inside
// src/; each span brackets one call across a layer boundary.
//
// "Profiled" names the benchmark's own spans; "traced" is reserved for an
// application syscall observed by DIO.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "backend/query_backend.h"
#include "common/clock.h"
#include "tracer/sink.h"
#include "transport/transport.h"

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t parent = -1;  // index into the recorder, -1 = root
  std::uint64_t request = 0;
  dio::Nanos start = 0;
  dio::Nanos end = 0;
};

struct SpanTotals {
  std::uint64_t count = 0;
  dio::Nanos total = 0;
  dio::Nanos self = 0;  // total minus the time covered by child spans
};

// In-memory span store; written out once, at the end of the run. A span's
// parent is the innermost open span on the same thread, and it inherits the
// thread's current request id (see RequestScope).
class SpanRecorder {
 public:
  // Caps memory use; spans past the cap are counted, not kept.
  static constexpr std::size_t kMaxSpans = 4'000'000;

  std::int64_t Begin(const char* name);
  void End(std::int64_t id);

  [[nodiscard]] std::vector<Span> Snapshot() const;
  [[nodiscard]] std::uint64_t dropped() const;
  // Per-name totals with self time.
  [[nodiscard]] std::map<std::string, SpanTotals> Totals() const;
  // Sum of the parts of `name` spans that overlap [from, to).
  [[nodiscard]] dio::Nanos BusyWithin(const std::string& name, dio::Nanos from,
                                      dio::Nanos to) const;
  // One JSON object per line: name, start, end, parent, request.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

// Sets the calling thread's request id for spans begun inside the scope.
class RequestScope {
 public:
  explicit RequestScope(std::uint64_t request);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  std::uint64_t previous_;
};

// Records one span over its lifetime; a null recorder records nothing, so
// the same code path serves the unprofiled run.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::int64_t id_ = -1;
  std::int64_t previous_open_ = -1;
};

// tracer::EventSink decorator: times the consumer threads' calls into the
// pipeline head ("tracer.sink"), including time blocked on a full queue.
class TimedEventSink final : public dio::tracer::EventSink {
 public:
  TimedEventSink(dio::tracer::EventSink* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  void IndexBatch(std::vector<dio::Json> documents) override;
  void IndexEvents(std::string_view session,
                   std::vector<dio::tracer::Event> events) override;
  void IndexWire(std::string_view session,
                 std::vector<dio::tracer::WireEvent> records) override;
  void Flush() override;

 private:
  dio::tracer::EventSink* inner_;
  SpanRecorder* recorder_;
};

// transport::Transport decorator for a terminal sink: Submit is recorded as
// `submit_span`, Flush as `flush_span`.
class TimedTransport final : public dio::transport::Transport {
 public:
  TimedTransport(std::unique_ptr<dio::transport::Transport> inner,
                 SpanRecorder* recorder, const char* submit_span,
                 const char* flush_span)
      : inner_(std::move(inner)),
        recorder_(recorder),
        submit_span_(submit_span),
        flush_span_(flush_span) {}

  dio::Status Submit(dio::transport::EventBatch batch) override;
  void Flush() override;
  void CollectStats(
      std::vector<dio::transport::StageStats>* out) const override {
    inner_->CollectStats(out);
  }
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }

 private:
  std::unique_ptr<dio::transport::Transport> inner_;
  SpanRecorder* recorder_;
  const char* submit_span_;
  const char* flush_span_;
};

// backend::QueryBackend decorator: one span per call ("backend.search",
// "backend.count", "backend.aggregate", "backend.update_by_query",
// "backend.refresh"). Stats and HasIndex are passed through unrecorded.
class TimedQueryBackend final : public dio::backend::QueryBackend {
 public:
  TimedQueryBackend(dio::backend::QueryBackend* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  [[nodiscard]] dio::Expected<dio::backend::SearchResult> Search(
      const std::string& index,
      const dio::backend::SearchRequest& request) const override;
  [[nodiscard]] dio::Expected<std::size_t> Count(
      const std::string& index,
      const dio::backend::Query& query) const override;
  [[nodiscard]] dio::Expected<dio::backend::AggResult> Aggregate(
      const std::string& index, const dio::backend::Query& query,
      const dio::backend::Aggregation& agg) const override;
  dio::Expected<std::size_t> UpdateByQuery(
      const std::string& index, const dio::backend::Query& query,
      const std::function<bool(dio::Json&)>& update) override;
  void Refresh(const std::string& index) override;
  [[nodiscard]] bool HasIndex(const std::string& index) const override {
    return inner_->HasIndex(index);
  }
  [[nodiscard]] dio::Expected<dio::backend::IndexStats> Stats(
      const std::string& index) const override {
    return inner_->Stats(index);
  }

 private:
  dio::backend::QueryBackend* inner_;
  SpanRecorder* recorder_;
};

}  // namespace perfbench
