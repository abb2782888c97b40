#include "perfbench/profile.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

thread_local std::uint64_t t_request = 0;
thread_local std::int64_t t_open_span = -1;

dio::Nanos Now() { return dio::SteadyClock::Instance()->NowNanos(); }

}  // namespace

std::int64_t SpanRecorder::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = t_open_span;
  span.request = t_request;
  span.start = Now();
  std::scoped_lock lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanRecorder::End(std::int64_t id) {
  if (id < 0) return;
  const dio::Nanos end = Now();
  std::scoped_lock lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::scoped_lock lock(mu_);
  return spans_;
}

std::uint64_t SpanRecorder::dropped() const {
  std::scoped_lock lock(mu_);
  return dropped_;
}

std::map<std::string, SpanTotals> SpanRecorder::Totals() const {
  const std::vector<Span> spans = Snapshot();
  // Children of one span run on the parent's thread, one after another, so
  // their durations do not overlap and subtract directly.
  std::vector<dio::Nanos> child_time(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0 && span.end >= span.start) {
      child_time[static_cast<std::size_t>(span.parent)] +=
          span.end - span.start;
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.end < span.start) continue;  // still open
    SpanTotals& t = totals[span.name];
    const dio::Nanos duration = span.end - span.start;
    ++t.count;
    t.total += duration;
    t.self += std::max<dio::Nanos>(0, duration - child_time[i]);
  }
  return totals;
}

dio::Nanos SpanRecorder::BusyWithin(const std::string& name, dio::Nanos from,
                                    dio::Nanos to) const {
  std::scoped_lock lock(mu_);
  dio::Nanos busy = 0;
  for (const Span& span : spans_) {
    if (span.end < span.start || name != span.name) continue;
    const dio::Nanos lo = std::max(from, span.start);
    const dio::Nanos hi = std::min(to, span.end);
    if (hi > lo) busy += hi - lo;
  }
  return busy;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : Snapshot()) {
    std::fprintf(out,
                 "{\"name\":\"%s\",\"start\":%lld,\"end\":%lld,"
                 "\"parent\":%lld,\"request\":%llu}\n",
                 span.name, static_cast<long long>(span.start),
                 static_cast<long long>(span.end),
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.request));
  }
  return std::fclose(out) == 0;
}

RequestScope::RequestScope(std::uint64_t request) : previous_(t_request) {
  t_request = request;
}

RequestScope::~RequestScope() { t_request = previous_; }

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const char* name)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  id_ = recorder_->Begin(name);
  previous_open_ = t_open_span;
  if (id_ >= 0) t_open_span = id_;
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  recorder_->End(id_);
  t_open_span = previous_open_;
}

void TimedEventSink::IndexBatch(std::vector<dio::Json> documents) {
  ScopedSpan span(recorder_, "tracer.sink");
  inner_->IndexBatch(std::move(documents));
}

void TimedEventSink::IndexEvents(std::string_view session,
                                 std::vector<dio::tracer::Event> events) {
  ScopedSpan span(recorder_, "tracer.sink");
  inner_->IndexEvents(session, std::move(events));
}

void TimedEventSink::IndexWire(std::string_view session,
                               std::vector<dio::tracer::WireEvent> records) {
  ScopedSpan span(recorder_, "tracer.sink");
  inner_->IndexWire(session, std::move(records));
}

void TimedEventSink::Flush() {
  ScopedSpan span(recorder_, "transport.flush");
  inner_->Flush();
}

dio::Status TimedTransport::Submit(dio::transport::EventBatch batch) {
  ScopedSpan span(recorder_, submit_span_);
  return inner_->Submit(std::move(batch));
}

void TimedTransport::Flush() {
  ScopedSpan span(recorder_, flush_span_);
  inner_->Flush();
}

dio::Expected<dio::backend::SearchResult> TimedQueryBackend::Search(
    const std::string& index,
    const dio::backend::SearchRequest& request) const {
  ScopedSpan span(recorder_, "backend.search");
  return inner_->Search(index, request);
}

dio::Expected<std::size_t> TimedQueryBackend::Count(
    const std::string& index, const dio::backend::Query& query) const {
  ScopedSpan span(recorder_, "backend.count");
  return inner_->Count(index, query);
}

dio::Expected<dio::backend::AggResult> TimedQueryBackend::Aggregate(
    const std::string& index, const dio::backend::Query& query,
    const dio::backend::Aggregation& agg) const {
  ScopedSpan span(recorder_, "backend.aggregate");
  return inner_->Aggregate(index, query, agg);
}

dio::Expected<std::size_t> TimedQueryBackend::UpdateByQuery(
    const std::string& index, const dio::backend::Query& query,
    const std::function<bool(dio::Json&)>& update) {
  ScopedSpan span(recorder_, "backend.update_by_query");
  return inner_->UpdateByQuery(index, query, update);
}

void TimedQueryBackend::Refresh(const std::string& index) {
  ScopedSpan span(recorder_, "backend.refresh");
  inner_->Refresh(index);
}

}  // namespace perfbench
