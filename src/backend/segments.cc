#include "backend/segments.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <string>
#include <utility>

namespace dio::backend {

std::size_t SegmentedColumns::num_sealed() const {
  std::size_t sealed = 0;
  for (const auto& segment : segments_) {
    if (segment->sealed) ++sealed;
  }
  return sealed;
}

std::size_t SegmentedColumns::num_fields() const {
  if (segments_.empty()) return 0;
  if (segments_.size() == 1) return segments_[0]->columns.num_fields();
  // Typed streams columnarize the same field set in every segment; mixed
  // schemaless streams can differ per block, so report the union.
  std::set<std::string, std::less<>> fields;
  for (const auto& segment : segments_) {
    segment->columns.ForEachField(
        [&fields](const std::string& field) { fields.insert(field); });
  }
  return fields.size();
}

std::uint64_t SegmentedColumns::cache_hits() const {
  std::uint64_t total = 0;
  for (const auto& segment : segments_) total += segment->cache.hits();
  return total;
}

std::uint64_t SegmentedColumns::cache_misses() const {
  std::uint64_t total = 0;
  for (const auto& segment : segments_) total += segment->cache.misses();
  return total;
}

std::uint64_t SegmentedColumns::cache_evictions() const {
  std::uint64_t total = 0;
  for (const auto& segment : segments_) total += segment->cache.evictions();
  return total;
}

std::shared_ptr<ColumnSegment> SegmentedColumns::TrimmedTail(
    std::size_t* rows_copied) const {
  *rows_copied = 0;
  if (segments_.empty() || segments_.back()->sealed ||
      segments_.back()->columns.exact()) {
    return nullptr;
  }
  const ColumnSegment& tail = *segments_.back();
  auto trimmed = std::make_shared<ColumnSegment>(tail.base, cache_entries_);
  trimmed->columns = tail.columns.Trimmed(rows_copied);
  return trimmed;
}

std::shared_ptr<ColumnSegment> SegmentedColumns::ReplaceTail(
    std::shared_ptr<ColumnSegment> trimmed) {
  assert(!segments_.empty() && segments_.back()->end() == trimmed->end());
  // The copy holds the same rows, so cumulative cache stats carry over;
  // its bitmaps are rebuilt on demand.
  trimmed->cache.CarryCountersFrom(segments_.back()->cache);
  std::swap(segments_.back(), trimmed);
  ++generation_;
  return trimmed;
}

// ---- StagedSegmentBuild -----------------------------------------------------

StagedSegmentBuild::StagedSegmentBuild(const SegmentedColumns& base,
                                       std::size_t incoming_rows)
    : base_generation_(base.generation()),
      base_rows_(base.num_rows()),
      segment_docs_(base.segment_docs()),
      cache_entries_(base.cache_entries()),
      incoming_rows_(incoming_rows),
      staged_(base.segments_) {
  if (!staged_.empty() && !staged_.back()->sealed) {
    // Extend the growing tail: appends go past the live row count, which
    // readers of the live copy never look beyond.
    live_tail_ = staged_.back();
    extension_ = std::make_shared<ColumnSegment>(*live_tail_, cache_entries_);
    tail_ = extension_;
    staged_.back() = tail_;
    first_touched_ = staged_.size() - 1;
  } else {
    first_touched_ = staged_.size();
  }
}

StagedSegmentBuild::~StagedSegmentBuild() {
  if (live_tail_ != nullptr) {
    live_tail_->columns.UndoExtension(extension_->columns);
  }
}

bool StagedSegmentBuild::PrepareRow() {
  ++staged_rows_;
  bool opened = false;
  if (tail_ == nullptr ||
      (segment_docs_ != 0 && tail_->rows() >= segment_docs_)) {
    const std::size_t base = tail_ == nullptr ? base_rows_ : tail_->end();
    if (tail_ != nullptr) tail_->sealed = true;
    tail_ = std::make_shared<ColumnSegment>(base, cache_entries_);
    staged_.push_back(tail_);
    opened = true;
  }
  ColumnSet& columns = tail_->columns;
  if (columns.num_docs() == columns.capacity()) {
    // Room for this row and the rest of the build's rows, up to the seal.
    const std::size_t rest =
        incoming_rows_ > staged_rows_ ? incoming_rows_ - staged_rows_ : 0;
    std::size_t rows = columns.num_docs() + 1 + rest;
    if (segment_docs_ != 0) rows = std::min(rows, segment_docs_);
    copied_rows_ += columns.Reserve(rows, segment_docs_);
  }
  return opened;
}

void StagedSegmentBuild::Finish() {
  for (std::size_t i = first_touched_; i < staged_.size(); ++i) {
    staged_[i]->columns.FinishBatch();
    // A block that filled to the brim this refresh is sealed immediately so
    // the very next refresh opens a new tail and this block's cache starts
    // accumulating reusable bitmaps.
    if (segment_docs_ != 0 && staged_[i]->rows() >= segment_docs_) {
      staged_[i]->sealed = true;
    }
    if (staged_[i]->sealed) staged_[i]->columns.DropLookups();
  }
}

void StagedSegmentBuild::Commit(SegmentedColumns* target) {
  // The store's ingest mutex serializes all mutators, so the base list the
  // build started from must still be current.
  assert(target->generation_ == base_generation_);
  assert(target->num_rows_ == base_rows_);
  (void)base_generation_;
  (void)base_rows_;
  live_tail_.reset();
  extension_.reset();
  target->segments_.swap(staged_);
  target->num_rows_ =
      target->segments_.empty() ? 0 : target->segments_.back()->end();
  ++target->generation_;
}

}  // namespace dio::backend
