// Sealed-segment columnar layout for the ElasticStore (Lucene segment
// shape): each sub-shard's doc-value columns are an ordered list of
// immutable sealed blocks plus one growing tail. A refresh stages the new
// rows' columns entirely off-lock: sealed segments are shared by pointer,
// and the staged tail extends the live one in place (ColumnSet::Extend):
// it shares the live tail's slot and string buffers and appends past the
// live row and dictionary counts, which are the only bounds readers use. A
// full buffer regrows into a new one — readers of the live tail keep the
// old buffer until the swap — and a dictionary that gains strings gets new
// rank tables merged from the old ones, so a refresh does work
// proportional to the rows it adds. Blocks seal at exactly `segment_docs`
// rows, and the staged list is swapped in under the store's brief
// exclusive window. Because sealed segments never change, their cached
// filter bitmaps and string-dictionary ranks survive refreshes; a
// visibility change invalidates only the tail.
//
// `segment_docs == 0` takes the same path with a tail that never seals: one
// segment whose filter-bitmap cache is dropped on every refresh. It stays as
// the bench baseline and the sim's parity oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "backend/doc_values.h"

namespace dio::backend {

// One block of a sub-shard's columns, covering shard-local row positions
// [base, base + columns.num_docs()). Sealed blocks hold exactly the shard's
// segment_docs rows and are immutable under refresh; only update-by-query
// may rewrite a sealed row in place (clearing just this block's cache).
struct ColumnSegment {
  ColumnSegment(std::size_t base_pos, std::size_t cache_entries)
      : base(base_pos), cache(cache_entries) {}
  // Staged extension of a live tail: shares its rows (ColumnSet::Extend)
  // and carries the traffic counters over so cumulative cache stats never
  // go backwards, but starts with an empty cache (the tail's bitmaps die
  // with the visibility change).
  ColumnSegment(const ColumnSegment& live, std::size_t cache_entries)
      : base(live.base), sealed(live.sealed), columns(live.columns.Extend()),
        cache(cache_entries) {
    cache.CarryCountersFrom(live.cache);
  }

  std::size_t base = 0;
  bool sealed = false;
  ColumnSet columns;
  mutable FilterBitmapCache cache;

  [[nodiscard]] std::size_t rows() const { return columns.num_docs(); }
  [[nodiscard]] std::size_t end() const { return base + columns.num_docs(); }
};

// The ordered segment list of one sub-shard. Readers walk `segments()`
// under the store's shared refresh lock; every mutation happens under the
// exclusive lock (swap-in of a staged build, update-by-query row rewrites).
class SegmentedColumns {
 public:
  SegmentedColumns(std::size_t segment_docs, std::size_t cache_entries)
      : segment_docs_(segment_docs), cache_entries_(cache_entries) {}

  [[nodiscard]] std::size_t segment_docs() const { return segment_docs_; }
  [[nodiscard]] std::size_t cache_entries() const { return cache_entries_; }
  [[nodiscard]] std::size_t num_rows() const { return num_rows_; }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] const std::vector<std::shared_ptr<ColumnSegment>>& segments()
      const {
    return segments_;
  }
  [[nodiscard]] std::size_t num_segments() const { return segments_.size(); }
  [[nodiscard]] std::size_t num_sealed() const;

  // Segment lookup for a shard-local row position. Sealed segments hold
  // exactly segment_docs rows, so this is pure arithmetic.
  [[nodiscard]] std::size_t SegmentIndexFor(std::size_t pos) const {
    return segment_docs_ == 0 ? 0 : pos / segment_docs_;
  }
  [[nodiscard]] std::size_t LocalPos(std::size_t pos) const {
    return segment_docs_ == 0 ? pos : pos % segment_docs_;
  }
  [[nodiscard]] ColumnSegment& SegmentFor(std::size_t pos) const {
    return *segments_[SegmentIndexFor(pos)];
  }

  // The end-of-stream trim, in a refresh's two halves. TrimmedTail() builds
  // an exact copy of the unsealed tail (ColumnSet::Trimmed, which sets
  // `*rows_copied`) and may run beside readers, as long as the caller
  // keeps every other mutator out; it returns null when there is no tail
  // or the tail is already exact. ReplaceTail() publishes that copy under
  // the exclusive lock and returns the replaced tail, for the caller to
  // release once it has unlocked.
  [[nodiscard]] std::shared_ptr<ColumnSegment> TrimmedTail(
      std::size_t* rows_copied) const;
  std::shared_ptr<ColumnSegment> ReplaceTail(
      std::shared_ptr<ColumnSegment> trimmed);

  // Union field count / summed cache traffic across segments (IndexStats).
  [[nodiscard]] std::size_t num_fields() const;
  [[nodiscard]] std::uint64_t cache_hits() const;
  [[nodiscard]] std::uint64_t cache_misses() const;
  [[nodiscard]] std::uint64_t cache_evictions() const;

 private:
  friend class StagedSegmentBuild;

  std::size_t segment_docs_;
  std::size_t cache_entries_;
  std::size_t num_rows_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<std::shared_ptr<ColumnSegment>> segments_;
};

// Off-lock staged refresh build for one sub-shard. Constructed against the
// shard's current segment list while queries keep running: sealed segments
// are adopted by pointer, the unsealed tail (if any) is extended — its slot
// and string buffers shared, appends landing past the live counts. The caller then
// appends the new rows' columns — calling PrepareRow() before each row so
// blocks seal exactly at the segment_docs boundary — and finally Commit()
// swaps the staged list in under the store's exclusive window (O(segments)
// pointer moves, no column work). The store's ingest mutex serializes
// builders against every other mutator, so the base list cannot change
// between construction and Commit, and only one build extends a tail.
// A build destroyed without Commit (an early exit from the build phase)
// undoes its writes to the shared tail buffers and string maps, so the
// next build extends exactly the published tail.
class StagedSegmentBuild {
 public:
  // `incoming_rows` is the number of rows the caller will append; each
  // block's first buffer is sized for its share of them, so a block this
  // build fills gets exactly segment_docs slots.
  StagedSegmentBuild(const SegmentedColumns& base, std::size_t incoming_rows);
  ~StagedSegmentBuild();
  StagedSegmentBuild(const StagedSegmentBuild&) = delete;
  StagedSegmentBuild& operator=(const StagedSegmentBuild&) = delete;

  // Seals the tail if it is full and opens a fresh one, and makes room for
  // the row; returns true when the tail ColumnSet changed (appenders caching
  // column pointers must re-bind). Call once before every appended row.
  bool PrepareRow();
  // The ColumnSet the next row appends into. Valid after PrepareRow().
  [[nodiscard]] ColumnSet& tail() { return tail_->columns; }

  // FinishBatch on every staged segment that grew (pads columns, re-ranks
  // only dictionaries that changed — sealed blocks keep their ranks), and
  // drops the string -> ordinal maps of the blocks this build sealed.
  void Finish();
  [[nodiscard]] std::size_t staged_rows() const { return staged_rows_; }
  // Column rows this build wrote: the appended rows plus the rows copied
  // when a full buffer regrew.
  [[nodiscard]] std::size_t rows_written() const {
    return staged_rows_ + copied_rows_;
  }

  // Publishes the staged list into `target` under the exclusive lock. The
  // replaced list stays with the build, so what only it referenced (the
  // extended tail, and with it a map the sealed block dropped) is freed
  // when the build is destroyed, after the caller unlocks.
  void Commit(SegmentedColumns* target);

 private:
  std::uint64_t base_generation_;
  std::size_t base_rows_;
  std::size_t segment_docs_;
  std::size_t cache_entries_;
  std::size_t incoming_rows_;
  std::size_t staged_rows_ = 0;
  std::size_t copied_rows_ = 0;
  std::size_t first_touched_;
  // The published tail this build extends, and its extension (both null
  // when the build starts a fresh block); dropped once committed.
  std::shared_ptr<ColumnSegment> live_tail_;
  std::shared_ptr<ColumnSegment> extension_;
  std::shared_ptr<ColumnSegment> tail_;
  std::vector<std::shared_ptr<ColumnSegment>> staged_;
};

}  // namespace dio::backend
