// Columnar doc-values for the ElasticStore query engine.
//
// At Refresh each SubShard appends its new rows to one typed column per
// field (Lucene doc-values shape): a kind byte and one int64 value per
// document slot, a double array only in columns that hold a double, and a
// string dictionary with lexicographic ranks. Query evaluation, sorting, and
// aggregation then read flat arrays instead of calling `Json::Find` per
// document per field — the difference between dashboard-rate analytics and
// a per-document tree walk.
//
// Three pieces live here:
//   * ColumnSet / DocValueColumn — one segment's column storage, append-only
//     in docid order into fixed-capacity slot and string buffers that a
//     refresh shares with the live segment it extends (update-by-query
//     rewrites slots in place).
//   * CompiledQuery — a Query tree resolved against one ColumnSet: column
//     pointers looked up once, string terms translated to dictionary
//     ordinals, prefix predicates to rank ranges. Its match bitmap must
//     agree bit-for-bit with `Query::Matches(doc)` per document (the parity
//     suites check it against a reference model in tests/support/).
//   * FilterBitmap / FilterBitmapCache — dense per-segment match bitmaps,
//     one per leaf predicate, cached per query text and invalidated when the
//     segment's rows change, in the spirit of Lucene's cached filter bitsets.
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "backend/query.h"
#include "common/json.h"

namespace dio::backend {

// Per-slot value kind. kOther covers the non-scalar shapes (null members,
// arrays, objects) that keep their JSON fallback; everything else is fully
// decoded into the columns.
enum class ValueKind : std::uint8_t {
  kMissing = 0,  // field absent from the document
  kInt,
  kDouble,
  kString,
  kBool,
  kOther,
};

// Fixed-capacity string storage of one column's dictionary (ordinal ->
// string), appended like a SlotBuffer: readers never look past their
// column's dictionary size. Ordinals are assigned in first-seen order so
// incremental refresh never reshuffles existing slots.
struct StringBuffer {
  explicit StringBuffer(std::size_t capacity)
      : values(new std::string[capacity]), capacity(capacity) {}

  std::unique_ptr<std::string[]> values;
  std::size_t capacity;
};

// Lexicographic ranks of one dictionary version: sorted_rank maps ordinal ->
// rank so a prefix predicate is an O(1) rank range test per document, and
// rank_to_ord is its inverse.
struct StringRanks {
  std::vector<std::uint32_t> sorted_rank;
  std::vector<std::uint32_t> rank_to_ord;
};

// Fixed-capacity slot storage of one column, zero-filled (kMissing, 0) at
// allocation and never resized: a writer can fill slots above a reader's
// row count while the reader scans the slots below it. Each slot is a kind
// byte plus one int64 cell; the doubles of kDouble slots live in a separate
// array of the same capacity that a column allocates only when it first
// holds one (typed rows never do).
struct SlotBuffer {
  explicit SlotBuffer(std::size_t capacity)
      : kinds(new std::uint8_t[capacity]()),
        ints(new std::int64_t[capacity]()),
        capacity(capacity) {}

  std::unique_ptr<std::uint8_t[]> kinds;
  std::unique_ptr<std::int64_t[]> ints;
  std::size_t capacity;
};

// One field's doc values over the slots of one ColumnSet. A column can share
// its slot and string buffers with the column of a live segment it extends
// (ColumnSet::Extend): appends land past the live row and dictionary
// counts, a full buffer regrows into a new one, and the extension gets its
// own rank tables — so the live column never changes underneath its
// readers, and an append costs no copy of what the live column holds.
class DocValueColumn {
 public:
  explicit DocValueColumn(std::size_t capacity)
      : buf_(std::make_shared<SlotBuffer>(capacity)),
        kinds_(buf_->kinds.get()),
        ints_(buf_->ints.get()) {}
  DocValueColumn(DocValueColumn&&) noexcept = default;
  DocValueColumn& operator=(DocValueColumn&&) noexcept = default;

  // One entry per document slot (docid / stride), in slot order. kinds():
  // ValueKind per slot. ints(): kInt/kDouble Json::as_int(), kString
  // dictionary ordinal, kBool 0/1.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::span<const std::uint8_t> kinds() const {
    return {kinds_, size_};
  }
  [[nodiscard]] std::span<const std::int64_t> ints() const {
    return {ints_, size_};
  }

  [[nodiscard]] ValueKind kind(std::size_t pos) const {
    return static_cast<ValueKind>(kinds_[pos]);
  }
  [[nodiscard]] bool is_number(std::size_t pos) const {
    return kind(pos) == ValueKind::kInt || kind(pos) == ValueKind::kDouble;
  }
  // Json::as_double() of a number slot: the stored double of a kDouble, the
  // int cell of a kInt (drives term equality across numeric types and sort
  // comparisons, exactly like the JSON comparator).
  [[nodiscard]] double dbl(std::size_t pos) const {
    return kind(pos) == ValueKind::kDouble ? dbls_[pos]
                                           : static_cast<double>(ints_[pos]);
  }
  // Whether this column holds a double array (it ever held a kDouble).
  [[nodiscard]] bool has_doubles() const { return dbls_ != nullptr; }
  // Bytes this column holds, counted by capacity: slot cells, the double
  // array, the dictionary (strings, plus the string -> ordinal map as one
  // node and one bucket per entry while the column holds one) and rank
  // tables. Reads nothing a concurrent extension of the column writes.
  [[nodiscard]] std::size_t bytes() const;
  [[nodiscard]] std::string_view str(std::size_t pos) const {
    return values_[static_cast<std::size_t>(ints_[pos])];
  }

  // The dictionary (ordinal -> string) and its rank tables.
  [[nodiscard]] std::span<const std::string> dict() const {
    return {values_, dict_size_};
  }
  [[nodiscard]] const std::vector<std::uint32_t>& sorted_rank() const {
    return ranks().sorted_rank;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& rank_to_ord() const {
    return ranks().rank_to_ord;
  }
  // The ordinal of `value`, or nullopt when this column never saw it.
  [[nodiscard]] std::optional<std::uint32_t> Ordinal(
      std::string_view value) const;
  // Lexicographic rank range [lo, hi) of dictionary entries starting with
  // `prefix`.
  void PrefixRankRange(std::string_view prefix, std::uint32_t* lo,
                       std::uint32_t* hi) const;

  // Writes one slot below the buffer's capacity (the owning ColumnSet
  // reserves it). A kDouble slot is written through SetDouble.
  void Set(std::size_t pos, ValueKind kind, std::int64_t i) {
    kinds_[pos] = static_cast<std::uint8_t>(kind);
    ints_[pos] = i;
    if (pos >= size_) size_ = pos + 1;
  }
  // Writes a kDouble slot: `i` is its int shadow (Json::as_int(), what range
  // filters and histograms read), `d` the value. Allocates the column's
  // double array on first use.
  void SetDouble(std::size_t pos, std::int64_t i, double d) {
    if (dbls_ == nullptr) AllocateDoubles();
    dbls_[pos] = d;
    Set(pos, ValueKind::kDouble, i);
  }
  // The ordinal of `value`, added to the dictionary when new. A column
  // that dropped its string -> ordinal map rebuilds it here first.
  std::uint32_t Intern(const std::string& value);

 private:
  friend class ColumnSet;
  using Lookup = std::unordered_map<std::string, std::uint32_t>;

  DocValueColumn(const DocValueColumn&) = default;
  // Copies the slots (and the doubles, if any) into new zero-filled buffers
  // of `capacity`; a column still sharing the old buffers keeps them.
  void Regrow(std::size_t capacity);
  // A zero-filled double array at the slot buffer's capacity. An extension
  // allocates its own, which the live column it extends never sees.
  void AllocateDoubles();
  // Copies the dictionary into a string buffer of exactly its entries; a
  // column still sharing the old buffer keeps it.
  void TrimStrings();
  // Whether the slot and string buffers hold exactly this column's slots
  // and entries, and no string -> ordinal map is kept.
  [[nodiscard]] bool exact() const;
  // Takes back what an unpublished extension `ext` of this column wrote into
  // the shared state: its strings leave the string map (if this column
  // still holds one), and the slots it filled in this column's buffers (of
  // `capacity` slots) read kMissing again.
  void UndoExtension(const DocValueColumn& ext, std::size_t capacity);
  // Covers `slots` slots (the pad slots are already kMissing) and, if the
  // dictionary grew, builds this version's rank tables by merging the new
  // strings into the previous ranks.
  void Finish(std::size_t slots);
  [[nodiscard]] const StringRanks& ranks() const {
    return ranks_ != nullptr ? *ranks_ : kNoRanks;
  }

  // Owns the slots; the raw pointers cache its arrays so a cell read is one
  // load, as with a plain vector. The double array is shared like the slot
  // buffer, and null until the column first holds a kDouble.
  std::shared_ptr<SlotBuffer> buf_;
  std::uint8_t* kinds_;
  std::int64_t* ints_;
  std::shared_ptr<double[]> dbl_buf_;
  double* dbls_ = nullptr;
  std::size_t size_ = 0;
  // The dictionary, all null until the first string. `strings_` holds this
  // version's first dict_size_ entries; `lookup_` (string -> ordinal) is
  // read and written only by the one writer extending the column, which is
  // why it can be shared and updated in place; readers resolve ordinals
  // through `ranks_`, which covers dict_size_ once the batch is finished.
  // Sealed blocks, trimmed tails and segments an update-by-query rewrote
  // drop `lookup_` (only a later Intern needs it, and that rebuilds it
  // from the dictionary).
  std::shared_ptr<StringBuffer> strings_;
  const std::string* values_ = nullptr;
  std::size_t dict_size_ = 0;
  std::shared_ptr<Lookup> lookup_;
  std::shared_ptr<const StringRanks> ranks_;
  static inline const StringRanks kNoRanks{};
};

class ColumnSet {
 public:
  // Appends one document slot (in docid order). Fields absent from this
  // document stay kMissing; fields first seen now read kMissing for all
  // earlier slots.
  void AppendDoc(const Json& doc);
  // Pads every column to the current slot count and rebuilds the
  // lexicographic ranks of dictionaries that grew. Call after a batch of
  // AppendDoc()s, before the columns become visible to queries.
  void FinishBatch();

  // Typed-ingest append path (backend/typed_ingest.cc): claims the next
  // document slot without reading any Json. The appender then writes field
  // values directly into TypedColumn() cells; untouched cells stay kMissing,
  // exactly like a Json row that lacked the field.
  std::size_t BeginTypedRow() { return BeginRow(); }
  // The named column, created empty on first use. References stay stable
  // across later insertions and buffer growth (std::map nodes don't move).
  DocValueColumn& TypedColumn(const std::string& field) {
    return Column(field);
  }

  // Rewrites one existing slot from `doc` (update-by-query over a shard that
  // holds typed rows): every column's cell at `pos` is reset to kMissing,
  // then the document's members are re-decoded in place. Dictionaries only
  // grow; call FinishBatch afterwards to refresh ranks.
  void ReplaceRow(std::size_t pos, const Json& doc);

  // A set over the same rows that appends past num_docs() into this set's
  // slot and string buffers: the staged refresh's view of a live tail. No
  // slot or string is copied; `*this` stays valid for readers, who never
  // look past its row and dictionary counts. The buffers belong to one
  // writer: at most one extension may be written, and `*this` must not be
  // written meanwhile. A written extension either replaces `*this` or is
  // handed to UndoExtension() (its appends already sit in the shared
  // buffers and string map).
  [[nodiscard]] ColumnSet Extend() const;
  // Drops an extension of this set that will never be published: the
  // strings it added leave the shared string maps and the slots it wrote
  // past num_docs() read kMissing again, so the next extension starts from
  // exactly this set's published state.
  void UndoExtension(const ColumnSet& ext);
  // Makes room for `rows` slots (at most `limit` unless limit is 0). The
  // first allocation is exact; a full buffer then at least doubles, to the
  // smallest of the levels limit, limit/2, limit/4, ... that holds twice
  // the old capacity and `rows`, or to limit itself (plain doubling when
  // limit is 0, a set that never seals). A block that grows to a seal at
  // `limit` rows thus ends with no slack, and its regrowths copy fewer
  // than `limit` rows. Returns the rows copied.
  std::size_t Reserve(std::size_t rows, std::size_t limit);
  // A copy of this set in slot buffers of exactly num_docs() slots, each
  // dictionary in a string buffer of exactly its entries, rank tables
  // shared and no string -> ordinal maps: the end-of-stream trim of a tail
  // that stopped growing. Slot buffers that are already exact are shared,
  // not copied (a later append regrows the copy from its exact capacity
  // either way). Reads only what readers of this set read, so it may run
  // beside them. Sets `*rows_copied` to the slot rows copied.
  [[nodiscard]] ColumnSet Trimmed(std::size_t* rows_copied) const;
  // Whether Trimmed() would hold exactly what this set holds.
  [[nodiscard]] bool exact() const;
  // Drops every column's string -> ordinal map (a sealed block, or a
  // segment an update-by-query has rewritten): only appends to a tail
  // reuse it, and the next Intern rebuilds it from the dictionary.
  void DropLookups();

  [[nodiscard]] std::size_t num_docs() const { return num_docs_; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t num_fields() const { return columns_.size(); }
  // DocValueColumn::bytes() summed over the columns.
  [[nodiscard]] std::size_t bytes() const;
  [[nodiscard]] const DocValueColumn* Find(std::string_view field) const;
  template <typename Fn>
  void ForEachField(Fn&& fn) const {
    for (const auto& [field, col] : columns_) fn(field);
  }

 private:
  std::size_t BeginRow() {
    if (num_docs_ == capacity_) Reserve(num_docs_ + 1, 0);
    return num_docs_++;
  }
  DocValueColumn& Column(std::string_view field);
  void DecodeMember(DocValueColumn& col, std::size_t pos, const Json& value);

  std::map<std::string, DocValueColumn, std::less<>> columns_;
  std::size_t num_docs_ = 0;
  std::size_t capacity_ = 0;
};

// Dense bitmap over the document slots of one sub-shard.
class FilterBitmap {
 public:
  FilterBitmap() = default;
  FilterBitmap(std::size_t bits, bool value);

  [[nodiscard]] std::size_t bits() const { return bits_; }
  void Set(std::size_t pos) { words_[pos >> 6] |= 1ULL << (pos & 63); }
  [[nodiscard]] bool Test(std::size_t pos) const {
    return (words_[pos >> 6] >> (pos & 63)) & 1ULL;
  }

  void AndWith(const FilterBitmap& other);
  void OrWith(const FilterBitmap& other);
  void Negate();  // complement, with the tail bits past bits() kept zero

  // Raw word storage for the simd mask kernels (bits() bits, tail zero).
  [[nodiscard]] std::span<std::uint64_t> words() { return words_; }
  [[nodiscard]] std::span<const std::uint64_t> words() const { return words_; }

  [[nodiscard]] std::size_t CountSet() const;
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = std::countr_zero(word);
        fn((w << 6) + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

// Per-segment cache of leaf-predicate bitmaps, keyed by the
// predicate's ToString form. A cached bitmap covers exactly the rows of the
// segment it belongs to, so it stays valid for as long as those rows do:
// sealed segments keep their entries across refreshes, the growing tail's
// cache is replaced on every refresh, and update-by-query clears only the
// caches of segments whose rows it rewrote. Entries evict in LRU order once
// `capacity` is reached (capacity 0 disables caching entirely — the
// drop-all-caches parity twin). Hit/miss/eviction counts feed IndexStats.
class FilterBitmapCache {
 public:
  static constexpr std::size_t kDefaultEntries = 128;

  explicit FilterBitmapCache(std::size_t capacity = kDefaultEntries)
      : capacity_(capacity) {}

  [[nodiscard]] std::shared_ptr<const FilterBitmap> Lookup(
      const std::string& key) const;
  void Insert(const std::string& key, FilterBitmap bitmap);
  void Clear();
  // Adopts another cache's traffic counters. A refresh replaces the growing
  // tail's cache with a fresh one; carrying the old counters over keeps the
  // store's cumulative hit/miss stats from going backwards.
  void CarryCountersFrom(const FilterBitmapCache& other);

  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t evictions() const;

 private:
  struct Entry {
    std::shared_ptr<const FilterBitmap> bitmap;
    std::uint64_t last_used = 0;
  };

  std::size_t capacity_;
  mutable std::mutex mu_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  mutable std::uint64_t tick_ = 0;
  mutable std::unordered_map<std::string, Entry> entries_;
};

// A Query resolved against one sub-shard's columns. The compiled tree owns
// no documents: `query` and `columns` must outlive it (both are pinned by
// the store's refresh lock for the duration of a request).
class CompiledQuery {
 public:
  CompiledQuery(const Query& query, const ColumnSet& columns);

  // The match bitmap over the first `rows` slots, built from cached
  // per-predicate bitmaps where possible. Reads the columns for every
  // scalar value and falls back to `docs[pos]` only for kOther slots, which
  // only JSON rows have: `docs` may stop short of `rows`, since the row
  // store holds no document for a typed row. The result is exactly
  // query.Matches(doc) for every slot's document.
  [[nodiscard]] FilterBitmap Eval(std::size_t rows, std::span<const Json> docs,
                                  FilterBitmapCache* cache) const;

 private:
  struct TermValue {
    ValueKind kind = ValueKind::kOther;
    std::int64_t i = 0;        // int value, or 0/1 for bools
    double d = 0.0;            // as_double() for numbers
    std::uint32_t ord = 0;     // dictionary ordinal for strings...
    bool ord_resolved = false;  // ...when the term exists in this shard
    const Json* raw = nullptr;  // the original query value (kOther fallback)
  };

  struct Node {
    const Query* query = nullptr;
    const DocValueColumn* col = nullptr;
    std::vector<TermValue> values;          // kTerm / kTerms
    std::uint32_t prefix_lo = 0;            // kPrefix rank range
    std::uint32_t prefix_hi = 0;
    std::vector<Node> children;

    [[nodiscard]] bool IsLeaf() const {
      const Query::Type t = query->type();
      return t != Query::Type::kAnd && t != Query::Type::kOr &&
             t != Query::Type::kNot;
    }
  };

  static Node Compile(const Query& query, const ColumnSet& columns);
  static bool MatchesNode(const Node& node, std::size_t pos,
                          std::span<const Json> docs);
  static FilterBitmap EvalNode(const Node& node, std::size_t n,
                               std::span<const Json> docs,
                               FilterBitmapCache* cache);
  // Vectorized leaf evaluation (backend/simd_kernels.h): fills `out` for the
  // predicate shapes the kernels cover (numeric ranges, exists, string/bool
  // term lists) and returns true; returns false when the leaf needs the
  // scalar per-row loop (prefix ranks, numeric terms, kOther fallbacks).
  static bool EvalLeafKernel(const Node& node, std::size_t n,
                             FilterBitmap* out);

  Node root_;
};

// One field's values gathered for a matched result set, one entry per row in
// docid order. This is what the streaming columnar aggregation path consumes
// instead of calling Json::Find per document.
struct ColumnSlice {
  std::vector<std::uint8_t> kinds;       // ValueKind per row
  std::vector<std::int64_t> ints;        // kInt: value; kBool: 0/1
  std::vector<double> dbls;              // numbers: Json::as_double()
  std::vector<std::string_view> strs;    // kString: view into a shard dict
  std::vector<const Json*> raws;         // kOther: the member Json

  [[nodiscard]] ValueKind kind(std::size_t row) const {
    return static_cast<ValueKind>(kinds[row]);
  }
  [[nodiscard]] bool is_number(std::size_t row) const {
    return kind(row) == ValueKind::kInt || kind(row) == ValueKind::kDouble;
  }
};

// Columnar view of a matched result set, handed by the store to
// Aggregation::ExecuteColumnar. Slices are gathered lazily per field and
// cached for the lifetime of the source (one aggregation tree), so nested
// sub-aggregations over the same field gather once. Not thread-safe: one
// aggregation executes on one thread.
class AggSource {
 public:
  virtual ~AggSource() = default;
  [[nodiscard]] virtual std::size_t rows() const = 0;
  [[nodiscard]] virtual const ColumnSlice& Slice(
      const std::string& field) const = 0;
};

}  // namespace dio::backend
