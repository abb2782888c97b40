#include "backend/doc_values.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

#include "backend/simd_kernels.h"

namespace dio::backend {

// ---- DocValueColumn ---------------------------------------------------------

std::optional<std::uint32_t> DocValueColumn::Ordinal(
    std::string_view value) const {
  const std::vector<std::uint32_t>& rank_to_ord = ranks().rank_to_ord;
  const auto it = std::lower_bound(
      rank_to_ord.begin(), rank_to_ord.end(), value,
      [this](std::uint32_t ord, std::string_view v) {
        return values_[ord] < v;
      });
  if (it == rank_to_ord.end() || values_[*it] != value) return std::nullopt;
  return *it;
}

void DocValueColumn::PrefixRankRange(std::string_view prefix,
                                     std::uint32_t* lo,
                                     std::uint32_t* hi) const {
  // Dictionary entries starting with `prefix` form one contiguous rank
  // range: everything comparing < prefix first, then the prefixed block.
  const std::vector<std::uint32_t>& rank_to_ord = ranks().rank_to_ord;
  const auto cmp = [this, prefix](std::uint32_t ord) {
    return std::string_view(values_[ord]).substr(0, prefix.size())
        .compare(prefix);
  };
  const auto first = std::partition_point(
      rank_to_ord.begin(), rank_to_ord.end(),
      [&cmp](std::uint32_t ord) { return cmp(ord) < 0; });
  const auto last = std::partition_point(
      first, rank_to_ord.end(),
      [&cmp](std::uint32_t ord) { return cmp(ord) == 0; });
  *lo = static_cast<std::uint32_t>(first - rank_to_ord.begin());
  *hi = static_cast<std::uint32_t>(last - rank_to_ord.begin());
}

std::uint32_t DocValueColumn::Intern(const std::string& value) {
  if (lookup_ == nullptr) {
    lookup_ = std::make_shared<Lookup>();
    lookup_->reserve(dict_size_);
    for (std::size_t ord = 0; ord < dict_size_; ++ord) {
      lookup_->emplace(values_[ord], static_cast<std::uint32_t>(ord));
    }
  }
  auto [it, inserted] = lookup_->try_emplace(
      value, static_cast<std::uint32_t>(dict_size_));
  if (!inserted) return it->second;
  if (strings_ == nullptr || dict_size_ == strings_->capacity) {
    // Like the slot buffers: the old strings stay put for the live column.
    auto grown = std::make_shared<StringBuffer>(
        std::max<std::size_t>(8, 2 * dict_size_));
    std::copy_n(values_, dict_size_, grown->values.get());
    strings_ = std::move(grown);
    values_ = strings_->values.get();
  }
  strings_->values[dict_size_++] = value;
  return it->second;
}

std::size_t DocValueColumn::bytes() const {
  std::size_t total =
      buf_->capacity * (sizeof(std::uint8_t) + sizeof(std::int64_t));
  if (dbls_ != nullptr) total += buf_->capacity * sizeof(double);
  if (strings_ != nullptr) {
    total += strings_->capacity * sizeof(std::string);
    // The lookup map, while the column holds one, belongs to the writer
    // extending the column, so its size is taken from this version's
    // dictionary: per entry a node (the key and ordinal, a next pointer,
    // the cached hash) and a bucket.
    const bool mapped = lookup_ != nullptr;
    if (mapped) {
      total += dict_size_ * (sizeof(Lookup::value_type) + 3 * sizeof(void*));
    }
    for (std::size_t ord = 0; ord < dict_size_; ++ord) {
      // A string past the small-string buffer owns a heap block, in the
      // buffer and again as the lookup key.
      if (values_[ord].capacity() > std::string().capacity()) {
        total += (mapped ? 2 : 1) * (values_[ord].capacity() + 1);
      }
    }
  }
  const StringRanks& r = ranks();
  total += (r.sorted_rank.capacity() + r.rank_to_ord.capacity()) *
           sizeof(std::uint32_t);
  return total;
}

void DocValueColumn::AllocateDoubles() {
  dbl_buf_ = std::make_shared<double[]>(buf_->capacity);
  dbls_ = dbl_buf_.get();
}

void DocValueColumn::Regrow(std::size_t capacity) {
  auto grown = std::make_shared<SlotBuffer>(capacity);
  std::copy_n(kinds_, size_, grown->kinds.get());
  std::copy_n(ints_, size_, grown->ints.get());
  buf_ = std::move(grown);
  kinds_ = buf_->kinds.get();
  ints_ = buf_->ints.get();
  if (dbls_ != nullptr) {
    const std::shared_ptr<double[]> old = std::move(dbl_buf_);
    AllocateDoubles();
    std::copy_n(old.get(), size_, dbls_);
  }
}

void DocValueColumn::TrimStrings() {
  if (strings_ == nullptr || strings_->capacity == dict_size_) return;
  auto exact = std::make_shared<StringBuffer>(dict_size_);
  std::copy_n(values_, dict_size_, exact->values.get());
  strings_ = std::move(exact);
  values_ = strings_->values.get();
}

bool DocValueColumn::exact() const {
  return buf_->capacity == size_ && lookup_ == nullptr &&
         (strings_ == nullptr || strings_->capacity == dict_size_);
}

void DocValueColumn::UndoExtension(const DocValueColumn& ext,
                                   std::size_t capacity) {
  // Whatever the extension did with its own map pointer (shared this one,
  // dropped it when its block sealed, or rebuilt one because this column
  // holds none), only this column's map can hold its strings, and they are
  // exactly the entries past dict_size_.
  if (lookup_ != nullptr) {
    for (std::size_t ord = dict_size_; ord < ext.dict_size_; ++ord) {
      lookup_->erase(ext.values_[ord]);
    }
  }
  // The extension wrote this buffer only below its capacity; anything past
  // that went into a regrown buffer of its own.
  const std::size_t end = std::min(ext.size_, capacity);
  if (end > size_) {
    std::fill(kinds_ + size_, kinds_ + end, std::uint8_t{0});
    std::fill(ints_ + size_, ints_ + end, std::int64_t{0});
    // A double array this column holds is shared with the extension; one
    // the extension allocated itself dies with it.
    if (dbls_ != nullptr) std::fill(dbls_ + size_, dbls_ + end, 0.0);
  }
}

void DocValueColumn::Finish(std::size_t slots) {
  size_ = slots;
  const std::vector<std::uint32_t>& ranked = ranks().rank_to_ord;
  if (ranked.size() == dict_size_) return;
  // The strings added since the last version, sorted, then merged into the
  // previous rank order: each finds its place by binary search, so the cost
  // is the new strings' sort plus one pass of integer copies, not a re-sort
  // of the whole dictionary.
  const auto less = [this](std::uint32_t a, std::uint32_t b) {
    return values_[a] < values_[b];
  };
  std::vector<std::uint32_t> added(dict_size_ - ranked.size());
  std::iota(added.begin(), added.end(),
            static_cast<std::uint32_t>(ranked.size()));
  std::sort(added.begin(), added.end(), less);
  auto next = std::make_shared<StringRanks>();
  next->rank_to_ord.reserve(dict_size_);
  auto from = ranked.begin();
  for (const std::uint32_t ord : added) {
    const auto at = std::lower_bound(from, ranked.end(), ord, less);
    next->rank_to_ord.insert(next->rank_to_ord.end(), from, at);
    next->rank_to_ord.push_back(ord);
    from = at;
  }
  next->rank_to_ord.insert(next->rank_to_ord.end(), from, ranked.end());
  next->sorted_rank.resize(dict_size_);
  for (std::uint32_t rank = 0; rank < dict_size_; ++rank) {
    next->sorted_rank[next->rank_to_ord[rank]] = rank;
  }
  ranks_ = std::move(next);
}

// ---- ColumnSet --------------------------------------------------------------

DocValueColumn& ColumnSet::Column(std::string_view field) {
  auto it = columns_.find(field);
  if (it == columns_.end()) {
    it = columns_.emplace(std::string(field), DocValueColumn(capacity_)).first;
  }
  return it->second;
}

void ColumnSet::DecodeMember(DocValueColumn& col, std::size_t pos,
                             const Json& value) {
  switch (value.type()) {
    case Json::Type::kInt:
      col.Set(pos, ValueKind::kInt, value.as_int());
      break;
    case Json::Type::kDouble:
      col.SetDouble(pos, value.as_int(), value.as_double());
      break;
    case Json::Type::kString:
      col.Set(pos, ValueKind::kString, col.Intern(value.as_string()));
      break;
    case Json::Type::kBool:
      col.Set(pos, ValueKind::kBool, value.as_bool() ? 1 : 0);
      break;
    default:  // null / array / object: present, but only via JSON
      col.Set(pos, ValueKind::kOther, 0);
      break;
  }
}

void ColumnSet::AppendDoc(const Json& doc) {
  const std::size_t pos = BeginRow();
  if (!doc.is_object()) return;  // slot stays kMissing in every column
  for (const JsonMember& member : doc.as_object()) {
    DecodeMember(Column(member.first), pos, member.second);
  }
}

void ColumnSet::ReplaceRow(std::size_t pos, const Json& doc) {
  for (auto& [field, col] : columns_) {
    col.Set(pos, ValueKind::kMissing, 0);
  }
  if (!doc.is_object()) return;
  for (const JsonMember& member : doc.as_object()) {
    DecodeMember(Column(member.first), pos, member.second);
  }
}

void ColumnSet::FinishBatch() {
  for (auto& [field, col] : columns_) col.Finish(num_docs_);
}

ColumnSet ColumnSet::Extend() const {
  ColumnSet out;
  out.num_docs_ = num_docs_;
  out.capacity_ = capacity_;
  for (const auto& [field, col] : columns_) {
    out.columns_.emplace(field, DocValueColumn(col));
  }
  return out;
}

void ColumnSet::UndoExtension(const ColumnSet& ext) {
  for (auto& [field, col] : columns_) {
    // Extend() copies every column, and an extension only adds columns.
    col.UndoExtension(ext.columns_.find(field)->second, capacity_);
  }
}

std::size_t ColumnSet::Reserve(std::size_t rows, std::size_t limit) {
  assert(limit == 0 || rows <= limit);
  if (rows <= capacity_) return 0;
  std::size_t target = rows;
  if (capacity_ != 0) {
    target = std::max(rows, 2 * capacity_);
    if (limit != 0) {
      // Smallest level limit / 2^k that still holds the target.
      std::size_t level = limit;
      while (level / 2 >= target) level /= 2;
      target = std::max(level, rows);
    }
  }
  capacity_ = target;
  for (auto& [field, col] : columns_) col.Regrow(capacity_);
  return num_docs_;
}

ColumnSet ColumnSet::Trimmed(std::size_t* rows_copied) const {
  // Every column's slot buffer has the set's capacity.
  const bool regrow = capacity_ != num_docs_;
  *rows_copied = regrow ? num_docs_ : 0;
  ColumnSet out;
  out.num_docs_ = num_docs_;
  out.capacity_ = num_docs_;
  for (const auto& [field, col] : columns_) {
    DocValueColumn copy(col);
    copy.lookup_.reset();
    if (regrow) copy.Regrow(num_docs_);
    copy.TrimStrings();
    out.columns_.emplace(field, std::move(copy));
  }
  return out;
}

bool ColumnSet::exact() const {
  if (capacity_ != num_docs_) return false;
  for (const auto& [field, col] : columns_) {
    if (!col.exact()) return false;
  }
  return true;
}

void ColumnSet::DropLookups() {
  for (auto& [field, col] : columns_) col.lookup_.reset();
}

std::size_t ColumnSet::bytes() const {
  std::size_t total = 0;
  for (const auto& [field, col] : columns_) total += col.bytes();
  return total;
}

const DocValueColumn* ColumnSet::Find(std::string_view field) const {
  auto it = columns_.find(field);
  return it == columns_.end() ? nullptr : &it->second;
}

// ---- FilterBitmap -----------------------------------------------------------

FilterBitmap::FilterBitmap(std::size_t bits, bool value)
    : bits_(bits), words_((bits + 63) / 64, value ? ~0ULL : 0ULL) {
  if (value && bits_ % 64 != 0 && !words_.empty()) {
    words_.back() = (1ULL << (bits_ % 64)) - 1;
  }
}

void FilterBitmap::AndWith(const FilterBitmap& other) {
  if (simd::Enabled()) {
    simd::AndWords(words_.data(), other.words_.data(), words_.size());
    return;
  }
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
}

void FilterBitmap::OrWith(const FilterBitmap& other) {
  if (simd::Enabled()) {
    simd::OrWords(words_.data(), other.words_.data(), words_.size());
    return;
  }
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
}

void FilterBitmap::Negate() {
  if (simd::Enabled()) {
    simd::NotWords(words_.data(), words_.size());
  } else {
    for (std::uint64_t& word : words_) word = ~word;
  }
  if (bits_ % 64 != 0 && !words_.empty()) {
    words_.back() &= (1ULL << (bits_ % 64)) - 1;
  }
}

std::size_t FilterBitmap::CountSet() const {
  std::size_t count = 0;
  for (const std::uint64_t word : words_) {
    count += static_cast<std::size_t>(std::popcount(word));
  }
  return count;
}

// ---- FilterBitmapCache ------------------------------------------------------

std::shared_ptr<const FilterBitmap> FilterBitmapCache::Lookup(
    const std::string& key) const {
  std::scoped_lock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  it->second.last_used = ++tick_;
  return it->second.bitmap;
}

void FilterBitmapCache::Insert(const std::string& key, FilterBitmap bitmap) {
  if (capacity_ == 0) return;
  std::scoped_lock lock(mu_);
  if (entries_.size() >= capacity_ && entries_.find(key) == entries_.end()) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    entries_.erase(victim);
    ++evictions_;
  }
  entries_[key] =
      Entry{std::make_shared<const FilterBitmap>(std::move(bitmap)), ++tick_};
}

void FilterBitmapCache::Clear() {
  std::scoped_lock lock(mu_);
  entries_.clear();
}

void FilterBitmapCache::CarryCountersFrom(const FilterBitmapCache& other) {
  std::scoped_lock lock(mu_, other.mu_);
  hits_ += other.hits_;
  misses_ += other.misses_;
  evictions_ += other.evictions_;
}

std::uint64_t FilterBitmapCache::hits() const {
  std::scoped_lock lock(mu_);
  return hits_;
}

std::uint64_t FilterBitmapCache::misses() const {
  std::scoped_lock lock(mu_);
  return misses_;
}

std::uint64_t FilterBitmapCache::evictions() const {
  std::scoped_lock lock(mu_);
  return evictions_;
}

// ---- CompiledQuery ----------------------------------------------------------

CompiledQuery::CompiledQuery(const Query& query, const ColumnSet& columns)
    : root_(Compile(query, columns)) {}

CompiledQuery::Node CompiledQuery::Compile(const Query& query,
                                           const ColumnSet& columns) {
  Node node;
  node.query = &query;
  switch (query.type()) {
    case Query::Type::kTerm:
    case Query::Type::kTerms: {
      node.col = columns.Find(query.field());
      node.values.reserve(query.values().size());
      for (const Json& value : query.values()) {
        TermValue tv;
        tv.raw = &value;
        switch (value.type()) {
          case Json::Type::kInt:
            tv.kind = ValueKind::kInt;
            tv.i = value.as_int();
            tv.d = value.as_double();
            break;
          case Json::Type::kDouble:
            tv.kind = ValueKind::kDouble;
            tv.d = value.as_double();
            break;
          case Json::Type::kString:
            tv.kind = ValueKind::kString;
            if (node.col != nullptr) {
              if (auto ord = node.col->Ordinal(value.as_string())) {
                tv.ord = *ord;
                tv.ord_resolved = true;
              }
            }
            break;
          case Json::Type::kBool:
            tv.kind = ValueKind::kBool;
            tv.i = value.as_bool() ? 1 : 0;
            break;
          default:
            tv.kind = ValueKind::kOther;
            break;
        }
        node.values.push_back(tv);
      }
      break;
    }
    case Query::Type::kRange:
    case Query::Type::kExists:
      node.col = columns.Find(query.field());
      break;
    case Query::Type::kPrefix:
      node.col = columns.Find(query.field());
      if (node.col != nullptr) {
        node.col->PrefixRankRange(query.prefix(), &node.prefix_lo,
                                  &node.prefix_hi);
      }
      break;
    case Query::Type::kAnd:
    case Query::Type::kOr:
    case Query::Type::kNot:
      node.children.reserve(query.clauses().size());
      for (const Query& clause : query.clauses()) {
        node.children.push_back(Compile(clause, columns));
      }
      break;
    case Query::Type::kMatchAll:
      break;
  }
  return node;
}

bool CompiledQuery::MatchesNode(const Node& node, std::size_t pos,
                                std::span<const Json> docs) {
  const Query& query = *node.query;
  switch (query.type()) {
    case Query::Type::kMatchAll:
      return true;
    case Query::Type::kTerm:
    case Query::Type::kTerms: {
      if (node.col == nullptr) return false;
      const ValueKind kind = node.col->kind(pos);
      if (kind == ValueKind::kMissing) return false;
      if (kind == ValueKind::kOther) {
        // Non-scalar value, which only a JSON row has: defer to Json
        // equality, as Query::Matches does.
        const Json* value =
            pos < docs.size() ? docs[pos].Find(query.field()) : nullptr;
        if (value == nullptr) return false;
        for (const TermValue& tv : node.values) {
          if (*value == *tv.raw) return true;
        }
        return false;
      }
      for (const TermValue& tv : node.values) {
        switch (kind) {
          case ValueKind::kInt:
            // Same-type int terms compare exactly; int-vs-double compares
            // numerically — both exactly as Json::operator==.
            if (tv.kind == ValueKind::kInt
                    ? node.col->ints()[pos] == tv.i
                    : (tv.kind == ValueKind::kDouble &&
                       node.col->dbl(pos) == tv.d)) {
              return true;
            }
            break;
          case ValueKind::kDouble:
            if ((tv.kind == ValueKind::kInt ||
                 tv.kind == ValueKind::kDouble) &&
                node.col->dbl(pos) == tv.d) {
              return true;
            }
            break;
          case ValueKind::kString:
            if (tv.kind == ValueKind::kString && tv.ord_resolved &&
                node.col->ints()[pos] ==
                    static_cast<std::int64_t>(tv.ord)) {
              return true;
            }
            break;
          case ValueKind::kBool:
            if (tv.kind == ValueKind::kBool && node.col->ints()[pos] == tv.i) {
              return true;
            }
            break;
          default:
            break;
        }
      }
      return false;
    }
    case Query::Type::kRange: {
      if (node.col == nullptr || !node.col->is_number(pos)) return false;
      const std::int64_t v = node.col->ints()[pos];
      if (query.gte().has_value() && v < *query.gte()) return false;
      if (query.lte().has_value() && v > *query.lte()) return false;
      return true;
    }
    case Query::Type::kPrefix: {
      if (node.col == nullptr ||
          node.col->kind(pos) != ValueKind::kString) {
        return false;
      }
      const auto ord = static_cast<std::size_t>(node.col->ints()[pos]);
      const std::uint32_t rank = node.col->sorted_rank()[ord];
      return rank >= node.prefix_lo && rank < node.prefix_hi;
    }
    case Query::Type::kExists:
      return node.col != nullptr &&
             node.col->kind(pos) != ValueKind::kMissing;
    case Query::Type::kAnd:
      for (const Node& child : node.children) {
        if (!MatchesNode(child, pos, docs)) return false;
      }
      return true;
    case Query::Type::kOr:
      for (const Node& child : node.children) {
        if (MatchesNode(child, pos, docs)) return true;
      }
      return node.children.empty();
    case Query::Type::kNot:
      return !MatchesNode(node.children.front(), pos, docs);
  }
  return false;
}

FilterBitmap CompiledQuery::Eval(std::size_t rows, std::span<const Json> docs,
                                 FilterBitmapCache* cache) const {
  return EvalNode(root_, rows, docs, cache);
}

FilterBitmap CompiledQuery::EvalNode(const Node& node, std::size_t n,
                                     std::span<const Json> docs,
                                     FilterBitmapCache* cache) {
  switch (node.query->type()) {
    case Query::Type::kMatchAll:
      return FilterBitmap(n, true);
    case Query::Type::kAnd: {
      FilterBitmap out(n, true);
      for (const Node& child : node.children) {
        out.AndWith(EvalNode(child, n, docs, cache));
      }
      return out;
    }
    case Query::Type::kOr: {
      // An empty bool.should matches everything, mirroring Query::Matches.
      if (node.children.empty()) return FilterBitmap(n, true);
      FilterBitmap out(n, false);
      for (const Node& child : node.children) {
        out.OrWith(EvalNode(child, n, docs, cache));
      }
      return out;
    }
    case Query::Type::kNot: {
      FilterBitmap out = EvalNode(node.children.front(), n, docs, cache);
      out.Negate();
      return out;
    }
    default: {
      // Leaf predicate: serve from the shard's bitmap cache when possible.
      std::string key;
      if (cache != nullptr) {
        key = node.query->ToString();
        if (auto hit = cache->Lookup(key)) return *hit;
      }
      FilterBitmap out(n, false);
      if (!EvalLeafKernel(node, n, &out)) {
        for (std::size_t pos = 0; pos < n; ++pos) {
          if (MatchesNode(node, pos, docs)) out.Set(pos);
        }
      }
      if (cache != nullptr) cache->Insert(key, out);
      return out;
    }
  }
}

bool CompiledQuery::EvalLeafKernel(const Node& node, std::size_t n,
                                   FilterBitmap* out) {
  if (n == 0) return true;  // nothing to fill either way
  if (!simd::Enabled()) return false;
  const DocValueColumn* col = node.col;
  switch (node.query->type()) {
    case Query::Type::kRange: {
      // A missing column matches nothing: `out` is already all-zero.
      if (col == nullptr) return true;
      if (col->size() < n) return false;
      const std::int64_t lo =
          node.query->gte().value_or(std::numeric_limits<std::int64_t>::min());
      const std::int64_t hi =
          node.query->lte().value_or(std::numeric_limits<std::int64_t>::max());
      simd::RangeMaskInt64(col->ints().data(), col->kinds().data(), n, lo, hi,
                           out->words().data());
      return true;
    }
    case Query::Type::kExists: {
      if (col == nullptr) return true;
      if (col->size() < n) return false;
      simd::NonMissingMask(col->kinds().data(), n, out->words().data());
      return true;
    }
    case Query::Type::kTerm:
    case Query::Type::kTerms: {
      if (col == nullptr) return true;
      if (col->size() < n) return false;
      // Only string and bool term lists vectorize: both compare a single
      // int64 cell under a single kind byte, and neither can equal a kOther
      // slot under Json equality (null/array/object never equals a string
      // or bool), so skipping the per-row doc fallback is exact. Numeric
      // terms keep the scalar loop (int-vs-double cross-type equality reads
      // two arrays).
      for (const TermValue& tv : node.values) {
        if (tv.kind != ValueKind::kString && tv.kind != ValueKind::kBool) {
          return false;
        }
      }
      for (const TermValue& tv : node.values) {
        if (tv.kind == ValueKind::kString) {
          if (!tv.ord_resolved) continue;  // not in this dict: matches nothing
          simd::EqMaskInt64(col->ints().data(), col->kinds().data(), n,
                            static_cast<std::uint8_t>(ValueKind::kString),
                            static_cast<std::int64_t>(tv.ord),
                            out->words().data());
        } else {
          simd::EqMaskInt64(col->ints().data(), col->kinds().data(), n,
                            static_cast<std::uint8_t>(ValueKind::kBool), tv.i,
                            out->words().data());
        }
      }
      return true;
    }
    default:
      return false;  // kPrefix (rank lookup) stays scalar
  }
}

}  // namespace dio::backend
