// Typed bulk ingest: WireEvent -> doc-value columns, no JSON middleman.
//
// The JSON route builds one Json tree per event (Event::ToJson), ships it
// through the pipeline, parses it back into columns at Refresh, and keeps
// the tree alive as the row store. The typed route cuts all of that out:
// the tracer ships raw WireEvent records, and at Refresh a
// WireColumnAppender writes each field straight into the sub-shard's
// DocValueColumn cells — one dictionary intern or int64 store per field,
// zero allocations per event on the common path.
//
// The contract that makes this safe is *field-for-field equivalence with
// Event::ToJson*: the appender replicates its presence conditions (fd only
// when the syscall takes one, flags only when non-zero, ...) and value
// encodings exactly, so MaterializeWireDoc() can rebuild the byte-identical
// JSON document from the columns whenever a row-oriented view is needed
// (search hits, spool/save, update-by-query). Every wire-document field is a
// scalar, so the columns are a lossless encoding of the document. The
// parity suites feed WireEventToJson of the same records to a reference
// model (tests/support/) and compare every answer byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "backend/doc_values.h"
#include "common/json.h"
#include "tracer/event.h"

namespace dio::backend {

// The wire-document fields, in Event::ToJson insertion order. This is the
// member order of every document either ingest route produces; materializing
// a typed row walks it so rebuilt documents serialize byte-identically.
const std::vector<std::string>& WireDocFields();

// Appends typed rows to one sub-shard's ColumnSet. A column is created on
// its field's first non-missing write, as AppendDoc does, so a set holds
// only the fields its rows have (a walfsync block never gets `whence` or
// `xattr_name`). Column pointers are cached once resolved (std::map nodes
// don't move), so Append is pure array stores plus dictionary interning —
// call FinishBatch on the ColumnSet afterwards, as with AppendDoc; it pads
// a late column's earlier slots to kMissing.
class WireColumnAppender {
 public:
  explicit WireColumnAppender(ColumnSet* columns);

  // Claims the next slot and writes the record's fields. Mirrors
  // tracer::WireEventToJson field for field; returns the slot position.
  std::size_t Append(const tracer::WireEvent& raw, std::string_view session);

 private:
  // The column of WireDocFields()[field], created on first use.
  DocValueColumn* Col(std::size_t field);
  void SetInt(std::size_t field, std::size_t pos, std::int64_t v);
  void SetString(std::size_t field, std::size_t pos, std::string_view s);

  ColumnSet* columns_;
  // One cached column per canonical field, in WireDocFields() order; null
  // until the field's first write.
  std::vector<DocValueColumn*> cols_;
  std::string scratch_;  // dictionary-lookup key buffer (reused, no allocs)
};

// Rebuilds the JSON document of a typed row from the columns. For rows
// written by WireColumnAppender the result is byte-identical to the
// WireEventToJson document the JSON route would have indexed.
Json MaterializeWireDoc(const ColumnSet& columns, std::size_t pos);

}  // namespace dio::backend
