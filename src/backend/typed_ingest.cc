#include "backend/typed_ingest.h"

namespace dio::backend {

namespace {

// Indices into WireDocFields() / WireColumnAppender::cols_.
enum Field : std::size_t {
  kSession = 0,
  kSyscall,
  kCategory,
  kPid,
  kTid,
  kComm,
  kProcName,
  kTimeEnter,
  kTimeExit,
  kDurationNs,
  kRet,
  kCpu,
  kFd,
  kPath,
  kPath2,
  kXattrName,
  kCount,
  kArgOffset,
  kWhence,
  kFlags,
  kMode,
  kFileType,
  kFileOffset,
  kFileTag,
  kTagDev,
  kTagIno,
  kTagTs,
  kNumFields,
};

}  // namespace

const std::vector<std::string>& WireDocFields() {
  static const std::vector<std::string> kFields = {
      "session",    "syscall",     "category",  "pid",        "tid",
      "comm",       "proc_name",   "time_enter", "time_exit", "duration_ns",
      "ret",        "cpu",         "fd",        "path",       "path2",
      "xattr_name", "count",       "arg_offset", "whence",    "flags",
      "mode",       "file_type",   "file_offset", "file_tag", "tag_dev",
      "tag_ino",    "tag_ts"};
  return kFields;
}

WireColumnAppender::WireColumnAppender(ColumnSet* columns)
    : columns_(columns), cols_(kNumFields, nullptr) {}

DocValueColumn* WireColumnAppender::Col(std::size_t field) {
  DocValueColumn*& col = cols_[field];
  // First write of this field to this ColumnSet: the column is created (or
  // found, on an extended tail) now, and its earlier slots read kMissing.
  if (col == nullptr) col = &columns_->TypedColumn(WireDocFields()[field]);
  return col;
}

void WireColumnAppender::SetInt(std::size_t field, std::size_t pos,
                                std::int64_t v) {
  Col(field)->Set(pos, ValueKind::kInt, v);
}

void WireColumnAppender::SetString(std::size_t field, std::size_t pos,
                                   std::string_view s) {
  DocValueColumn* col = Col(field);
  scratch_.assign(s.data(), s.size());
  col->Set(pos, ValueKind::kString, col->Intern(scratch_));
}

std::size_t WireColumnAppender::Append(const tracer::WireEvent& raw,
                                       std::string_view session) {
  const std::size_t pos = columns_->BeginTypedRow();
  const auto nr = static_cast<os::SyscallNr>(raw.nr);
  const os::SyscallDescriptor& desc = os::Describe(nr);

  // Unconditional fields — present in every wire document.
  SetString(kSession, pos, session);
  SetString(kSyscall, pos, desc.name);
  SetString(kCategory, pos, os::CategoryName(desc.category));
  SetInt(kPid, pos, raw.pid);
  SetInt(kTid, pos, raw.tid);
  SetString(kComm, pos, {raw.comm, raw.comm_len});
  SetString(kProcName, pos, {raw.proc_name, raw.proc_name_len});
  SetInt(kTimeEnter, pos, raw.time_enter);
  SetInt(kTimeExit, pos, raw.time_exit);
  SetInt(kDurationNs, pos, raw.time_exit - raw.time_enter);
  SetInt(kRet, pos, raw.ret);
  SetInt(kCpu, pos, raw.cpu);

  // Conditional fields — the exact WireEventToJson presence rules; a field
  // not written here stays kMissing, matching a document without the member.
  if (raw.fd >= 0 && desc.takes_fd) SetInt(kFd, pos, raw.fd);
  if (raw.path_len > 0) SetString(kPath, pos, {raw.path, raw.path_len});
  if (raw.path2_len > 0) {
    SetString(kPath2, pos, {raw.path2, raw.path2_len});
  }
  if (raw.xattr_len > 0) {
    SetString(kXattrName, pos, {raw.xattr_name, raw.xattr_len});
  }
  if (desc.data_related || raw.count > 0) {
    SetInt(kCount, pos, static_cast<std::int64_t>(raw.count));
  }
  if (raw.arg_offset >= 0) SetInt(kArgOffset, pos, raw.arg_offset);
  if (raw.whence >= 0) SetInt(kWhence, pos, raw.whence);
  if (raw.flags != 0) SetInt(kFlags, pos, raw.flags);
  if (raw.mode != 0) SetInt(kMode, pos, raw.mode);
  if (raw.file_type != static_cast<std::uint8_t>(os::FileType::kUnknown)) {
    SetString(kFileType, pos,
              os::FileTypeName(static_cast<os::FileType>(raw.file_type)));
  }
  if (raw.file_offset >= 0) SetInt(kFileOffset, pos, raw.file_offset);
  if (raw.tag_valid != 0) {
    tracer::FileTag tag;
    tag.valid = true;
    tag.dev = raw.tag_dev;
    tag.ino = raw.tag_ino;
    tag.first_access_ts = raw.tag_ts;
    SetString(kFileTag, pos, tag.ToKey());
    SetInt(kTagDev, pos, static_cast<std::int64_t>(raw.tag_dev));
    SetInt(kTagIno, pos, static_cast<std::int64_t>(raw.tag_ino));
    SetInt(kTagTs, pos, raw.tag_ts);
  }
  return pos;
}

Json MaterializeWireDoc(const ColumnSet& columns, std::size_t pos) {
  Json doc = Json::MakeObject();
  for (const std::string& field : WireDocFields()) {
    const DocValueColumn* col = columns.Find(field);
    if (col == nullptr || col->size() <= pos) continue;
    switch (col->kind(pos)) {
      case ValueKind::kInt:
        doc.Set(field, col->ints()[pos]);
        break;
      case ValueKind::kString:
        doc.Set(field, std::string(col->str(pos)));
        break;
      case ValueKind::kDouble:
        doc.Set(field, col->dbl(pos));
        break;
      case ValueKind::kBool:
        doc.Set(field, col->ints()[pos] != 0);
        break;
      case ValueKind::kMissing:
      case ValueKind::kOther:  // never written by the typed appender
        break;
    }
  }
  return doc;
}

}  // namespace dio::backend
