#include "exec/spill.h"

#include <cstring>
#include <string_view>

#include "obs/trace.h"

namespace hdb::exec {

namespace {
// Type tags for the schema-free codec.
enum Tag : uint8_t {
  kTagNull = 0,
  kTagBool,
  kTagInt,
  kTagBigint,
  kTagDouble,
  kTagString,
  kTagDate,
  kTagTimestamp,
};
}  // namespace

std::string EncodeValues(const std::vector<Value>& values) {
  std::string out;
  EncodeValuesTo(values, &out);
  return out;
}

void EncodeValuesTo(const std::vector<Value>& values, std::string* out) {
  out->clear();
  AppendEncodedValues(values.data(), values.size(), out);
}

void AppendEncodedValues(const Value* values, size_t n, std::string* out_ptr) {
  std::string& out = *out_ptr;
  const auto count = static_cast<uint16_t>(n);
  out.append(reinterpret_cast<const char*>(&count), 2);
  for (size_t i = 0; i < n; ++i) {
    const Value& v = values[i];
    if (v.is_null()) {
      out.push_back(static_cast<char>(kTagNull));
      continue;
    }
    switch (v.type()) {
      case TypeId::kBoolean:
        out.push_back(static_cast<char>(kTagBool));
        out.push_back(v.AsBool() ? 1 : 0);
        break;
      case TypeId::kInt:
      case TypeId::kBigint:
      case TypeId::kDate:
      case TypeId::kTimestamp: {
        const Tag tag = v.type() == TypeId::kInt        ? kTagInt
                        : v.type() == TypeId::kBigint   ? kTagBigint
                        : v.type() == TypeId::kDate     ? kTagDate
                                                        : kTagTimestamp;
        out.push_back(static_cast<char>(tag));
        const int64_t x = v.AsInt();
        out.append(reinterpret_cast<const char*>(&x), 8);
        break;
      }
      case TypeId::kDouble: {
        out.push_back(static_cast<char>(kTagDouble));
        const double d = v.AsDouble();
        out.append(reinterpret_cast<const char*>(&d), 8);
        break;
      }
      case TypeId::kVarchar: {
        out.push_back(static_cast<char>(kTagString));
        const auto len = static_cast<uint32_t>(v.AsString().size());
        out.append(reinterpret_cast<const char*>(&len), 4);
        out.append(v.AsString());
        break;
      }
    }
  }
}

size_t EncodedValuesBytes(const Value* values, size_t n) {
  size_t bytes = 2;
  for (size_t i = 0; i < n; ++i) {
    const Value& v = values[i];
    if (v.is_null()) {
      bytes += 1;
    } else if (v.type() == TypeId::kBoolean) {
      bytes += 2;
    } else if (v.type() == TypeId::kVarchar) {
      bytes += 5 + v.AsString().size();
    } else {
      bytes += 9;
    }
  }
  return bytes;
}

Result<std::vector<Value>> DecodeValues(const char* data, size_t len,
                                        size_t* consumed) {
  std::vector<Value> out;
  HDB_RETURN_IF_ERROR(DecodeValuesInto(data, len, consumed, &out));
  return out;
}

Status DecodeValuesInto(const char* data, size_t len, size_t* consumed,
                        std::vector<Value>* out_ptr) {
  if (len < 2) return Status::Internal("spill tuple underflow");
  uint16_t n = 0;
  std::memcpy(&n, data, 2);
  size_t pos = 2;
  std::vector<Value>& out = *out_ptr;
  out.resize(n);
  for (uint16_t i = 0; i < n; ++i) {
    if (pos >= len) return Status::Internal("spill tuple underflow");
    const Tag tag = static_cast<Tag>(data[pos++]);
    Value& v = out[i];
    switch (tag) {
      case kTagNull:
        v.SetNull(TypeId::kInt);
        break;
      case kTagBool:
        if (pos + 1 > len) return Status::Internal("spill underflow");
        v.SetBoolean(data[pos] != 0);
        pos += 1;
        break;
      case kTagInt:
      case kTagBigint:
      case kTagDate:
      case kTagTimestamp: {
        if (pos + 8 > len) return Status::Internal("spill underflow");
        int64_t x = 0;
        std::memcpy(&x, data + pos, 8);
        pos += 8;
        switch (tag) {
          case kTagInt:
            v.SetInt64(TypeId::kInt, static_cast<int32_t>(x));
            break;
          case kTagBigint: v.SetInt64(TypeId::kBigint, x); break;
          case kTagDate: v.SetInt64(TypeId::kDate, x); break;
          default: v.SetInt64(TypeId::kTimestamp, x); break;
        }
        break;
      }
      case kTagDouble: {
        if (pos + 8 > len) return Status::Internal("spill underflow");
        double d = 0;
        std::memcpy(&d, data + pos, 8);
        pos += 8;
        v.SetDouble(d);
        break;
      }
      case kTagString: {
        if (pos + 4 > len) return Status::Internal("spill underflow");
        uint32_t slen = 0;
        std::memcpy(&slen, data + pos, 4);
        pos += 4;
        if (pos + slen > len) return Status::Internal("spill underflow");
        v.SetString(std::string_view(data + pos, slen));
        pos += slen;
        break;
      }
      default:
        return Status::Internal("bad spill tag");
    }
  }
  *consumed = pos;
  return Status::OK();
}

SpillFile::SpillFile(storage::BufferPool* pool) : pool_(pool) {}

SpillFile::~SpillFile() { Clear(); }

void SpillFile::Clear() {
  for (const storage::PageId id : pages_) {
    pool_->DiscardPage(
        storage::SpacePageId{storage::SpaceId::kTemp, id});
  }
  pages_.clear();
  used_.clear();
  staged_.clear();
  tuples_ = 0;
  bytes_ = 0;
}

Status SpillFile::Append(const std::vector<Value>& tuple) {
  EncodeValuesTo(tuple, &record_);
  // Record: [u32 len][payload], never spanning pages.
  const uint32_t need = 4 + static_cast<uint32_t>(record_.size());
  const uint32_t capacity = pool_->page_bytes();
  if (need > capacity) {
    return Status::InvalidArgument("spilled tuple larger than a page");
  }
  if (staged_.size() + need > capacity) HDB_RETURN_IF_ERROR(FlushStaged());
  if (staged_.capacity() < capacity) staged_.reserve(capacity);
  const auto len = static_cast<uint32_t>(record_.size());
  staged_.append(reinterpret_cast<const char*>(&len), 4);
  staged_.append(record_);
  ++tuples_;
  bytes_ += need;
  if (obs::StatementTrace* trace = obs::CurrentStatementTrace()) {
    trace->AddSpilledBytes(need);
  }
  return Status::OK();
}

Status SpillFile::FlushStaged() {
  // Accumulate-only wait attribution, one sample per page: the
  // forced-spill *decision* gets its span in the memory governor; here we
  // charge the page's I/O time.
  obs::StatementTrace* trace = obs::CurrentStatementTrace();
  const uint64_t t0 = trace != nullptr ? obs::TraceNowMicros() : 0;
  storage::PageId id = storage::kInvalidPageId;
  HDB_ASSIGN_OR_RETURN(
      storage::PageHandle h,
      pool_->NewPage(storage::SpaceId::kTemp, storage::PageType::kTempTable,
                     /*owner=*/0, &id));
  std::memcpy(h.data(), staged_.data(), staged_.size());
  h.MarkDirty();
  pages_.push_back(id);
  used_.push_back(static_cast<uint32_t>(staged_.size()));
  if (trace != nullptr) {
    trace->AccumulateWait(obs::WaitCause::kSpillWrite,
                          obs::TraceNowMicros() - t0);
  }
  staged_.clear();
  return Status::OK();
}

Status SpillFile::Reader::LoadPage() {
  obs::StatementTrace* trace = obs::CurrentStatementTrace();
  const uint64_t t0 = trace != nullptr ? obs::TraceNowMicros() : 0;
  HDB_ASSIGN_OR_RETURN(
      storage::PageHandle h,
      file_->pool_->FetchPage(
          storage::SpacePageId{storage::SpaceId::kTemp,
                               file_->pages_[page_index_]},
          storage::PageType::kTempTable, /*owner=*/0));
  page_.assign(h.data(), file_->used_[page_index_]);
  loaded_ = true;
  if (trace != nullptr) {
    trace->AccumulateWait(obs::WaitCause::kSpillRead,
                          obs::TraceNowMicros() - t0);
  }
  return Status::OK();
}

Result<bool> SpillFile::Reader::Next(std::vector<Value>* tuple) {
  for (;;) {
    if (page_index_ == file_->pages_.size()) {
      if (file_->staged_.empty()) return false;
      // The reader reached the staged tail: it goes to the pool now, and
      // is read back like every other page.
      HDB_RETURN_IF_ERROR(file_->FlushStaged());
    }
    if (!loaded_) HDB_RETURN_IF_ERROR(LoadPage());
    if (offset_ + 4 > page_.size()) {
      ++page_index_;
      offset_ = 0;
      loaded_ = false;
      continue;
    }
    uint32_t len = 0;
    std::memcpy(&len, page_.data() + offset_, 4);
    if (offset_ + 4 + len > page_.size()) {
      return Status::Internal("spill record overruns its page");
    }
    size_t consumed = 0;
    HDB_RETURN_IF_ERROR(
        DecodeValuesInto(page_.data() + offset_ + 4, len, &consumed, tuple));
    offset_ += 4 + len;
    return true;
  }
}

SpillMergeReader::SpillMergeReader(std::vector<SpillFile*> runs,
                                   Comparator cmp)
    : runs_(std::move(runs)), cmp_(std::move(cmp)) {}

Status SpillMergeReader::Init() {
  cursors_.clear();
  cursors_.reserve(runs_.size());
  for (SpillFile* run : runs_) {
    Cursor c{run->Read(), {}, false};
    HDB_ASSIGN_OR_RETURN(const bool more, c.reader.Next(&c.row));
    c.done = !more;
    cursors_.push_back(std::move(c));
  }
  return Status::OK();
}

Result<bool> SpillMergeReader::Next(std::vector<Value>* tuple) {
  // Linear scan beats a heap here: run counts are small (one per spill
  // pass) and the comparator dominates either way. Strict `<` keeps the
  // earliest run first on ties.
  int best = -1;
  for (size_t i = 0; i < cursors_.size(); ++i) {
    if (cursors_[i].done) continue;
    if (best < 0 || cmp_(cursors_[i].row, cursors_[best].row) < 0) {
      best = static_cast<int>(i);
    }
  }
  if (best < 0) return false;
  // Swap rather than move: the cursor decodes its next row into the
  // caller's previous buffer, reusing its capacity.
  tuple->swap(cursors_[best].row);
  HDB_ASSIGN_OR_RETURN(const bool more,
                       cursors_[best].reader.Next(&cursors_[best].row));
  cursors_[best].done = !more;
  return true;
}

}  // namespace hdb::exec
