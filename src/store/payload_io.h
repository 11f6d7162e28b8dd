#ifndef SWEETKNN_STORE_PAYLOAD_IO_H_
#define SWEETKNN_STORE_PAYLOAD_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/status.h"

namespace sweetknn::store {

// --- Little payload codec ---------------------------------------------------
// Fixed-width scalars via memcpy of the native representation (the file
// header's endianness guard rejects foreign-endian files up front),
// strings and arrays length-prefixed with u64 element counts. Shared by
// the .sksnap section payloads (store/snapshot.cc) and the cluster wire
// protocol (src/net/), which deliberately speaks the same dialect.

class PayloadWriter {
 public:
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }
  void PutString(const std::string& s) {
    PutU64(s.size());
    PutRaw(s.data(), s.size());
  }
  void PutFloats(const float* data, size_t count) {
    PutU64(count);
    PutRaw(data, count * sizeof(float));
  }
  void PutU32s(const uint32_t* data, size_t count) {
    PutU64(count);
    PutRaw(data, count * sizeof(uint32_t));
  }
  void PutMatrix(const HostMatrix& m) {
    PutU64(m.rows());
    PutU64(m.cols());
    PutRaw(m.data(), m.size() * sizeof(float));
  }

  std::string Take() { return std::move(buffer_); }

 private:
  void PutRaw(const void* data, size_t len) {
    buffer_.append(static_cast<const char*>(data), len);
  }
  std::string buffer_;
};

/// Bounds-checked decoder: every read validates the remaining byte count
/// first, so a corrupted length field yields a Status instead of an
/// overread or a multi-gigabyte allocation.
class PayloadReader {
 public:
  PayloadReader(const std::string& payload, std::string what)
      : data_(payload), what_(std::move(what)) {}

  Status GetU32(uint32_t* out) { return GetRaw(out, sizeof(*out), "u32"); }
  Status GetU64(uint64_t* out) { return GetRaw(out, sizeof(*out), "u64"); }
  Status GetDouble(double* out) {
    return GetRaw(out, sizeof(*out), "double");
  }

  Status GetString(std::string* out) {
    uint64_t len = 0;
    SK_RETURN_IF_ERROR(GetU64(&len));
    SK_RETURN_IF_ERROR(CheckRemaining(len, "string"));
    out->assign(data_.data() + cursor_, len);
    cursor_ += len;
    return Status::Ok();
  }

  Status GetFloats(std::vector<float>* out) {
    uint64_t count = 0;
    SK_RETURN_IF_ERROR(GetU64(&count));
    // Divide instead of multiplying: count * sizeof(float) can wrap u64
    // for a corrupted count, sneaking past the byte check into a
    // throwing (or absurd) allocation.
    if (count > remaining() / sizeof(float)) {
      return Truncated("float array");
    }
    out->resize(count);
    CopyOut(out->data(), count * sizeof(float));
    return Status::Ok();
  }

  Status GetU32s(std::vector<uint32_t>* out) {
    uint64_t count = 0;
    SK_RETURN_IF_ERROR(GetU64(&count));
    if (count > remaining() / sizeof(uint32_t)) {
      return Truncated("u32 array");
    }
    out->resize(count);
    CopyOut(out->data(), count * sizeof(uint32_t));
    return Status::Ok();
  }

  Status GetMatrix(HostMatrix* out) {
    uint64_t rows = 0;
    uint64_t cols = 0;
    SK_RETURN_IF_ERROR(GetU64(&rows));
    SK_RETURN_IF_ERROR(GetU64(&cols));
    // Divide, never multiply: a corrupted dimension can wrap
    // rows * cols * sizeof(float) past the byte check below into a
    // throwing allocation. A zero-row matrix (any cols) is legal and
    // carries no bytes.
    const uint64_t max_elems = remaining() / sizeof(float);
    if (rows != 0 && cols > max_elems / rows) {
      return Truncated("matrix data");
    }
    SK_RETURN_IF_ERROR(CheckRemaining(rows * cols * sizeof(float), "matrix"));
    *out = HostMatrix(rows, cols);
    CopyOut(out->mutable_data(), rows * cols * sizeof(float));
    return Status::Ok();
  }

  Status ExpectExhausted() const {
    if (cursor_ != data_.size()) {
      return Status::IoError(what_ + ": " +
                             std::to_string(data_.size() - cursor_) +
                             " trailing bytes after the last field");
    }
    return Status::Ok();
  }

 private:
  size_t remaining() const { return data_.size() - cursor_; }

  Status Truncated(const char* kind) const {
    return Status::IoError(what_ + ": truncated " + kind + " at offset " +
                           std::to_string(cursor_));
  }

  Status CheckRemaining(uint64_t need, const char* kind) const {
    if (need > remaining()) return Truncated(kind);
    return Status::Ok();
  }

  Status GetRaw(void* out, size_t len, const char* kind) {
    SK_RETURN_IF_ERROR(CheckRemaining(len, kind));
    CopyOut(out, len);
    return Status::Ok();
  }

  // Consumes `len` already-checked bytes into `out`. An empty array's
  // data() may be null, and memcpy wants non-null pointers even for zero
  // bytes, so empty copies are skipped.
  void CopyOut(void* out, size_t len) {
    if (len != 0) std::memcpy(out, data_.data() + cursor_, len);
    cursor_ += len;
  }

  const std::string& data_;
  std::string what_;
  size_t cursor_ = 0;
};

}  // namespace sweetknn::store

#endif  // SWEETKNN_STORE_PAYLOAD_IO_H_
