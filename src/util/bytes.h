// Little-endian byte buffer reader/writer.
//
// Used by the ELF reader/writer, the x86-64 encoder, and the database
// serializer. All multi-byte integers are little-endian (ELF64 x86-64 and our
// on-disk formats share that convention).

#ifndef LAPIS_SRC_UTIL_BYTES_H_
#define LAPIS_SRC_UTIL_BYTES_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/util/status.h"

namespace lapis {

// Stores `v` little-endian at `dst`, which needs no alignment: one store on
// a little-endian host.
template <typename T>
inline void StoreLittleEndian(uint8_t* dst, T v) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst, &v, sizeof(T));
  } else {
    for (size_t i = 0; i < sizeof(T); ++i) {
      dst[i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }
}

// Append-only little-endian byte sink.
class ByteWriter {
 public:
  ByteWriter() = default;

  void PutU8(uint8_t v) { bytes_.push_back(v); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI32(int32_t v) { PutU32(static_cast<uint32_t>(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutBytes(std::span<const uint8_t> data);
  void PutString(std::string_view s);        // raw bytes, no terminator
  void PutCString(std::string_view s);       // bytes + NUL
  void PutLengthPrefixedString(std::string_view s);  // u32 length + bytes

  // Pad with zero bytes until size() % alignment == 0.
  void AlignTo(size_t alignment);

  // Overwrite previously-written bytes (for back-patching offsets).
  void PatchU32(size_t offset, uint32_t v);

  size_t size() const { return bytes_.size(); }
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> Take() { return std::move(bytes_); }

 private:
  // Appends `v` whole, not byte by byte.
  template <typename T>
  void Put(T v);

  std::vector<uint8_t> bytes_;
};

// Bounds-checked little-endian byte source over a non-owning span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ >= data_.size(); }

  Status Seek(size_t position);
  Status Skip(size_t count);

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int32_t> ReadI32();
  Result<int64_t> ReadI64();
  // Reads a u32 count of items that each take at least `min_item_bytes` of
  // the input: a count the remaining bytes cannot hold is corrupt, so a
  // decoder may size its containers by the count it gets back.
  Result<uint32_t> ReadCount(size_t min_item_bytes);
  Result<std::vector<uint8_t>> ReadBytes(size_t count);
  // Appends `count` little-endian u32s to `out`, bounds-checked once.
  Status ReadU32s(size_t count, std::vector<uint32_t>& out);
  Result<std::string> ReadLengthPrefixedString();
  // The same string as a view into the buffer, valid while the buffer is.
  Result<std::string_view> ReadLengthPrefixedView();

  // Reads a NUL-terminated string starting at absolute `offset` without
  // moving the cursor. Fails if no NUL before end of data.
  Result<std::string> ReadCStringAt(size_t offset) const;

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

}  // namespace lapis

#endif  // LAPIS_SRC_UTIL_BYTES_H_
