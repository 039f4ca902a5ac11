#include "src/util/bytes.h"

namespace lapis {

template <typename T>
void ByteWriter::Put(T v) {
  const size_t at = bytes_.size();
  bytes_.resize(at + sizeof(T));
  StoreLittleEndian(bytes_.data() + at, v);
}

void ByteWriter::PutU16(uint16_t v) { Put(v); }
void ByteWriter::PutU32(uint32_t v) { Put(v); }
void ByteWriter::PutU64(uint64_t v) { Put(v); }

void ByteWriter::PutBytes(std::span<const uint8_t> data) {
  bytes_.insert(bytes_.end(), data.begin(), data.end());
}

void ByteWriter::PutString(std::string_view s) {
  bytes_.insert(bytes_.end(), s.begin(), s.end());
}

void ByteWriter::PutCString(std::string_view s) {
  PutString(s);
  PutU8(0);
}

void ByteWriter::PutLengthPrefixedString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  PutString(s);
}

void ByteWriter::AlignTo(size_t alignment) {
  if (alignment == 0) {
    return;
  }
  while (bytes_.size() % alignment != 0) {
    bytes_.push_back(0);
  }
}

void ByteWriter::PatchU32(size_t offset, uint32_t v) {
  StoreLittleEndian(bytes_.data() + offset, v);
}

Status ByteReader::Seek(size_t position) {
  if (position > data_.size()) {
    return OutOfRangeError("seek past end of buffer");
  }
  pos_ = position;
  return Status::Ok();
}

Status ByteReader::Skip(size_t count) {
  if (count > remaining()) {
    return OutOfRangeError("skip past end of buffer");
  }
  pos_ += count;
  return Status::Ok();
}

Result<uint8_t> ByteReader::ReadU8() {
  if (remaining() < 1) {
    return OutOfRangeError("read past end of buffer");
  }
  return data_[pos_++];
}

Result<uint16_t> ByteReader::ReadU16() {
  if (remaining() < 2) {
    return OutOfRangeError("read past end of buffer");
  }
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<uint32_t> ByteReader::ReadU32() {
  if (remaining() < 4) {
    return OutOfRangeError("read past end of buffer");
  }
  uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | data_[pos_ + static_cast<size_t>(i)];
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::ReadU64() {
  if (remaining() < 8) {
    return OutOfRangeError("read past end of buffer");
  }
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | data_[pos_ + static_cast<size_t>(i)];
  }
  pos_ += 8;
  return v;
}

Result<int32_t> ByteReader::ReadI32() {
  LAPIS_ASSIGN_OR_RETURN(uint32_t v, ReadU32());
  return static_cast<int32_t>(v);
}

Result<int64_t> ByteReader::ReadI64() {
  LAPIS_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

Result<uint32_t> ByteReader::ReadCount(size_t min_item_bytes) {
  LAPIS_ASSIGN_OR_RETURN(uint32_t count, ReadU32());
  if (uint64_t{count} * min_item_bytes > remaining()) {
    return CorruptDataError("count exceeds buffer");
  }
  return count;
}

Result<std::vector<uint8_t>> ByteReader::ReadBytes(size_t count) {
  if (count > remaining()) {
    return OutOfRangeError("read past end of buffer");
  }
  std::vector<uint8_t> out(data_.begin() + static_cast<ptrdiff_t>(pos_),
                           data_.begin() + static_cast<ptrdiff_t>(pos_ + count));
  pos_ += count;
  return out;
}

Status ByteReader::ReadU32s(size_t count, std::vector<uint32_t>& out) {
  if (count > remaining() / 4) {
    return OutOfRangeError("read past end of buffer");
  }
  const size_t at = out.size();
  out.resize(at + count);
  if constexpr (std::endian::native == std::endian::little) {
    if (count != 0) {
      std::memcpy(out.data() + at, data_.data() + pos_, 4 * count);
    }
    pos_ += 4 * count;
  } else {
    for (size_t i = 0; i < count; ++i) {
      out[at + i] = ReadU32().value();
    }
  }
  return Status::Ok();
}

Result<std::string> ByteReader::ReadLengthPrefixedString() {
  LAPIS_ASSIGN_OR_RETURN(std::string_view s, ReadLengthPrefixedView());
  return std::string(s);
}

Result<std::string_view> ByteReader::ReadLengthPrefixedView() {
  LAPIS_ASSIGN_OR_RETURN(uint32_t len, ReadCount(1));
  std::string_view s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

Result<std::string> ByteReader::ReadCStringAt(size_t offset) const {
  if (offset >= data_.size()) {
    return OutOfRangeError("cstring offset past end of buffer");
  }
  size_t end = offset;
  while (end < data_.size() && data_[end] != 0) {
    ++end;
  }
  if (end == data_.size()) {
    return CorruptDataError("unterminated cstring");
  }
  return std::string(reinterpret_cast<const char*>(data_.data() + offset),
                     end - offset);
}

}  // namespace lapis
