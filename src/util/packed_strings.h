// An immutable list of strings stored back to back in one buffer.
//
// A binary's import table is a few dozen short symbol names, held for every
// analyzed binary of a study at once. As std::strings each costs a 32-byte
// header; packed, the list costs its characters plus four bytes per name,
// in two exact-size allocations.

#ifndef LAPIS_SRC_UTIL_PACKED_STRINGS_H_
#define LAPIS_SRC_UTIL_PACKED_STRINGS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace lapis {

class PackedStrings {
 public:
  PackedStrings() = default;
  explicit PackedStrings(std::span<const std::string_view> strings) {
    size_t chars = 0;
    for (std::string_view s : strings) {
      chars += s.size();
    }
    chars_.reserve(chars);
    ends_.reserve(strings.size());
    for (std::string_view s : strings) {
      chars_.append(s);
      ends_.push_back(static_cast<uint32_t>(chars_.size()));
    }
  }

  size_t size() const { return ends_.size(); }
  bool empty() const { return ends_.empty(); }
  std::string_view operator[](size_t i) const {
    const uint32_t begin = i == 0 ? 0 : ends_[i - 1];
    return std::string_view(chars_).substr(begin, ends_[i] - begin);
  }

  bool operator==(const PackedStrings& other) const = default;

 private:
  std::string chars_;
  std::vector<uint32_t> ends_;  // string i ends at ends_[i]
};

}  // namespace lapis

#endif  // LAPIS_SRC_UTIL_PACKED_STRINGS_H_
