// The project's one append-only string <-> dense id table.
//
// The study names pseudo-file paths and libc symbols by id (core::ApiId's
// codes), and LibraryResolver names sonames, exported symbols and paths the
// same way. StringInterner stores each distinct string once and hands out
// ids in order of first sight, so ids depend on interning order: pipelines
// that export ids intern from a canonical-order stage.
//
// Layout: names live in a deque, whose elements never move as it grows or
// when the interner itself is moved, and the index is keyed by views into
// them. So NameOf's reference stays valid for the interner's lifetime.
//
// Thread-safety: none inside. Every owner writes its interner from one
// thread before anyone reads it (the resolver during registration, the
// study during its serial canonical merge, a serve snapshot before it is
// published); after that, concurrent Find and NameOf need no lock.

#ifndef LAPIS_SRC_UTIL_STRING_INTERNER_H_
#define LAPIS_SRC_UTIL_STRING_INTERNER_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace lapis {

class StringInterner {
 public:
  static constexpr uint32_t kNotFound = UINT32_MAX;

  StringInterner() = default;
  // Not copyable: the index views the interner's own strings.
  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;
  StringInterner(StringInterner&&) = default;
  StringInterner& operator=(StringInterner&&) = default;

  // Returns the id of `s`, interning it on first sight.
  uint32_t Intern(std::string_view s);

  // Returns the id if present, or kNotFound.
  uint32_t Find(std::string_view s) const;

  // The interned string for a valid id.
  const std::string& NameOf(uint32_t id) const { return names_[id]; }

  size_t size() const { return names_.size(); }

 private:
  std::deque<std::string> names_;  // stable element addresses
  std::unordered_map<std::string_view, uint32_t> ids_;  // views into names_
};

}  // namespace lapis

#endif  // LAPIS_SRC_UTIL_STRING_INTERNER_H_
