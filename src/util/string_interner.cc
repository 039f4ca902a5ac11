#include "src/util/string_interner.h"

namespace lapis {

uint32_t StringInterner::Intern(std::string_view s) {
  auto it = ids_.find(s);
  if (it != ids_.end()) {
    return it->second;
  }
  const uint32_t id = static_cast<uint32_t>(names_.size());
  names_.emplace_back(s);
  ids_.emplace(std::string_view(names_.back()), id);
  return id;
}

uint32_t StringInterner::Find(std::string_view s) const {
  auto it = ids_.find(s);
  return it == ids_.end() ? kNotFound : it->second;
}

}  // namespace lapis
