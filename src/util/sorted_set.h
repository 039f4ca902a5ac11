// A set stored as one sorted, duplicate-free vector.
//
// Per-function footprints hold a handful of values each, and a study holds
// tens of thousands of them at once. A std::set spends one heap node per
// value; SortedSet keeps the values contiguous, so a footprint costs one
// allocation per non-empty field and a union is a sorted merge. It offers
// only what its callers use: insert (plain, hinted and ranged), contains,
// ordered iteration, size/empty, erase and ==.

#ifndef LAPIS_SRC_UTIL_SORTED_SET_H_
#define LAPIS_SRC_UTIL_SORTED_SET_H_

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <utility>
#include <vector>

namespace lapis {

template <typename T>
class SortedSet {
 public:
  using value_type = T;
  using const_iterator = typename std::vector<T>::const_iterator;
  using iterator = const_iterator;

  SortedSet() = default;
  SortedSet(std::initializer_list<T> values) {
    insert(values.begin(), values.end());
  }

  const_iterator begin() const { return values_.begin(); }
  const_iterator end() const { return values_.end(); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  bool contains(const T& value) const {
    auto it = std::lower_bound(values_.begin(), values_.end(), value);
    return it != values_.end() && !(value < *it);
  }

  // Adds `value`; false if it was already present.
  bool insert(T value) {
    auto it = std::lower_bound(values_.begin(), values_.end(), value);
    if (it != values_.end() && !(value < *it)) {
      return false;
    }
    values_.insert(it, std::move(value));
    return true;
  }

  // Adds `value`, trying just before `hint` first: appending ascending
  // values with end() as the hint never searches.
  void insert(const_iterator hint, T value) {
    const bool after_prev = hint == begin() || *std::prev(hint) < value;
    const bool before_next = hint == end() || value < *hint;
    if (after_prev && before_next) {
      values_.insert(hint, std::move(value));
    } else {
      insert(std::move(value));
    }
  }

  // Adds every value of [first, last), in any order, duplicates allowed.
  template <typename It>
  void insert(It first, It last) {
    const auto old_size = static_cast<std::ptrdiff_t>(values_.size());
    values_.insert(values_.end(), first, last);
    const auto middle = values_.begin() + old_size;
    if (!std::is_sorted(middle, values_.end())) {
      std::sort(middle, values_.end());
    }
    if (middle != values_.begin() && middle != values_.end() &&
        *middle < *std::prev(middle)) {
      std::inplace_merge(values_.begin(), middle, values_.end());
    }
    values_.erase(std::unique(values_.begin(), values_.end()), values_.end());
  }

  // Removes `value`; returns how many were removed (0 or 1).
  size_t erase(const T& value) {
    auto it = std::lower_bound(values_.begin(), values_.end(), value);
    if (it == values_.end() || value < *it) {
      return 0;
    }
    values_.erase(it);
    return 1;
  }

  bool operator==(const SortedSet& other) const = default;

 private:
  std::vector<T> values_;
};

}  // namespace lapis

#endif  // LAPIS_SRC_UTIL_SORTED_SET_H_
