// Open-addressing hash map from a 64-bit key to a value: the per-message
// lookups of the simulated network (links, handlers), of the commit peer
// (GUID contexts) and of a node's committed history (GUID records and
// their update-id sets). With an empty value type (std::monostate) it is
// a set of 8-byte entries.
//
// Entries sit in one power-of-two array probed linearly from a Fibonacci
// hash of the key, and the array doubles past 3/4 load, so a lookup is
// one probe into contiguous memory in the common case. Keys are never
// erased (every user only accumulates them), which keeps probing free of
// tombstones. The all-ones key marks an empty entry; a value stored under
// that key is held beside the array. Iteration order follows the hashes,
// so nothing whose order reaches events or exports may iterate a FlatMap.
//
// Growth moves every value: an insertion that adds a key invalidates
// references and pointers into the map.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace asa_repro::sim {

template <class V>
class FlatMap {
 public:
  /// The value under `key`, or nullptr.
  [[nodiscard]] V* find(std::uint64_t key) {
    if (key == kEmpty) return spare_.has_value() ? &*spare_ : nullptr;
    if (entries_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      Entry& entry = entries_[i];
      if (entry.key == key) return &entry.value;
      if (entry.key == kEmpty) return nullptr;
    }
  }
  [[nodiscard]] const V* find(std::uint64_t key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }

  /// The value under `key`, value-initialised when the key is new; the
  /// flag is true when it was.
  std::pair<V*, bool> try_emplace(std::uint64_t key) {
    if (key == kEmpty) {
      const bool fresh = !spare_.has_value();
      if (fresh) spare_.emplace();
      return {&*spare_, fresh};
    }
    if (V* found = find(key)) return {found, false};
    if ((used_ + 1) * 4 > entries_.size() * 3) grow();
    std::size_t i = home(key);
    while (entries_[i].key != kEmpty) i = (i + 1) & mask();
    entries_[i].key = key;
    ++used_;
    return {&entries_[i].value, true};
  }

  [[nodiscard]] std::size_t size() const {
    return used_ + (spare_.has_value() ? 1 : 0);
  }

  /// Bytes of the entry array (its capacity, not its load).
  [[nodiscard]] std::size_t bytes() const {
    return entries_.capacity() * sizeof(Entry);
  }

  /// Visit every (key, value) in hash order.
  template <class F>
  void for_each(F&& visit) {
    for (Entry& entry : entries_) {
      if (entry.key != kEmpty) visit(entry.key, entry.value);
    }
    if (spare_.has_value()) visit(kEmpty, *spare_);
  }
  template <class F>
  void for_each(F&& visit) const {
    for (const Entry& entry : entries_) {
      if (entry.key != kEmpty) visit(entry.key, entry.value);
    }
    if (spare_.has_value()) visit(kEmpty, *spare_);
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::size_t kMinCapacity = 16;

  struct Entry {
    std::uint64_t key = kEmpty;
    [[no_unique_address]] V value = V();  // A set's entry is its key.
  };

  [[nodiscard]] std::size_t mask() const { return entries_.size() - 1; }
  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void grow() {
    std::vector<Entry> old = std::move(entries_);
    const std::size_t capacity =
        old.empty() ? kMinCapacity : 2 * old.size();
    entries_ = std::vector<Entry>(capacity);
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (Entry& entry : old) {
      if (entry.key == kEmpty) continue;
      std::size_t i = home(entry.key);
      while (entries_[i].key != kEmpty) i = (i + 1) & mask();
      entries_[i] = std::move(entry);
    }
  }

  std::vector<Entry> entries_;
  std::size_t used_ = 0;  // Keys in entries_.
  int shift_ = 64;        // 64 - log2(capacity).
  std::optional<V> spare_;  // The value under kEmpty.
};

}  // namespace asa_repro::sim
