#ifndef RDX_BASE_HASH_H_
#define RDX_BASE_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace rdx {

/// Mixes `value` into `seed` (boost::hash_combine-style, 64-bit variant).
inline void HashCombine(std::size_t& seed, std::size_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// Hashes a range of hashable elements into a single value.
template <typename It>
std::size_t HashRange(It begin, It end) {
  std::size_t seed = 0xcbf29ce484222325ULL;
  using T = typename std::iterator_traits<It>::value_type;
  std::hash<T> hasher;
  for (It it = begin; it != end; ++it) {
    HashCombine(seed, hasher(*it));
  }
  return seed;
}

/// Open-addressing map from uint32 keys to uint32 values, sized once for
/// at most `max_keys` distinct keys and never grown. Built for the per-call
/// dense renumbering of packed value ids (homomorphism search, block
/// decomposition), where a node-based map spends most of its time
/// allocating. The key 0xFFFFFFFF (Value::kInvalidPackedId) is reserved.
class FlatIdMap {
 public:
  explicit FlatIdMap(std::size_t max_keys) {
    std::size_t capacity = 16;
    while (capacity < 2 * max_keys) capacity <<= 1;
    keys_.assign(capacity, kEmpty);
    values_.resize(capacity);
    mask_ = capacity - 1;
  }

  /// Inserts `key -> value` unless `key` is present; returns the stored
  /// value's slot and whether the insertion happened.
  std::pair<uint32_t*, bool> TryEmplace(uint32_t key, uint32_t value) {
    std::size_t i = Home(key);
    while (keys_[i] != key) {
      if (keys_[i] == kEmpty) {
        keys_[i] = key;
        values_[i] = value;
        return {&values_[i], true};
      }
      i = (i + 1) & mask_;
    }
    return {&values_[i], false};
  }

  /// The value stored for `key`, or nullptr.
  const uint32_t* Find(uint32_t key) const {
    for (std::size_t i = Home(key); keys_[i] != kEmpty; i = (i + 1) & mask_) {
      if (keys_[i] == key) return &values_[i];
    }
    return nullptr;
  }

 private:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;

  std::size_t Home(uint32_t key) const {
    return (static_cast<std::size_t>(key) * 0x9E3779B97F4A7C15ULL >> 32) &
           mask_;
  }

  std::vector<uint32_t> keys_;
  std::vector<uint32_t> values_;
  std::size_t mask_ = 0;
};

}  // namespace rdx

#endif  // RDX_BASE_HASH_H_
