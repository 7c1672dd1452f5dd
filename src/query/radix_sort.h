#ifndef NDSS_QUERY_RADIX_SORT_H_
#define NDSS_QUERY_RADIX_SORT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace ndss {

/// Stable LSD radix sort of `items` by an unsigned integer key (64 or 32
/// bits: one byte digit per key byte), used by the query hot path for
/// endpoint, text-id, window, and span ordering. Sort keys there are
/// coordinates bounded by sequence/text-id magnitudes, not 2^64, so most of
/// the byte digits never vary; a single histogram pass over all digit
/// positions detects the constant ones and only the varying digits pay a
/// distribution pass. Ties keep their input order (stable), which makes the
/// result deterministic where std::sort's is not.
///
/// `key(item)` must be pure (called multiple times per item). `scratch` is
/// ping-pong storage, resized as needed; pass a reused vector to amortize
/// the allocation across calls. Small inputs fall back to std::stable_sort,
/// which beats histogramming below a few hundred elements.
template <typename T, typename KeyFn>
void RadixSortByKey(std::vector<T>* items, KeyFn key,
                    std::vector<T>* scratch) {
  const size_t n = items->size();
  if (n <= 256) {
    std::stable_sort(items->begin(), items->end(),
                     [&key](const T& a, const T& b) { return key(a) < key(b); });
    return;
  }
  using Key = std::invoke_result_t<KeyFn&, const T&>;
  static_assert(std::is_unsigned_v<Key> && (sizeof(Key) == 4 ||
                                            sizeof(Key) == 8),
                "RadixSortByKey keys are 32- or 64-bit unsigned integers");
  constexpr int kDigits = sizeof(Key);
  // One pass builds every digit's histogram.
  size_t hist[kDigits][256] = {};
  for (const T& item : *items) {
    const uint64_t k = key(item);
    for (int digit = 0; digit < kDigits; ++digit) {
      ++hist[digit][(k >> (8 * digit)) & 0xff];
    }
  }
  scratch->resize(n);
  T* src = items->data();
  T* dst = scratch->data();
  bool in_items = true;
  for (int digit = 0; digit < kDigits; ++digit) {
    size_t* counts = hist[digit];
    // A digit every key agrees on permutes nothing; skip its pass.
    bool varies = false;
    for (int bucket = 0; bucket < 256; ++bucket) {
      if (counts[bucket] == n) break;
      if (counts[bucket] != 0) {
        varies = true;
        break;
      }
    }
    if (!varies) continue;
    size_t offset = 0;
    for (int bucket = 0; bucket < 256; ++bucket) {
      const size_t count = counts[bucket];
      counts[bucket] = offset;
      offset += count;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[counts[(key(src[i]) >> (8 * digit)) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
    in_items = !in_items;
  }
  if (!in_items) items->swap(*scratch);
}

/// RadixSortByKey with call-local scratch, for callers without a reusable
/// buffer.
template <typename T, typename KeyFn>
void RadixSortByKey(std::vector<T>* items, KeyFn key) {
  std::vector<T> scratch;
  RadixSortByKey(items, key, &scratch);
}

}  // namespace ndss

#endif  // NDSS_QUERY_RADIX_SORT_H_
