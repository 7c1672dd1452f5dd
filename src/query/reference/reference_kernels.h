#ifndef NDSS_QUERY_REFERENCE_REFERENCE_KERNELS_H_
#define NDSS_QUERY_REFERENCE_REFERENCE_KERNELS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "index/posting.h"
#include "query/collision_count.h"
#include "query/interval_scan.h"
#include "query/searcher.h"

namespace ndss {

/// Reference ("oracle") implementations of the query hot-path kernels.
///
/// These are the pre-optimization implementations, kept deliberately
/// simple: comparison sorts, O(|active|) linear-scan removal, full member
/// copies per group, and one-byte-at-a-time bounds-checked varint decode.
/// They define the semantics the optimized kernels in src/query/ and
/// src/index/ must reproduce bit-for-bit (same groups/rectangles/spans/
/// windows), and they are what the property tests
/// (tests/interval_scan_property_test.cc) and the equivalence gate inside
/// bench_hot_path compare against. They are NOT on any query path — do not
/// optimize them; their value is being obviously correct.
namespace reference {

/// IntervalScan by sorted-endpoint sweep with linear-scan removal and a
/// full member copy per emitted group. Same contract as ndss::IntervalScan:
/// alpha == 0 is InvalidArgument, endpoint coordinates are widened so
/// intervals ending at UINT32_MAX do not wrap, and adjacent contiguous
/// groups with equal member id multisets are coalesced. Member order within
/// a group is unspecified (compare sorted).
Status IntervalScan(std::span<const Interval> intervals, uint32_t alpha,
                    std::vector<IntervalGroup>* out,
                    const QueryContext* ctx = nullptr);

/// CollisionCount via reference::IntervalScan on both sides, with the same
/// left/right interval split and the same rectangle coalescing as the
/// optimized kernel. Emission order matches ndss::CollisionCount exactly.
Status CollisionCount(std::span<const PostedWindow> windows, uint32_t alpha,
                      std::vector<MatchRectangle>* out,
                      const QueryContext* ctx = nullptr);

/// One-varint-at-a-time decode of a compressed posting run (window 0
/// carries an absolute text id, the rest delta-encode it). Same contract
/// as ndss::DecodeWindowRun in src/index/varint_block.h: decodes up to
/// `max_windows` windows into `out`, stops cleanly at `limit`, sets
/// `*decoded`, and returns the position after the last full window or
/// nullptr on a truncated/overlong varint.
const char* DecodeWindowRun(const char* p, const char* limit,
                            uint64_t max_windows, PostedWindow* out,
                            uint64_t* decoded);

/// Pass 1 as the searcher ran it before the distinct-list filter:
/// concatenate the scanned lists, radix-sort every window by (text, l),
/// drop texts with fewer than `beta1` windows and run ndss::CollisionCount
/// on the rest. Same output contract as ndss::ScanShortLists, whose
/// distinct-list filter and in-place gathering it pins.
Status Pass1(std::span<const std::span<const PostedWindow>> lists,
             uint32_t beta1, std::vector<Pass1Match>* out);

/// The (text, l) window order reference::Pass1 sorts by, via
/// std::stable_sort.
void SortWindows(std::vector<PostedWindow>* windows);

/// The span-merge order — (text, begin) — by std::stable_sort, applied to
/// (text, begin) pairs packed as uint64 keys alongside payload indices.
void SortByKey(std::vector<std::pair<uint64_t, uint32_t>>* items);

}  // namespace reference
}  // namespace ndss

#endif  // NDSS_QUERY_REFERENCE_REFERENCE_KERNELS_H_
