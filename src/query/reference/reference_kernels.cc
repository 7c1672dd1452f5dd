#include "query/reference/reference_kernels.h"

#include <algorithm>

#include "common/coding.h"
#include "common/query_context.h"
#include "query/radix_sort.h"

namespace ndss {
namespace reference {

namespace {

/// A sweep event at `coord`. Coordinates are widened to 64 bits for the
/// same reason as in the optimized kernel: the end event of an interval
/// ending at UINT32_MAX lives at 2^32.
struct Endpoint {
  uint64_t coord;
  uint32_t instance;
  bool is_start;
};

bool SameMemberIds(std::vector<uint32_t> a, std::vector<uint32_t> b) {
  if (a.size() != b.size()) return false;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

}  // namespace

Status IntervalScan(std::span<const Interval> intervals, uint32_t alpha,
                    std::vector<IntervalGroup>* out, const QueryContext* ctx) {
  if (alpha == 0) {
    return Status::InvalidArgument(
        "IntervalScan: alpha must be >= 1 (was the collision threshold "
        "miscomputed upstream?)");
  }
  if (intervals.size() < alpha) return Status::OK();
  NDSS_RETURN_NOT_OK(CheckQueryContext(ctx));
  const size_t base = out->size();

  std::vector<Endpoint> endpoints;
  endpoints.reserve(intervals.size() * 2);
  for (uint32_t instance = 0; instance < intervals.size(); ++instance) {
    endpoints.push_back({intervals[instance].begin, instance, true});
    endpoints.push_back(
        {static_cast<uint64_t>(intervals[instance].end) + 1, instance, false});
  }
  std::sort(endpoints.begin(), endpoints.end(),
            [](const Endpoint& a, const Endpoint& b) {
              return a.coord < b.coord;
            });

  // The active set holds instance indices; removal is a linear scan — this
  // is the oracle, not the fast path.
  std::vector<uint32_t> active;
  size_t i = 0;
  while (i < endpoints.size()) {
    const uint64_t coord = endpoints[i].coord;
    while (i < endpoints.size() && endpoints[i].coord == coord) {
      const Endpoint& endpoint = endpoints[i];
      if (endpoint.is_start) {
        active.push_back(endpoint.instance);
      } else {
        active.erase(std::find(active.begin(), active.end(),
                               endpoint.instance));
      }
      ++i;
    }
    if (i == endpoints.size()) break;  // past the last interval end
    if (active.size() >= alpha) {
      NDSS_RETURN_NOT_OK(CheckQueryContext(ctx));
      IntervalGroup group;
      group.overlap_begin = static_cast<uint32_t>(coord);
      group.overlap_end = static_cast<uint32_t>(endpoints[i].coord - 1);
      group.members.reserve(active.size());
      for (uint32_t instance : active) {
        group.members.push_back(intervals[instance].id);
      }
      // Coalesce with the previous group when the segments abut and the
      // member id multisets are equal (the fast kernel's pending deltas
      // netting to zero).
      if (out->size() > base) {
        IntervalGroup& prev = out->back();
        if (static_cast<uint64_t>(prev.overlap_end) + 1 == coord &&
            SameMemberIds(prev.members, group.members)) {
          prev.overlap_end = group.overlap_end;
          continue;
        }
      }
      out->push_back(std::move(group));
    }
  }
  return Status::OK();
}

Status CollisionCount(std::span<const PostedWindow> windows, uint32_t alpha,
                      std::vector<MatchRectangle>* out,
                      const QueryContext* ctx) {
  if (alpha == 0) {
    return Status::InvalidArgument(
        "CollisionCount: alpha must be >= 1 (was the collision threshold "
        "miscomputed upstream?)");
  }
  if (windows.size() < alpha) return Status::OK();
  const size_t base = out->size();

  // Left intervals [l, c]; interval id = index into `windows`, so a group's
  // member ids index straight back into the window span.
  std::vector<Interval> left;
  left.reserve(windows.size());
  for (uint32_t i = 0; i < windows.size(); ++i) {
    left.push_back({windows[i].l, windows[i].c, i});
  }
  std::vector<IntervalGroup> left_groups;
  NDSS_RETURN_NOT_OK(reference::IntervalScan(left, alpha, &left_groups, ctx));

  std::vector<Interval> right;
  std::vector<IntervalGroup> right_groups;
  for (const IntervalGroup& group : left_groups) {
    NDSS_RETURN_NOT_OK(CheckQueryContext(ctx));
    right.clear();
    for (uint32_t w : group.members) {
      right.push_back({windows[w].c, windows[w].r, w});
    }
    right_groups.clear();
    NDSS_RETURN_NOT_OK(reference::IntervalScan(right, alpha, &right_groups, ctx));
    for (const IntervalGroup& rg : right_groups) {
      out->push_back(MatchRectangle{
          group.overlap_begin, group.overlap_end, rg.overlap_begin,
          rg.overlap_end, static_cast<uint32_t>(rg.members.size())});
    }
  }
  CoalesceMatchRectangles(out, base);
  return Status::OK();
}

const char* DecodeWindowRun(const char* p, const char* limit,
                            uint64_t max_windows, PostedWindow* out,
                            uint64_t* decoded) {
  uint32_t prev_text = 0;
  uint64_t n = 0;
  while (n < max_windows && p < limit) {
    uint32_t text_field, l, c_delta, r_delta;
    p = GetVarint32(p, limit, &text_field);
    if (p != nullptr) p = GetVarint32(p, limit, &l);
    if (p != nullptr) p = GetVarint32(p, limit, &c_delta);
    if (p != nullptr) p = GetVarint32(p, limit, &r_delta);
    if (p == nullptr) return nullptr;
    // Window 0 of the run is a restart point (absolute text).
    const uint32_t text = n == 0 ? text_field : prev_text + text_field;
    prev_text = text;
    out[n++] = PostedWindow{text, l, l + c_delta, l + c_delta + r_delta};
  }
  *decoded = n;
  return p;
}

Status Pass1(std::span<const std::span<const PostedWindow>> lists,
             uint32_t beta1, std::vector<Pass1Match>* out) {
  std::vector<PostedWindow> windows;
  for (std::span<const PostedWindow> list : lists) {
    windows.insert(windows.end(), list.begin(), list.end());
  }
  RadixSortByKey(&windows, [](const PostedWindow& w) {
    return (static_cast<uint64_t>(w.text) << 32) | w.l;
  });
  size_t i = 0;
  while (i < windows.size()) {
    size_t j = i;
    while (j < windows.size() && windows[j].text == windows[i].text) ++j;
    // A group smaller than beta1 cannot reach beta1 collisions.
    if (j - i >= beta1) {
      Pass1Match match;
      match.text = windows[i].text;
      match.windows.assign(windows.begin() + i, windows.begin() + j);
      NDSS_RETURN_NOT_OK(
          ndss::CollisionCount(match.windows, beta1, &match.rects));
      if (!match.rects.empty()) out->push_back(std::move(match));
    }
    i = j;
  }
  return Status::OK();
}

void SortWindows(std::vector<PostedWindow>* windows) {
  std::stable_sort(windows->begin(), windows->end(),
                   [](const PostedWindow& a, const PostedWindow& b) {
                     if (a.text != b.text) return a.text < b.text;
                     return a.l < b.l;
                   });
}

void SortByKey(std::vector<std::pair<uint64_t, uint32_t>>* items) {
  std::stable_sort(items->begin(), items->end(),
                   [](const std::pair<uint64_t, uint32_t>& a,
                      const std::pair<uint64_t, uint32_t>& b) {
                     return a.first < b.first;
                   });
}

}  // namespace reference
}  // namespace ndss
