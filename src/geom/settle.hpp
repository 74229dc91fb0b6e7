// Incremental quicksort of the cell builder's ring candidates (internal).
//
// settle() makes v[i] final in `less` order, for i = 0, 1, ... in turn.
// Positions below `settled` are final; `pivots` holds the final positions
// of pivots above them, the end of the range at the bottom. Unsettled
// ranges are partitioned around a median of three until i is a pivot or
// its range is short enough to sort. Settling the first k of n costs
// O(n + k log k). With a strict total order the settled prefix is the one
// std::sort gives, whatever the input order.
//
// The partition is branch-free: every element is swapped into the split
// slot and the split advances by the comparison's result, so a candidate
// costs two loads and two stores instead of a mispredicted branch on
// random keys.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <vector>

namespace tess::geom::detail {

template <class T, class Less>
void settle(std::vector<T>& v, std::vector<std::size_t>& pivots,
            std::size_t i, std::size_t& settled, Less less) {
  constexpr std::size_t kSortRun = 16;
  if (i < settled) return;
  for (;;) {
    const std::size_t top = pivots.back();
    if (top == i) {
      pivots.pop_back();
      settled = i + 1;
      return;
    }
    const auto lo = v.begin() + static_cast<std::ptrdiff_t>(i);
    const auto hi = v.begin() + static_cast<std::ptrdiff_t>(top);
    if (top - i <= kSortRun) {
      std::sort(lo, hi, less);
      settled = top;
      return;
    }
    const auto mid = lo + static_cast<std::ptrdiff_t>((top - i) / 2);
    if (less(*mid, *lo)) std::iter_swap(mid, lo);
    if (less(*(hi - 1), *mid)) {
      std::iter_swap(hi - 1, mid);
      if (less(*mid, *lo)) std::iter_swap(mid, lo);
    }
    std::iter_swap(lo, mid);  // park the pivot at i, partition the rest
    const T pivot = *lo;
    auto split = lo + 1;
    for (auto it = lo + 1; it != hi; ++it) {
      const bool below = less(*it, pivot);
      std::iter_swap(split, it);
      split += below;
    }
    std::iter_swap(lo, split - 1);
    pivots.push_back(static_cast<std::size_t>(split - 1 - v.begin()));
  }
}

}  // namespace tess::geom::detail
