// Disjoint-set forest over dense indices, with path halving. unite(a, b)
// hangs b's root under a's, so which index ends up as a set's root depends
// only on the order of unions; callers that label sets by their roots get
// the same labels for the same sequence of calls.
#pragma once

#include <cstddef>
#include <numeric>
#include <vector>

namespace tess::util {

class UnionFind {
 public:
  UnionFind() = default;
  /// n singleton sets, 0 .. n-1.
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  /// Add a singleton set; returns its index.
  std::size_t add() {
    parent_.push_back(parent_.size());
    return parent_.size() - 1;
  }

  std::size_t find(std::size_t i) {
    while (parent_[i] != i) {
      parent_[i] = parent_[parent_[i]];  // path halving
      i = parent_[i];
    }
    return i;
  }

  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[b] = a;
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace tess::util
