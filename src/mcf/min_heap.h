// 4-ary min-heap on (key, node) entries for the GK shortest-path kernels.
//
// Entries are ordered lexicographically — key first, then node id — which
// is exactly the order std::priority_queue<std::pair<double, int>, ...,
// std::greater<>> pops in. Any exact min-queue under a total order pops the
// same sequence for the same push/pop stream (equal entries are
// indistinguishable), so swapping one for the other leaves every Dijkstra
// settle order and tie-break unchanged. Keys must not be NaN.
//
// A 4-ary layout halves the tree depth of a binary heap and keeps a node's
// children in one cache line; `clear()` keeps the storage, so a heap owned
// by a long-lived scratch slot allocates only while it first grows.
#pragma once

#include <cstddef>
#include <vector>

namespace tb::mcf {

class MinHeap4 {
 public:
  struct Entry {
    double key;
    int node;
  };

  bool empty() const noexcept { return heap_.empty(); }
  const Entry& top() const { return heap_.front(); }
  void clear() noexcept { heap_.clear(); }

  void push(double key, int node) {
    const Entry e{key, node};
    std::size_t i = heap_.size();
    heap_.push_back(e);
    while (i > 0) {
      const std::size_t p = (i - 1) / kArity;
      if (!less(e, heap_[p])) break;
      heap_[i] = heap_[p];
      i = p;
    }
    heap_[i] = e;
  }

  void pop() {
    const Entry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = kArity * i + 1;
      if (first >= n) break;
      const std::size_t end = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < end; ++c) {
        if (less(heap_[c], heap_[best])) best = c;
      }
      if (!less(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }

 private:
  static constexpr std::size_t kArity = 4;

  static bool less(const Entry& a, const Entry& b) noexcept {
    return a.key < b.key || (a.key == b.key && a.node < b.node);
  }

  std::vector<Entry> heap_;
};

}  // namespace tb::mcf
