#include "bbs/linalg/ordering.hpp"

#include <algorithm>
#include <cstdint>
#include <queue>

#include "bbs/common/assert.hpp"

namespace bbs::linalg {

namespace {

/// Symmetrised adjacency (no self loops), sorted and deduplicated.
std::vector<std::vector<Index>> build_adjacency(const SparseMatrix& a) {
  BBS_REQUIRE(a.rows() == a.cols(), "ordering: matrix must be square");
  const auto n = static_cast<std::size_t>(a.rows());
  std::vector<std::vector<Index>> adj(n);
  for (Index c = 0; c < a.cols(); ++c) {
    for (Index k = a.col_ptr()[c]; k < a.col_ptr()[c + 1]; ++k) {
      const Index r = a.row_ind()[k];
      if (r == c) continue;
      adj[static_cast<std::size_t>(c)].push_back(r);
      adj[static_cast<std::size_t>(r)].push_back(c);
    }
  }
  for (auto& nbrs : adj) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }
  return adj;
}

/// Breadth-first sweep from `start`; returns the last node visited, which
/// lies on the deepest BFS level. Used to locate a pseudo-peripheral node
/// for RCM.
Index bfs_last(const std::vector<std::vector<Index>>& adj, Index start,
               std::vector<bool>& seen) {
  std::fill(seen.begin(), seen.end(), false);
  std::queue<Index> q;
  q.push(start);
  seen[static_cast<std::size_t>(start)] = true;
  Index last = start;
  while (!q.empty()) {
    last = q.front();
    q.pop();
    for (Index v : adj[static_cast<std::size_t>(last)]) {
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = true;
        q.push(v);
      }
    }
  }
  return last;
}

std::vector<Index> rcm_ordering(const std::vector<std::vector<Index>>& adj) {
  const std::size_t n = adj.size();
  std::vector<Index> order;
  order.reserve(n);
  std::vector<bool> visited(n, false);
  std::vector<bool> seen(n);

  for (std::size_t root_scan = 0; root_scan < n; ++root_scan) {
    if (visited[root_scan]) continue;
    // Pseudo-peripheral start: the last node reached by one BFS sweep from
    // the component seed.
    const Index start = bfs_last(adj, static_cast<Index>(root_scan), seen);

    // Cuthill–McKee BFS, neighbours in increasing-degree order.
    std::queue<Index> q;
    q.push(start);
    visited[static_cast<std::size_t>(start)] = true;
    std::vector<Index> nbrs;
    while (!q.empty()) {
      const Index u = q.front();
      q.pop();
      order.push_back(u);
      nbrs.clear();
      for (Index v : adj[static_cast<std::size_t>(u)]) {
        if (!visited[static_cast<std::size_t>(v)]) {
          visited[static_cast<std::size_t>(v)] = true;
          nbrs.push_back(v);
        }
      }
      std::sort(nbrs.begin(), nbrs.end(), [&adj](Index a, Index b) {
        return adj[static_cast<std::size_t>(a)].size() <
               adj[static_cast<std::size_t>(b)].size();
      });
      for (Index v : nbrs) q.push(v);
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

/// Indexed binary min-heap holding exactly one entry per live node. An
/// entry is the node's key (degree << 32 | index), so integer order is the
/// (degree, index) selection order, and a degree change re-sifts the node's
/// entry in O(log n).
class DegreeHeap {
 public:
  explicit DegreeHeap(const std::vector<std::vector<Index>>& adj)
      : heap_(adj.size()), slot_(adj.size()) {
    for (std::size_t i = 0; i < adj.size(); ++i) {
      heap_[i] = key(static_cast<Index>(i), adj[i].size());
      slot_[i] = i;
    }
    for (std::size_t i = heap_.size() / 2; i-- > 0;) sift_down(i, heap_[i]);
  }

  bool empty() const { return heap_.empty(); }

  /// Removes and returns the node with the smallest (degree, index).
  Index pop() {
    const Index top = node(heap_.front());
    const std::uint64_t last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0, last);
    return top;
  }

  /// Re-keys live node `v` to `degree`.
  void update(Index v, std::size_t degree) {
    const std::size_t slot = slot_[static_cast<std::size_t>(v)];
    const std::uint64_t k = key(v, degree);
    if (k < heap_[slot]) {
      sift_up(slot, k);
    } else {
      sift_down(slot, k);
    }
  }

 private:
  static std::uint64_t key(Index v, std::size_t degree) {
    return (static_cast<std::uint64_t>(degree) << 32) |
           static_cast<std::uint32_t>(v);
  }
  static Index node(std::uint64_t k) {
    return static_cast<Index>(k & 0xffffffffu);
  }

  void place(std::size_t slot, std::uint64_t k) {
    heap_[slot] = k;
    slot_[static_cast<std::size_t>(node(k))] = slot;
  }

  void sift_up(std::size_t slot, std::uint64_t k) {
    while (slot > 0) {
      const std::size_t parent = (slot - 1) / 2;
      if (heap_[parent] < k) break;
      place(slot, heap_[parent]);
      slot = parent;
    }
    place(slot, k);
  }

  void sift_down(std::size_t slot, std::uint64_t k) {
    const std::size_t n = heap_.size();
    for (;;) {
      std::size_t child = 2 * slot + 1;
      if (child >= n) break;
      if (child + 1 < n && heap_[child + 1] < heap_[child]) ++child;
      if (k < heap_[child]) break;
      place(slot, heap_[child]);
      slot = child;
    }
    place(slot, k);
  }

  std::vector<std::uint64_t> heap_;
  std::vector<std::size_t> slot_;  // slot_[node] = position in heap_
};

/// Exact minimum degree on the explicit elimination graph. `adj` holds only
/// live nodes at every step: eliminating u turns its neighbourhood into a
/// clique, N(v) := (N(v) ∪ N(u)) \ {u, v} for each v in N(u), and no other
/// list ever mentions u. Lists stay unsorted; membership during a merge is a
/// stamp in `mark`, so a merge costs O(|N(v)| + |N(u)|) with no sort.
std::vector<Index> min_degree_ordering(std::vector<std::vector<Index>> adj) {
  const std::size_t n = adj.size();
  std::vector<Index> order;
  order.reserve(n);
  DegreeHeap heap(adj);
  std::vector<std::size_t> mark(n, 0);
  std::size_t stamp = 0;

  while (!heap.empty()) {
    const Index u = heap.pop();
    order.push_back(u);
    const std::vector<Index>& nu = adj[static_cast<std::size_t>(u)];
    for (const Index v : nu) {
      std::vector<Index>& nv = adj[static_cast<std::size_t>(v)];
      ++stamp;
      mark[static_cast<std::size_t>(v)] = stamp;
      // Drop u (present exactly once) and stamp the rest of N(v).
      for (std::size_t k = 0; k < nv.size();) {
        if (nv[k] == u) {
          nv[k] = nv.back();
          nv.pop_back();
        } else {
          mark[static_cast<std::size_t>(nv[k])] = stamp;
          ++k;
        }
      }
      for (const Index w : nu) {
        if (mark[static_cast<std::size_t>(w)] != stamp) nv.push_back(w);
      }
      heap.update(v, nv.size());
    }
    std::vector<Index>().swap(adj[static_cast<std::size_t>(u)]);
  }
  return order;
}

}  // namespace

std::vector<Index> compute_ordering(const SparseMatrix& pattern,
                                    OrderingMethod method) {
  const auto n = static_cast<std::size_t>(pattern.rows());
  switch (method) {
    case OrderingMethod::kNatural: {
      std::vector<Index> p(n);
      for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<Index>(i);
      return p;
    }
    case OrderingMethod::kReverseCuthillMcKee:
      return rcm_ordering(build_adjacency(pattern));
    case OrderingMethod::kMinimumDegree:
      return min_degree_ordering(build_adjacency(pattern));
  }
  throw ContractViolation("compute_ordering: unknown method");
}

bool is_permutation(const std::vector<Index>& p) {
  std::vector<bool> seen(p.size(), false);
  for (Index v : p) {
    if (v < 0 || static_cast<std::size_t>(v) >= p.size()) return false;
    if (seen[static_cast<std::size_t>(v)]) return false;
    seen[static_cast<std::size_t>(v)] = true;
  }
  return true;
}

const char* ordering_name(OrderingMethod method) {
  switch (method) {
    case OrderingMethod::kNatural:
      return "natural";
    case OrderingMethod::kReverseCuthillMcKee:
      return "rcm";
    case OrderingMethod::kMinimumDegree:
      return "min-degree";
  }
  return "?";
}

}  // namespace bbs::linalg
