#include "testing/reference_ordering.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

#include "bbs/common/assert.hpp"

namespace bbs::testing {

using linalg::Index;
using linalg::SparseMatrix;

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

std::vector<Index> min_degree_ordering(std::vector<std::vector<Index>> adj) {
  const std::size_t n = adj.size();
  std::vector<Index> order;
  order.reserve(n);
  std::vector<bool> eliminated(n, false);
  // (degree, node) priority queue with lazy invalidation.
  using Entry = std::pair<std::size_t, Index>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  for (std::size_t i = 0; i < n; ++i)
    pq.emplace(adj[i].size(), static_cast<Index>(i));

  std::vector<Index> merged;
  while (!pq.empty()) {
    const auto [deg, u] = pq.top();
    pq.pop();
    const auto ui = static_cast<std::size_t>(u);
    if (eliminated[ui] || adj[ui].size() != deg) continue;  // stale entry
    eliminated[ui] = true;
    order.push_back(u);

    // Eliminate u: connect all remaining neighbours into a clique.
    std::vector<Index> live;
    for (Index v : adj[ui]) {
      if (!eliminated[static_cast<std::size_t>(v)]) live.push_back(v);
    }
    for (Index v : live) {
      auto& nv = adj[static_cast<std::size_t>(v)];
      // nv := (nv ∪ live) \ {u, v}, keeping only non-eliminated nodes.
      merged.clear();
      merged.reserve(nv.size() + live.size());
      for (Index w : nv) {
        if (w != u && !eliminated[static_cast<std::size_t>(w)])
          merged.push_back(w);
      }
      for (Index w : live) {
        if (w != v) merged.push_back(w);
      }
      std::sort(merged.begin(), merged.end());
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      nv = merged;
      pq.emplace(nv.size(), v);
    }
    adj[ui].clear();
    adj[ui].shrink_to_fit();
  }
  return order;
}

}  // namespace

std::vector<Index> reference_min_degree_ordering(const SparseMatrix& pattern) {
  return min_degree_ordering(build_adjacency(pattern));
}

}  // namespace bbs::testing
