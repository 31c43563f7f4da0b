// Fill-reducing orderings for the sparse LDL^T factorisation.
//
// The normal-equation matrices produced by the interior-point solver inherit
// the topology of the task graphs, so orderings matter for the scaling
// benchmark (bench_ablation_ordering). Three methods are provided:
//   * Natural           — identity permutation (baseline),
//   * ReverseCuthillMcKee — bandwidth-reducing BFS ordering,
//   * MinimumDegree     — exact greedy minimum degree on the elimination
//                           graph (contract below).
//
// The permutation is part of the answer, not a tuning detail: it fixes the
// order of the factor's floating-point operations, so a different (even
// equally good) permutation changes the rounding of every solve. The
// structure cache also persists it (solver::SymbolicAnalysis::permutation)
// and re-seeds it on warm restarts. Any change to an ordering's output is
// therefore a change to the service's answers and invalidates cached
// entries; the minimum-degree contract below is pinned by a differential
// test against a reference implementation.
#pragma once

#include <vector>

#include "bbs/linalg/sparse_matrix.hpp"

namespace bbs::linalg {

enum class OrderingMethod {
  kNatural,
  kReverseCuthillMcKee,
  kMinimumDegree,
};

/// Computes a fill-reducing permutation for a square matrix whose *pattern*
/// is interpreted symmetrically (the union of the stored pattern and its
/// transpose is used; diagonal entries, duplicates and values are ignored).
/// Returns perm with perm[new_index] = old_index.
///
/// kMinimumDegree contract: starting from that symmetric graph, repeatedly
/// eliminate the live node u with the lexicographically smallest
/// (current degree, node index) — ties always go to the smaller index — and
/// then give each live neighbour v of u the neighbourhood
/// N(v) := (N(v) ∪ N(u)) \ {u, v}. Degrees are exact elimination-graph
/// degrees (no approximate degrees, supervariables or mass elimination).
std::vector<Index> compute_ordering(const SparseMatrix& pattern,
                                    OrderingMethod method);

/// True iff `p` is a permutation of 0..p.size()-1.
bool is_permutation(const std::vector<Index>& p);

/// Human-readable method name for reports.
const char* ordering_name(OrderingMethod method);

}  // namespace bbs::linalg
