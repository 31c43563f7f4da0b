// Test oracle for the minimum-degree ordering.
//
// The original implementation of linalg's minimum-degree ordering, kept
// verbatim: sorted adjacency lists rebuilt by concat + sort + unique on every
// elimination and a lazy-deletion priority queue. It is slow but obviously
// follows the contract documented in bbs/linalg/ordering.hpp, so the
// differential tests require compute_ordering(kMinimumDegree) to reproduce
// its permutation exactly.
#pragma once

#include <vector>

#include "bbs/linalg/sparse_matrix.hpp"

namespace bbs::testing {

/// Minimum-degree permutation of the symmetrised pattern of `pattern`
/// (perm[new_index] = old_index), by the reference algorithm.
std::vector<linalg::Index> reference_min_degree_ordering(
    const linalg::SparseMatrix& pattern);

}  // namespace bbs::testing
