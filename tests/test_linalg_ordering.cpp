// Tests for the fill-reducing orderings: permutation validity, fill
// reduction on structured patterns, handling of disconnected graphs, and the
// exact minimum-degree contract, checked against the reference
// implementation on random and normal-equation patterns.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <variant>

#include "bbs/common/rng.hpp"
#include "bbs/core/program_builder.hpp"
#include "bbs/fuzz/fuzzer.hpp"
#include "bbs/gen/generators.hpp"
#include "bbs/io/api_io.hpp"
#include "bbs/io/json.hpp"
#include "bbs/linalg/ordering.hpp"
#include "bbs/linalg/sparse_ldlt.hpp"
#include "bbs/solver/kkt_system.hpp"
#include "bbs/solver/nt_scaling.hpp"
#include "testing/reference_ordering.hpp"

namespace bbs::linalg {
namespace {

/// Arrowhead pattern: dense first row/column + diagonal. Natural ordering
/// fills in completely; any sensible ordering eliminates the hub last.
SparseMatrix arrowhead(Index n) {
  TripletList t(n, n);
  for (Index i = 0; i < n; ++i) t.add(i, i, 4.0 + static_cast<double>(n));
  for (Index i = 1; i < n; ++i) {
    t.add(0, i, 1.0);
    t.add(i, 0, 1.0);
  }
  return SparseMatrix::from_triplets(t);
}

/// 1-D Laplacian (tridiagonal): already ideally ordered.
SparseMatrix tridiagonal(Index n) {
  TripletList t(n, n);
  for (Index i = 0; i < n; ++i) t.add(i, i, 2.0);
  for (Index i = 0; i + 1 < n; ++i) {
    t.add(i, i + 1, -1.0);
    t.add(i + 1, i, -1.0);
  }
  return SparseMatrix::from_triplets(t);
}

class OrderingValidity : public ::testing::TestWithParam<OrderingMethod> {};

TEST_P(OrderingValidity, ProducesPermutationOnRandomPatterns) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    const Index n = static_cast<Index>(rng.next_int(1, 40));
    TripletList t(n, n);
    for (Index i = 0; i < n; ++i) t.add(i, i, 1.0);
    for (int e = 0; e < 2 * n; ++e) {
      const Index r = static_cast<Index>(rng.next_int(0, n - 1));
      const Index c = static_cast<Index>(rng.next_int(0, n - 1));
      t.add(r, c, 1.0);
      t.add(c, r, 1.0);
    }
    const SparseMatrix a = SparseMatrix::from_triplets(t);
    const auto perm = compute_ordering(a, GetParam());
    EXPECT_TRUE(is_permutation(perm)) << ordering_name(GetParam());
  }
}

TEST_P(OrderingValidity, HandlesDisconnectedGraphs) {
  // Two disjoint cliques of 3 + two isolated vertices.
  TripletList t(8, 8);
  for (Index i = 0; i < 8; ++i) t.add(i, i, 1.0);
  for (Index i = 0; i < 3; ++i)
    for (Index j = 0; j < 3; ++j)
      if (i != j) t.add(i, j, 1.0);
  for (Index i = 3; i < 6; ++i)
    for (Index j = 3; j < 6; ++j)
      if (i != j) t.add(i, j, 1.0);
  const SparseMatrix a = SparseMatrix::from_triplets(t);
  EXPECT_TRUE(is_permutation(compute_ordering(a, GetParam())));
}

INSTANTIATE_TEST_SUITE_P(AllMethods, OrderingValidity,
                         ::testing::Values(OrderingMethod::kNatural,
                                           OrderingMethod::kReverseCuthillMcKee,
                                           OrderingMethod::kMinimumDegree));

TEST(MinimumDegree, BeatsNaturalOnArrowhead) {
  const SparseMatrix a = arrowhead(40);
  SparseLdlt::Options natural;
  natural.ordering = OrderingMethod::kNatural;
  SparseLdlt::Options mindeg;
  mindeg.ordering = OrderingMethod::kMinimumDegree;
  const SparseLdlt f_nat(a, natural);
  const SparseLdlt f_md(a, mindeg);
  // Natural ordering eliminates the dense hub first -> complete fill-in;
  // minimum degree defers it -> zero fill (tree).
  EXPECT_EQ(f_nat.factor_nnz(), 39 * 40 / 2);
  EXPECT_EQ(f_md.factor_nnz(), 39);
}

TEST(Rcm, NoFillOnTridiagonal) {
  const SparseMatrix a = tridiagonal(30);
  SparseLdlt::Options opts;
  opts.ordering = OrderingMethod::kReverseCuthillMcKee;
  const SparseLdlt f(a, opts);
  EXPECT_EQ(f.factor_nnz(), 29);  // bandwidth preserved, no fill
}

// ---------------------------------------------------------------------------
// Minimum degree against the reference implementation
// ---------------------------------------------------------------------------

using Edge = std::pair<Index, Index>;  // (row, col) of one stored entry

/// n x n pattern storing exactly `entries`, in the given order: rows within a
/// column stay unsorted, duplicates stay duplicated and nothing is
/// symmetrised, so the ordering's own union-of-transpose handling is tested.
SparseMatrix stored_pattern(Index n, const std::vector<Edge>& entries) {
  std::vector<Index> col_ptr(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& [r, c] : entries) ++col_ptr[static_cast<std::size_t>(c) + 1];
  for (std::size_t c = 0; c < static_cast<std::size_t>(n); ++c) {
    col_ptr[c + 1] += col_ptr[c];
  }
  std::vector<Index> next(col_ptr.begin(), col_ptr.end() - 1);
  std::vector<Index> row_ind(entries.size());
  for (const auto& [r, c] : entries) {
    row_ind[static_cast<std::size_t>(next[static_cast<std::size_t>(c)]++)] = r;
  }
  return SparseMatrix::from_pattern(n, n, std::move(col_ptr),
                                    std::move(row_ind));
}

enum class Shape {
  kSparse,        // ~2 random one-sided entries per column, some duplicated
  kDenseRandom,   // each ordered pair stored with probability 0.3
  kDiagonalOnly,  // no off-diagonal entries: every degree is 0
  kDisconnected,  // random blocks on interleaved labels plus isolated nodes
  kStar,          // one hub (random index) adjacent to every other node
  kClique,        // complete graph, upper triangle stored
};

std::vector<Edge> random_entries(Index n, Shape shape, Rng& rng) {
  std::vector<Edge> e;
  if (n == 0) return e;
  const auto pick = [&] { return static_cast<Index>(rng.next_int(0, n - 1)); };
  switch (shape) {
    case Shape::kSparse:
      for (Index k = 0; k < 2 * n; ++k) {
        const Edge entry{pick(), pick()};
        e.push_back(entry);
        if (rng.next_bool(0.1)) e.push_back(entry);
        if (rng.next_bool(0.1)) e.emplace_back(entry.second, entry.first);
      }
      break;
    case Shape::kDenseRandom:
      for (Index c = 0; c < n; ++c) {
        for (Index r = 0; r < n; ++r) {
          if (rng.next_bool(0.3)) e.emplace_back(r, c);
        }
      }
      break;
    case Shape::kDiagonalOnly:
      for (Index i = 0; i < n; ++i) e.emplace_back(i, i);
      break;
    case Shape::kDisconnected: {
      // Nodes are scattered over three blocks and an isolated set; edges
      // only ever join two nodes of the same block.
      std::vector<int> block(static_cast<std::size_t>(n));
      for (auto& b : block) b = static_cast<int>(rng.next_int(0, 3));
      for (Index k = 0; k < 3 * n; ++k) {
        const Index r = pick();
        const Index c = pick();
        const int br = block[static_cast<std::size_t>(r)];
        if (br != 3 && br == block[static_cast<std::size_t>(c)]) {
          e.emplace_back(r, c);
        }
      }
      break;
    }
    case Shape::kStar: {
      const Index hub = pick();
      for (Index i = 0; i < n; ++i) {
        if (rng.next_bool()) {
          e.emplace_back(hub, i);
        } else {
          e.emplace_back(i, hub);
        }
      }
      break;
    }
    case Shape::kClique:
      for (Index c = 0; c < n; ++c) {
        for (Index r = 0; r <= c; ++r) e.emplace_back(r, c);
      }
      break;
  }
  return e;
}

TEST(MinimumDegreeOracle, MatchesReferenceOnRandomPatterns) {
  Rng rng(2024);
  for (Index n = 0; n <= 200; ++n) {
    for (const Shape shape :
         {Shape::kSparse, Shape::kDenseRandom, Shape::kDiagonalOnly,
          Shape::kDisconnected, Shape::kStar, Shape::kClique}) {
      // The reference merges dense neighbourhoods by sort, so near-cliques
      // are costly for it; every 20th size covers them.
      const bool dense =
          shape == Shape::kDenseRandom || shape == Shape::kClique;
      if (dense && n % 20 != 0) continue;
      const SparseMatrix a = stored_pattern(n, random_entries(n, shape, rng));
      const auto reference = testing::reference_min_degree_ordering(a);
      ASSERT_EQ(compute_ordering(a, OrderingMethod::kMinimumDegree), reference)
          << "n=" << n << " shape=" << static_cast<int>(shape);
      ASSERT_EQ(reference.size(), static_cast<std::size_t>(n));
    }
  }
}

/// The normal-equation pattern exactly as KktSystem::factorise builds it:
/// S = W^{-2} with its fixed block pattern, then S·G and G'·(S·G) with the
/// diagonal forced in.
SparseMatrix normal_equation_pattern(const solver::ConicProblem& problem) {
  const solver::ConeSpec& cone = problem.cone();
  solver::NtScaling scaling(cone);
  Vector e(static_cast<std::size_t>(cone.dim()));
  cone.identity(e);
  scaling.update(e, e);
  SparseMatrix s;
  scaling.inverse_squared_into(s);
  const CachedSpGemm sg(s, problem.g());
  const CachedSpGemm normal(problem.g().transpose(), sg.result(),
                            /*include_diagonal=*/true);
  return normal.result();
}

/// Asserts that compute_ordering, the reference, and the permutation a live
/// KktSystem derives for the configuration's Algorithm-1 program all agree.
void expect_matches_reference(const model::Configuration& config,
                              const std::string& label) {
  const core::BuiltProgram prog = core::build_algorithm1(config);
  const SparseMatrix pattern = normal_equation_pattern(prog.problem);
  const auto reference = testing::reference_min_degree_ordering(pattern);
  EXPECT_EQ(compute_ordering(pattern, OrderingMethod::kMinimumDegree),
            reference)
      << label;

  solver::NtScaling scaling(prog.problem.cone());
  Vector e(static_cast<std::size_t>(prog.problem.cone().dim()));
  prog.problem.cone().identity(e);
  scaling.update(e, e);
  solver::KktSystem kkt(prog.problem.g());
  kkt.factorise(scaling);
  const auto analysis = kkt.export_symbolic();
  ASSERT_TRUE(analysis.has_value()) << label;
  EXPECT_EQ(analysis->permutation, reference) << label;
}

TEST(MinimumDegreeOracle, MatchesReferenceOnGeneratedNormalEquations) {
  int checked = 0;
  const auto check = [&](const model::Configuration& config,
                         const std::string& label) {
    expect_matches_reference(config, label);
    ++checked;
  };
  check(gen::producer_consumer_t1(), "t1");
  check(gen::three_stage_chain_t2(), "t2");
  check(gen::car_entertainment_preset(), "car_entertainment");
  // At most 32 tasks per processor keeps every generated platform feasible.
  for (const Index procs : {4, 6}) {
    gen::GenParams params;
    params.num_processors = procs;
    params.seed = static_cast<std::uint64_t>(procs);
    for (const Index n : {2, 5, 16, 33, 64, 128}) {
      const std::string tag = "/" + std::to_string(n) + "/p" +
                              std::to_string(procs);
      check(gen::make_chain(n, params), "chain" + tag);
      check(gen::make_ring(std::max<Index>(n, 3), params), "ring" + tag);
      for (const double extra : {0.2, 0.45, 1.0}) {
        check(gen::make_random_dag(n, extra, params),
              "random_dag" + tag + "/" + std::to_string(extra));
      }
    }
    for (const auto& [fanout, depth] :
         {std::pair<Index, Index>{2, 3}, {4, 8}, {6, 21}}) {
      check(gen::make_split_join(fanout, depth, params),
            "split_join/" + std::to_string(fanout) + "x" +
                std::to_string(depth));
    }
    for (const auto& [jobs, per_job] :
         {std::pair<Index, Index>{2, 4}, {4, 16}, {8, 16}}) {
      check(gen::make_multi_job(jobs, per_job, params),
            "multi_job/" + std::to_string(jobs) + "x" +
                std::to_string(per_job));
    }
  }
  EXPECT_GE(checked, 60);
}

TEST(MinimumDegreeOracle, MatchesReferenceOnCorpusConfigurations) {
  const std::filesystem::path corpus = BBS_TEST_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(corpus));
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path());
    std::ostringstream text;
    text << in.rdbuf();
    const io::JsonValue doc = io::parse_json(text.str());
    const api::Request request =
        io::request_from_json_value(doc.as_object().at("request"));
    const model::Configuration config = std::visit(
        [](const auto& payload) { return payload.configuration; },
        request.payload);
    expect_matches_reference(config, entry.path().filename().string());
    ++checked;
  }
  EXPECT_GE(checked, 3u);
}

/// Selection must not scan for the minimum: a 10^5-node pattern where every
/// node ties at degree 0, and a 10^5-node path, each order in well under a
/// second in an optimised build (~0.06 s on a 4-vCPU VM; a linear-scan
/// selection takes ~7 s there). Unoptimised builds run ~6x slower.
TEST(MinimumDegree, TieHeavyPatternsAreNotQuadratic) {
  constexpr Index kN = 100000;
#ifdef NDEBUG
  constexpr double kLimitSeconds = 1.0;
#else
  constexpr double kLimitSeconds = 4.0;
#endif
  std::vector<Edge> diagonal;
  std::vector<Edge> path;
  for (Index i = 0; i < kN; ++i) {
    diagonal.emplace_back(i, i);
    path.emplace_back(i, i);
    if (i + 1 < kN) path.emplace_back(i + 1, i);
  }
  std::vector<Index> identity(static_cast<std::size_t>(kN));
  for (Index i = 0; i < kN; ++i) identity[static_cast<std::size_t>(i)] = i;
  for (const auto* entries : {&diagonal, &path}) {
    const SparseMatrix a = stored_pattern(kN, *entries);
    const auto t0 = std::chrono::steady_clock::now();
    const auto perm = compute_ordering(a, OrderingMethod::kMinimumDegree);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    // All ties go to the smallest index; on the path, eliminating node i
    // leaves i + 1 as the lowest-index degree-1 node.
    EXPECT_EQ(perm, identity);
    EXPECT_LT(seconds, kLimitSeconds);
  }
}

TEST(IsPermutation, DetectsInvalid) {
  EXPECT_TRUE(is_permutation({}));
  EXPECT_TRUE(is_permutation({0}));
  EXPECT_TRUE(is_permutation({2, 0, 1}));
  EXPECT_FALSE(is_permutation({0, 0}));
  EXPECT_FALSE(is_permutation({1, 2}));
  EXPECT_FALSE(is_permutation({-1, 0}));
}

TEST(OrderingName, AllNamed) {
  EXPECT_STREQ(ordering_name(OrderingMethod::kNatural), "natural");
  EXPECT_STREQ(ordering_name(OrderingMethod::kReverseCuthillMcKee), "rcm");
  EXPECT_STREQ(ordering_name(OrderingMethod::kMinimumDegree), "min-degree");
}

}  // namespace
}  // namespace bbs::linalg
