// The fuzz harness's own contract: deterministic case generation, a
// shrinker that converges to smaller still-failing cases, oracles that
// provably detect an injected disagreement, reproducers that round-trip,
// and the checked-in corpus replaying clean. The IPM recovery ladder is
// tested here too — the fuzzer is its main consumer (every injected
// first-attempt failure must be rescued and show up in recovered_solves).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bbs/api/engine.hpp"
#include "bbs/fuzz/fuzzer.hpp"
#include "bbs/io/api_io.hpp"
#include "testing/support.hpp"

namespace bbs::fuzz {
namespace {

using api::Engine;
using api::ErrorCode;
using api::Request;
using api::Response;
using api::ResponseStatus;

/// A spec that is feasible by construction: a short chain with a generous
/// margin, no adversarial mutations, solve request. Used where the test
/// needs a guaranteed-feasible baseline.
CaseSpec feasible_chain_spec() {
  CaseSpec spec;
  spec.seed = 99;
  spec.index = 0;
  spec.family = Family::kChain;
  spec.size_a = 3;
  spec.params = gen::GenParams{};
  spec.params.feasible_margin = 2.0;
  spec.params.seed = 7;
  spec.max_capacity = 4;
  spec.kind = RequestKind::kSolve;
  spec.extreme_wcet = false;
  spec.tiny_interval = false;
  spec.huge_interval = false;
  spec.granularity_stress = false;
  spec.near_infeasible = false;
  return spec;
}

// ---------------------------------------------------------------------------
// Deterministic generation
// ---------------------------------------------------------------------------

TEST(FuzzGenerator, SameSeedAndIndexYieldIdenticalRequests) {
  for (std::uint64_t index : {0ull, 3ull, 17ull, 41ull}) {
    const CaseSpec a = make_case(5, index);
    const CaseSpec b = make_case(5, index);
    const std::string ja =
        io::write_json_compact(io::request_to_json_value(build_request(a)));
    const std::string jb =
        io::write_json_compact(io::request_to_json_value(build_request(b)));
    EXPECT_EQ(ja, jb) << "case index " << index;
  }
}

TEST(FuzzGenerator, CaseStreamCoversFamiliesAndKinds) {
  std::vector<bool> families(5, false);
  std::vector<bool> kinds(5, false);
  bool any_mutation = false;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const CaseSpec spec = make_case(1, i);
    families[static_cast<std::size_t>(spec.family)] = true;
    kinds[static_cast<std::size_t>(spec.kind)] = true;
    any_mutation = any_mutation || spec.extreme_wcet || spec.tiny_interval ||
                   spec.huge_interval || spec.granularity_stress ||
                   spec.near_infeasible;
  }
  for (std::size_t f = 0; f < families.size(); ++f) {
    EXPECT_TRUE(families[f]) << "family " << f << " never drawn in 64 cases";
  }
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    EXPECT_TRUE(kinds[k]) << "kind " << k << " never drawn in 64 cases";
  }
  EXPECT_TRUE(any_mutation);
}

TEST(FuzzGenerator, MutatedConfigurationsAlwaysValidate) {
  // The over-subscription floor in effective_params must keep every
  // mutation combination inside the generators' preconditions — tiny
  // intervals plus granularity stress used to trip the fair-budget
  // assertion without it.
  for (std::uint64_t i = 0; i < 48; ++i) {
    CaseSpec spec = make_case(11, i);
    spec.tiny_interval = true;
    spec.granularity_stress = true;
    spec.huge_interval = false;
    const gen::GenParams p = effective_params(spec);
    const double g = static_cast<double>(p.granularity);
    EXPECT_GE(p.replenishment_interval, p.scheduling_overhead + g);
    EXPECT_NO_THROW(build_configuration(spec).validate())
        << case_label(spec);
  }
}

// ---------------------------------------------------------------------------
// Oracle sensitivity and shrinking
// ---------------------------------------------------------------------------

TEST(FuzzOracles, CleanFeasibleCasePasses) {
  Engine engine;
  FuzzOptions options;
  const CaseResult result = run_case(engine, feasible_chain_spec(), options);
  ASSERT_TRUE(result.passed) << (result.failures.empty()
                                     ? "no failure recorded"
                                     : result.failures.front());
  EXPECT_FALSE(result.infeasible);
}

TEST(FuzzOracles, InjectedObjectiveCorruptionIsDetected) {
  // inject_known_bad corrupts the reported rounded objective of every
  // feasible solve before the oracles run; the recomputed-cost consistency
  // check must fire. This is the end-to-end proof that the harness can
  // actually see a disagreement.
  Engine engine;
  FuzzOptions options;
  options.inject_known_bad = true;
  const CaseResult result = run_case(engine, feasible_chain_spec(), options);
  ASSERT_FALSE(result.passed);
  ASSERT_FALSE(result.failures.empty());
  EXPECT_NE(result.failures.front().find("disagrees"), std::string::npos)
      << result.failures.front();
}

TEST(FuzzShrinker, ConvergesToASmallerStillFailingCase) {
  Engine engine;
  FuzzOptions options;
  options.inject_known_bad = true;  // every feasible solve fails
  CaseSpec big = feasible_chain_spec();
  big.size_a = 6;
  big.params.num_processors = 4;
  big.max_capacity = 6;
  ASSERT_FALSE(run_case(engine, big, options).passed);

  const CaseSpec shrunk = shrink_case(engine, big, options);
  EXPECT_FALSE(run_case(engine, shrunk, options).passed)
      << "shrinker returned a passing case";
  EXPECT_LT(shrunk.size_a, big.size_a);
  EXPECT_LE(shrunk.params.num_processors, 2);
  EXPECT_LT(shrunk.max_capacity, big.max_capacity);
}

// ---------------------------------------------------------------------------
// Reproducers
// ---------------------------------------------------------------------------

TEST(FuzzReproducer, CaseSpecRoundTripsThroughJson) {
  CaseSpec spec = make_case(3, 12);
  // A generator seed beyond 2^53 must survive the round-trip exactly —
  // this is why it is serialised as a decimal string, not a JSON number.
  spec.params.seed = 0x9E3779B97F4A7C15ull;
  const CaseSpec back = case_spec_from_json_value(case_spec_to_json_value(spec));
  EXPECT_EQ(back.seed, spec.seed);
  EXPECT_EQ(back.index, spec.index);
  EXPECT_EQ(back.family, spec.family);
  EXPECT_EQ(back.size_a, spec.size_a);
  EXPECT_EQ(back.size_b, spec.size_b);
  EXPECT_EQ(back.max_capacity, spec.max_capacity);
  EXPECT_EQ(back.kind, spec.kind);
  EXPECT_EQ(back.variant, spec.variant);
  EXPECT_EQ(back.params.seed, spec.params.seed);
  EXPECT_EQ(back.params.num_processors, spec.params.num_processors);
  EXPECT_DOUBLE_EQ(back.params.wcet_lo, spec.params.wcet_lo);
  EXPECT_DOUBLE_EQ(back.params.feasible_margin, spec.params.feasible_margin);
  EXPECT_EQ(back.extreme_wcet, spec.extreme_wcet);
  EXPECT_EQ(back.tiny_interval, spec.tiny_interval);
  EXPECT_EQ(back.huge_interval, spec.huge_interval);
  EXPECT_EQ(back.granularity_stress, spec.granularity_stress);
  EXPECT_EQ(back.near_infeasible, spec.near_infeasible);
}

TEST(FuzzReproducer, WriteAndReplayRoundTrip) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "bbs_fuzz_test_corpus";
  std::filesystem::remove_all(dir);

  Engine engine;
  FuzzOptions inject;
  inject.inject_known_bad = true;
  const CaseSpec spec = feasible_chain_spec();
  const CaseResult bad = run_case(engine, spec, inject);
  ASSERT_FALSE(bad.passed);
  const std::string path = write_reproducer(spec, bad, dir.string());
  ASSERT_TRUE(std::filesystem::exists(path));

  // Replayed without the injection hook, the recorded request must run its
  // oracles clean — proving the stored request (not a regeneration) is
  // what replays.
  const CaseResult replayed = replay_file(path, FuzzOptions{});
  EXPECT_TRUE(replayed.passed) << (replayed.failures.empty()
                                       ? "no failure recorded"
                                       : replayed.failures.front());
  EXPECT_EQ(replayed.spec.seed, spec.seed);
  EXPECT_EQ(replayed.spec.index, spec.index);
  std::filesystem::remove_all(dir);
}

TEST(FuzzReproducer, CheckedInCorpusReplaysClean) {
  // Every corpus file is a regression: a case that once exposed a real
  // bug (false exact-infeasibility proofs, unverifiable min_period
  // mappings, over-strict token guards). Replaying them green means the
  // fixes hold.
  const std::filesystem::path corpus = BBS_TEST_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(corpus));
  std::size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (entry.path().extension() != ".json") continue;
    const CaseResult result = replay_file(entry.path().string(), FuzzOptions{});
    EXPECT_TRUE(result.passed)
        << entry.path().filename().string() << ": "
        << (result.failures.empty() ? "no failure recorded"
                                    : result.failures.front());
    ++replayed;
  }
  EXPECT_GE(replayed, 1u);
}

// ---------------------------------------------------------------------------
// Recovery ladder
// ---------------------------------------------------------------------------

Request ladder_solve() {
  Request request;
  request.id = "ladder";
  request.payload = api::SolveRequest{testing::paper_t1()};
  return request;
}

solver::SolveControl failing_control(bool only_first_attempt) {
  solver::SolveControl control;
  control.fail_at_iteration = 0;
  control.fail_only_first_attempt = only_first_attempt;
  return control;
}

TEST(FuzzRecoveryLadder, FirstAttemptFailureIsRescued) {
  Engine engine;
  const Response response = engine.run(ladder_solve(), failing_control(true));
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_GE(response.diagnostics.recovered_solves, 1);
  const auto& mapping = std::get<api::SolvePayload>(response.payload).mapping;
  EXPECT_TRUE(mapping.recovered);
  EXPECT_GE(mapping.recovery_attempts, 1);
  EXPECT_TRUE(mapping.verified);
  // The ladder only mutates numeric values of the KKT system; the symbolic
  // factorisation of the pooled session must survive the rescued retry.
  EXPECT_EQ(response.diagnostics.symbolic_factorisations, 1);
  EXPECT_GE(engine.stats().recovered_solves, 1u);

  // The session stays healthy: a clean follow-up request reuses it and
  // still reports the single symbolic factorisation.
  Request clean;
  clean.id = "clean";
  clean.payload = api::SolveRequest{testing::paper_t1()};
  const Response again = engine.run(clean);
  ASSERT_EQ(again.status, ResponseStatus::kOk);
  EXPECT_TRUE(again.diagnostics.session_reused);
  EXPECT_EQ(again.diagnostics.symbolic_factorisations, 1);
  EXPECT_EQ(again.diagnostics.recovered_solves, 0);
}

TEST(FuzzRecoveryLadder, PersistentFailureIsAStructuredNumericalError) {
  // ipm.fail_at re-fires on every ladder attempt, so no amount of
  // regularisation can rescue it — the engine must report a structured
  // numerical_failure instead of looping or crashing.
  Engine engine;
  const Response response =
      engine.run(ladder_solve(), failing_control(false));
  ASSERT_EQ(response.status, ResponseStatus::kError);
  EXPECT_EQ(response.error_code, ErrorCode::kNumericalFailure);
  EXPECT_EQ(engine.stats().recovered_solves, 0u);
}

TEST(FuzzRecoveryLadder, DisabledLadderReportsTheFailure) {
  Engine engine;
  Request request = ladder_solve();
  request.options.ipm.recovery_attempts = 0;
  const Response response = engine.run(request, failing_control(true));
  ASSERT_EQ(response.status, ResponseStatus::kError);
  EXPECT_EQ(response.error_code, ErrorCode::kNumericalFailure);
}

TEST(FuzzRecoveryLadder, FuzzOptionsSurfaceRecoveredSolves) {
  // The summary must expose engine-wide rescues so CI can assert that an
  // injected-fault fuzz run actually exercised the ladder.
  Engine engine;
  CaseSpec spec = feasible_chain_spec();
  FuzzOptions options;
  options.inject_fail_first = true;
  const CaseResult result =
      run_request_checks(engine, spec, build_request(spec), options);
  ASSERT_TRUE(result.passed) << (result.failures.empty()
                                     ? "no failure recorded"
                                     : result.failures.front());
  EXPECT_GE(result.recovered_solves, 1);
}

}  // namespace
}  // namespace bbs::fuzz
