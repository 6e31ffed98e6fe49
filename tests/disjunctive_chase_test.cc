#include "chase/disjunctive_chase.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/dependency_parser.h"
#include "fuzz/reference_chase.h"
#include "generator/scenarios.h"
#include "test_util.h"

namespace rdx {
namespace {

using testing_util::D;
using testing_util::I;

TEST(DisjunctiveChaseTest, NonDisjunctiveBehavesLikeChase) {
  RDX_ASSERT_OK_AND_ASSIGN(
      DisjunctiveChaseResult r,
      DisjunctiveChase(I("DjT_Q(a, b)"), {D("DjT_Q(x, y) -> DjT_P(x, y)")}));
  ASSERT_EQ(r.added.size(), 1u);
  EXPECT_EQ(r.added[0], I("DjT_P(a, b)"));
}

TEST(DisjunctiveChaseTest, TwoWayBranch) {
  RDX_ASSERT_OK_AND_ASSIGN(
      DisjunctiveChaseResult r,
      DisjunctiveChase(I("DjT_Q(a, a)"),
                       {D("DjT_Q(x, x) -> DjT_T(x) | DjT_P(x, x)")}));
  ASSERT_EQ(r.added.size(), 2u);
  // Branch order is deterministic: disjuncts in order.
  EXPECT_EQ(r.added[0], I("DjT_T(a)"));
  EXPECT_EQ(r.added[1], I("DjT_P(a, a)"));
}

TEST(DisjunctiveChaseTest, BranchesMultiplyAcrossFacts) {
  RDX_ASSERT_OK_AND_ASSIGN(
      DisjunctiveChaseResult r,
      DisjunctiveChase(I("DjT_Q(a, a). DjT_Q(b, b)"),
                       {D("DjT_Q(x, x) -> DjT_T(x) | DjT_P(x, x)")}));
  // 2 facts × 2 disjuncts = 4 distinct completed branches.
  EXPECT_EQ(r.added.size(), 4u);
}

TEST(DisjunctiveChaseTest, AlreadySatisfiedDisjunctStopsBranching) {
  RDX_ASSERT_OK_AND_ASSIGN(
      DisjunctiveChaseResult r,
      DisjunctiveChase(I("DjT_Q(a, a). DjT_T(a)"),
                       {D("DjT_Q(x, x) -> DjT_T(x) | DjT_P(x, x)")}));
  ASSERT_EQ(r.added.size(), 1u);
  EXPECT_TRUE(r.added[0].empty());
}

TEST(DisjunctiveChaseTest, InequalityGuardedDependency) {
  std::vector<Dependency> deps = {
      D("DjT_Q(x, y) & x != y -> DjT_P(x, y)"),
      D("DjT_Q(x, x) -> DjT_T(x) | DjT_P(x, x)")};
  RDX_ASSERT_OK_AND_ASSIGN(
      DisjunctiveChaseResult r,
      DisjunctiveChase(I("DjT_Q(a, b). DjT_Q(c, c)"), deps));
  ASSERT_EQ(r.added.size(), 2u);
  EXPECT_EQ(r.added[0], I("DjT_P(a, b). DjT_T(c)"));
  EXPECT_EQ(r.added[1], I("DjT_P(a, b). DjT_P(c, c)"));
}

TEST(DisjunctiveChaseTest, ExistentialDisjunct) {
  RDX_ASSERT_OK_AND_ASSIGN(
      DisjunctiveChaseResult r,
      DisjunctiveChase(
          I("DjT_R1(a)"),
          {D("DjT_R1(x) -> DjT_P(x, x) | EXISTS y: DjT_Q(x, y)")}));
  ASSERT_EQ(r.added.size(), 2u);
  EXPECT_EQ(r.added[0], I("DjT_P(a, a)"));
  ASSERT_EQ(r.added[1].size(), 1u);
  EXPECT_TRUE(r.added[1].facts()[0].args()[1].IsNull());
}

TEST(DisjunctiveChaseTest, HomEquivalentBranchesDeduped) {
  // Both disjuncts produce hom-equivalent results for this input.
  RDX_ASSERT_OK_AND_ASSIGN(
      DisjunctiveChaseResult r,
      DisjunctiveChase(
          I("DjT_R1(a)"),
          {D("DjT_R1(x) -> EXISTS y: DjT_Q(x, y) | EXISTS z: DjT_Q(x, z)")}));
  EXPECT_EQ(r.added.size(), 1u);
}

TEST(DisjunctiveChaseTest, DedupCanBeDisabled) {
  DisjunctiveChaseOptions options;
  options.dedup_hom_equivalent = false;
  RDX_ASSERT_OK_AND_ASSIGN(
      DisjunctiveChaseResult r,
      DisjunctiveChase(
          I("DjT_R1(a)"),
          {D("DjT_R1(x) -> EXISTS y: DjT_Q(x, y) | EXISTS z: DjT_Q(x, z)")},
          options));
  EXPECT_EQ(r.added.size(), 2u);
}

TEST(DisjunctiveChaseTest, CompletedBranchesSatisfyDependencies) {
  std::vector<Dependency> deps = {
      D("DjT_Q(x, y) -> DjT_P(x, y) | DjT_T(x)")};
  Instance input = I("DjT_Q(a, b). DjT_Q(b, c)");
  RDX_ASSERT_OK_AND_ASSIGN(DisjunctiveChaseResult r,
                           DisjunctiveChase(input, deps));
  ASSERT_FALSE(r.combined.empty());
  for (const Instance& branch : r.combined) {
    RDX_ASSERT_OK_AND_ASSIGN(bool sat, SatisfiesAll(branch, deps));
    EXPECT_TRUE(sat) << branch.ToString();
  }
}

TEST(DisjunctiveChaseTest, StepBudgetEnforced) {
  DisjunctiveChaseOptions options;
  options.max_steps = 2;
  Result<DisjunctiveChaseResult> r = DisjunctiveChase(
      I("DjT_Q(a, a). DjT_Q(b, b). DjT_Q(c, c)"),
      {D("DjT_Q(x, x) -> DjT_T(x) | DjT_P(x, x)")}, options);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(DisjunctiveChaseTest, Theorem52RecoveryChase) {
  // Σ* of Theorem 5.2 applied to the chase of {P(0,1), T(2)}:
  // P'(0,1) with 0≠1 forces P(0,1); P'(2,2) branches into T(2) | P(2,2).
  std::vector<Dependency> deps = {
      D("DjT_Pp(x, y) & x != y -> DjT_P(x, y)"),
      D("DjT_Pp(x, x) -> DjT_T(x) | DjT_P(x, x)")};
  RDX_ASSERT_OK_AND_ASSIGN(
      DisjunctiveChaseResult r,
      DisjunctiveChase(I("DjT_Pp(0, 1). DjT_Pp(2, 2)"), deps));
  ASSERT_EQ(r.added.size(), 2u);
  EXPECT_EQ(r.added[0], I("DjT_P(0, 1). DjT_T(2)"));
  EXPECT_EQ(r.added[1], I("DjT_P(0, 1). DjT_P(2, 2)"));
}

// PathSplit (Theorem 3.15(3)): chase M over `facts` source edges laid out
// as paths of ten edges, then the disjunctive chase of the reverse M' over
// the result, with the run's match work accumulated into *match_stats.
void PathSplitReverseChase(std::size_t facts, MatchStats* match_stats,
                           DisjunctiveChaseStats* dchase_stats) {
  scenarios::Scenario s = scenarios::PathSplit();
  Relation p = Relation::MustIntern("PathP", 2);
  Instance source;
  for (std::size_t i = 0; i < facts; ++i) {
    const std::size_t path = i / 10;
    source.AddFact(Fact::MustMake(
        p, {Value::MakeConstant(StrCat("cl", path, "_", i % 10)),
            Value::MakeConstant(StrCat("cl", path, "_", i % 10 + 1))}));
  }
  RDX_ASSERT_OK_AND_ASSIGN(Instance target, ChaseMapping(s.mapping, source));
  DisjunctiveChaseOptions options;
  options.match_options.stats = match_stats;
  RDX_ASSERT_OK_AND_ASSIGN(
      DisjunctiveChaseResult r,
      DisjunctiveChase(target, s.reverse->dependencies(), options));
  ASSERT_EQ(r.added.size(), 1u);
  *dchase_stats = r.stats;
}

// Regression for the quadratic disjunctive chase: every step used to
// re-match every dependency body over the whole branch, so 4x the facts
// cost ~16x the match work. Counted, not timed, so it is deterministic.
TEST(DisjunctiveChaseTest, MatchWorkGrowsLinearlyOnPathSplitReverse) {
  MatchStats small, large;
  DisjunctiveChaseStats small_run, large_run;
  PathSplitReverseChase(200, &small, &small_run);
  PathSplitReverseChase(800, &large, &large_run);
  ASSERT_GT(small.steps, 0u);
  // The step count itself is linear in the instance.
  EXPECT_LE(large_run.steps, 5 * small_run.steps);
  const double ratio =
      static_cast<double>(large.steps) / static_cast<double>(small.steps);
  EXPECT_LE(ratio, 5.0) << "match steps " << small.steps << " at 200 facts, "
                        << large.steps << " at 800 facts";
}

struct ReferenceCase {
  std::string name;
  std::string input;
  std::vector<std::string> deps;
  bool dedup = true;
  uint64_t max_steps = 1'000'000;
  uint64_t num_threads = 1;
};

// The exactness contract against the per-step reference engine
// (fuzz/reference_chase.h), over every input of this file and of
// edge_cases_test.cc, plus same-schema sets whose heads feed a body (the
// re-enumeration path).
TEST(DisjunctiveChaseTest, MatchesReferenceEngine) {
  const std::string branch = "DjT_Q(x, x) -> DjT_T(x) | DjT_P(x, x)";
  const std::string dedup = "DjT_R1(x) -> EXISTS y: DjT_Q(x, y) | "
                            "EXISTS z: DjT_Q(x, z)";
  const std::vector<std::string> theorem52 = {
      "DjT_Pp(x, y) & x != y -> DjT_P(x, y)", "DjT_Pp(x, x) -> DjT_T(x) | "
                                              "DjT_P(x, x)"};
  const std::vector<ReferenceCase> cases = {
      {"plain", "DjT_Q(a, b)", {"DjT_Q(x, y) -> DjT_P(x, y)"}},
      {"two_way", "DjT_Q(a, a)", {branch}},
      {"multiply", "DjT_Q(a, a). DjT_Q(b, b)", {branch}},
      {"presatisfied", "DjT_Q(a, a). DjT_T(a)", {branch}},
      {"inequality", "DjT_Q(a, b). DjT_Q(c, c)",
       {"DjT_Q(x, y) & x != y -> DjT_P(x, y)", branch}},
      {"existential", "DjT_R1(a)",
       {"DjT_R1(x) -> DjT_P(x, x) | EXISTS y: DjT_Q(x, y)"}},
      {"hom_dedup", "DjT_R1(a)", {dedup}},
      {"no_dedup", "DjT_R1(a)", {dedup}, /*dedup=*/false},
      // Equal worlds are dropped even with hom-equivalence dedup off.
      {"exact_duplicate", "DjT_R1(a)",
       {"DjT_R1(x) -> DjT_P(x, x) | DjT_P(x, x)"}, /*dedup=*/false},
      // A world with nulls hom-equivalent to an earlier ground one.
      {"ground_vs_null_dedup", "DjT_R1(a)",
       {"DjT_R1(x) -> DjT_P(x, x) | EXISTS y: DjT_P(x, x) & DjT_P(x, y)"}},
      {"satisfied_worlds", "DjT_Q(a, b). DjT_Q(b, c)",
       {"DjT_Q(x, y) -> DjT_P(x, y) | DjT_T(x)"}},
      {"step_budget", "DjT_Q(a, a). DjT_Q(b, b). DjT_Q(c, c)", {branch},
       true, /*max_steps=*/2},
      {"theorem52", "DjT_Pp(0, 1). DjT_Pp(2, 2)", theorem52},
      {"theorem52_threads", "DjT_Pp(0, 1). DjT_Pp(2, 2). DjT_Pp(3, 3)",
       theorem52, true, 1'000'000, /*num_threads=*/4},
      {"constant_guard", "EdgQ(a, a). EdgQ(?N, ?N)",
       {"EdgQ(x, x) & Constant(x) -> EdgA(x) | EdgB(x)"}},
      // Same-schema: the second disjunct writes the body relation.
      {"head_feeds_body", "DjR_E(a, b). DjR_E(c, c)",
       {"DjR_E(x, y) -> DjR_T(x) | DjR_E(y, x)"}},
      // Same-schema with existentials and a chain through two bodies.
      {"existential_feeds_body", "DjR_A(a). DjR_A(b)",
       {"DjR_A(x) -> EXISTS y: DjR_B(x, y)",
        "DjR_B(x, y) -> DjR_C(y) | DjR_D(x)",
        "DjR_C(y) & DjR_B(x, y) -> DjR_D(x)"}},
      // Same-schema transitive closure with a branch on every new edge.
      {"closure", "DjR_G(a, b). DjR_G(b, c). DjR_G(c, a)",
       {"DjR_G(x, y) & DjR_G(y, z) -> DjR_G(x, z)",
        "DjR_G(x, x) -> DjR_L(x) | DjR_M(x)"}},
  };
  for (const ReferenceCase& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<Dependency> deps;
    for (const std::string& d : c.deps) deps.push_back(D(d));
    DisjunctiveChaseOptions options;
    options.dedup_hom_equivalent = c.dedup;
    options.max_steps = c.max_steps;
    options.num_threads = c.num_threads;
    Result<std::string> diff =
        fuzz::CompareWithReferenceChase(I(c.input), deps, options);
    if (c.name == "step_budget") {
      ASSERT_FALSE(diff.ok());
      EXPECT_EQ(diff.status().code(), StatusCode::kResourceExhausted);
      continue;
    }
    ASSERT_TRUE(diff.ok()) << diff.status().ToString();
    EXPECT_EQ(*diff, "");
  }
}

// The same contract over the paper scenarios' reverse mappings, applied
// to the forward chase of a small source with nulls and diagonals.
TEST(DisjunctiveChaseTest, PaperReverseMappingsMatchReferenceEngine) {
  for (const scenarios::Scenario& s : scenarios::AllScenarios()) {
    SCOPED_TRACE(s.name);
    Instance source;
    for (const Relation& r : s.mapping.source().relations()) {
      for (std::size_t i = 0; i < 3; ++i) {
        std::vector<Value> args;
        for (uint32_t pos = 0; pos < r.arity(); ++pos) {
          // Diagonals on i == 0, a null in the last column on i == 2.
          args.push_back(i == 2 && pos + 1 == r.arity()
                             ? Value::MakeNull(StrCat("rf", pos))
                             : Value::MakeConstant(
                                   StrCat("rc", i == 0 ? 0 : i + pos)));
        }
        source.AddFact(Fact::MustMake(r, args));
      }
    }
    RDX_ASSERT_OK_AND_ASSIGN(Instance target,
                             ChaseMapping(s.mapping, source));
    for (const auto* reverse : {&s.reverse, &s.alt_reverse}) {
      if (!reverse->has_value()) continue;
      for (uint64_t threads : {uint64_t{1}, uint64_t{4}}) {
        DisjunctiveChaseOptions options;
        options.num_threads = threads;
        Result<std::string> diff = fuzz::CompareWithReferenceChase(
            target, (*reverse)->dependencies(), options);
        ASSERT_TRUE(diff.ok()) << diff.status().ToString();
        EXPECT_EQ(*diff, "");
      }
    }
  }
}

}  // namespace
}  // namespace rdx
