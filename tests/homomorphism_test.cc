#include "core/homomorphism.h"

#include <gtest/gtest.h>

#include "fuzz/reference_hom.h"
#include "test_util.h"

namespace rdx {
namespace {

using testing_util::ExpectHom;
using testing_util::ExpectHomEquiv;
using testing_util::I;

TEST(HomomorphismTest, IdentityAlwaysExists) {
  Instance inst = I("HomT_P(a, ?X). HomT_P(?X, b)");
  ExpectHom(inst, inst);
}

TEST(HomomorphismTest, EmptySourceMapsAnywhere) {
  Instance empty;
  ExpectHom(empty, I("HomT_P(a, b)"));
  ExpectHom(empty, empty);
}

TEST(HomomorphismTest, NonEmptyToEmptyFails) {
  ExpectHom(I("HomT_P(a, b)"), Instance(), false);
}

TEST(HomomorphismTest, GroundCaseIsSubset) {
  // For ground instances I1 → I2 iff I1 ⊆ I2 (Section 1).
  Instance i1 = I("HomT_P(a, b)");
  Instance i2 = I("HomT_P(a, b). HomT_P(b, c)");
  ExpectHom(i1, i2);
  ExpectHom(i2, i1, false);
}

TEST(HomomorphismTest, ConstantsAreRigid) {
  ExpectHom(I("HomT_P(a, a)"), I("HomT_P(b, b)"), false);
  ExpectHom(I("HomT_Q1(a)"), I("HomT_Q1(b)"), false);
}

TEST(HomomorphismTest, NullMapsToConstant) {
  ExpectHom(I("HomT_P(?X, b)"), I("HomT_P(a, b)"));
}

TEST(HomomorphismTest, NullMapsToNull) {
  ExpectHom(I("HomT_P(?X, ?Y)"), I("HomT_P(?Z, ?Z)"));
}

TEST(HomomorphismTest, SharedNullForcesConsistency) {
  // ?X occurs twice; both occurrences must map to the same value.
  ExpectHom(I("HomT_P(?X, ?X)"), I("HomT_P(a, b)"), false);
  ExpectHom(I("HomT_P(?X, ?X)"), I("HomT_P(a, a)"));
}

TEST(HomomorphismTest, CrossFactConsistency) {
  Instance from = I("HomT_P(a, ?X). HomT_P(?X, b)");
  ExpectHom(from, I("HomT_P(a, c). HomT_P(c, b)"));
  ExpectHom(from, I("HomT_P(a, c). HomT_P(d, b)"), false);
}

TEST(HomomorphismTest, TwoFactsCanMapToOne) {
  // Homomorphisms need not be injective.
  ExpectHom(I("HomT_P(?X, b). HomT_P(?Y, b)"), I("HomT_P(a, b)"));
}

TEST(HomomorphismTest, Example11Instances) {
  // V = {P(a,b,Z), P(X,b,c)} → I = {P(a,b,c)} and not vice versa... in
  // fact I ⊆-embeds nowhere in V? I → V fails since P(a,b,c) ∉ V's
  // possible images (V has no ground fact covering it) — but wait,
  // homomorphisms go INTO V: constants fixed, V has no fact (a,b,c).
  Instance v = I("HomT_P3(a, b, ?Z). HomT_P3(?X, b, c)");
  Instance orig = I("HomT_P3(a, b, c)");
  ExpectHom(v, orig);
  ExpectHom(orig, v, false);
}

TEST(HomomorphismTest, FindReturnsWitness) {
  Instance from = I("HomT_P(a, ?X)");
  Instance to = I("HomT_P(a, b)");
  Result<std::optional<ValueMap>> h = FindHomomorphism(from, to);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->has_value());
  Instance image = from.Apply(**h);
  EXPECT_TRUE(image.SubsetOf(to));
}

TEST(HomomorphismTest, SeedConstrainsSearch) {
  Instance from = I("HomT_P(?X, b)");
  Instance to = I("HomT_P(a, b). HomT_P(c, b)");
  ValueMap seed;
  seed.emplace(Value::MakeNull("X"), Value::MakeConstant("c"));
  Result<std::optional<ValueMap>> h = FindHomomorphism(from, to, seed);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(h->has_value());
  EXPECT_EQ((*h)->at(Value::MakeNull("X")), Value::MakeConstant("c"));

  // An unsatisfiable seed yields no homomorphism.
  ValueMap bad_seed;
  bad_seed.emplace(Value::MakeNull("X"), Value::MakeConstant("zzz"));
  Result<std::optional<ValueMap>> none =
      FindHomomorphism(from, to, bad_seed);
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->has_value());
}

TEST(HomomorphismTest, SeedMayNotMoveConstants) {
  ValueMap seed;
  seed.emplace(Value::MakeConstant("a"), Value::MakeConstant("b"));
  Result<std::optional<ValueMap>> h =
      FindHomomorphism(I("HomT_P(a, b)"), I("HomT_P(b, b)"), seed);
  EXPECT_FALSE(h.ok());
}

TEST(HomomorphismTest, HomEquivalenceOfRenamings) {
  ExpectHomEquiv(I("HomT_P(?A, ?B)"), I("HomT_P(?C, ?D)"));
  ExpectHomEquiv(I("HomT_P(?A, ?A)"), I("HomT_P(?C, ?D)"), false);
}

TEST(HomomorphismTest, DifferentRelationsNeverMap) {
  ExpectHom(I("HomT_Q1(a)"), I("HomT_R1(a)"), false);
}

TEST(HomomorphismTest, CycleIntoShorterCycleNeedsDivisibility) {
  // A 4-cycle of nulls maps onto a 2-cycle; a 3-cycle does not.
  Instance two = I("HomT_E(?A, ?B). HomT_E(?B, ?A)");
  Instance four =
      I("HomT_E(?C, ?D). HomT_E(?D, ?E). HomT_E(?E, ?F). HomT_E(?F, ?C)");
  Instance three = I("HomT_E(?G, ?H). HomT_E(?H, ?K). HomT_E(?K, ?G)");
  ExpectHom(four, two);
  ExpectHom(three, two, false);
}

TEST(HomomorphismTest, DomainFilterAgreesWithSearch) {
  // The preprocessing filter must be semantically transparent: on a sweep
  // of positive and negative cases, filtered and unfiltered searches
  // agree.
  HomomorphismOptions filtered;
  filtered.use_domain_filter = true;
  HomomorphismOptions raw;
  raw.use_domain_filter = false;
  std::vector<std::pair<Instance, Instance>> cases = {
      {I("HomT_P(?X, b)"), I("HomT_P(a, b)")},
      {I("HomT_P(?X, ?X)"), I("HomT_P(a, b)")},
      {I("HomT_P(?X, ?X)"), I("HomT_P(a, a)")},
      {I("HomT_P(a, ?X). HomT_P(?X, b)"), I("HomT_P(a, c). HomT_P(c, b)")},
      {I("HomT_P(a, ?X). HomT_P(?X, b)"), I("HomT_P(a, c). HomT_P(d, b)")},
      {I("HomT_P(?X, zz9)"), I("HomT_P(a, b)")},
      {Instance(), I("HomT_P(a, b)")},
      {I("HomT_P(a, b)"), Instance()},
  };
  for (const auto& [from, to] : cases) {
    RDX_ASSERT_OK_AND_ASSIGN(bool with, HasHomomorphism(from, to, filtered));
    RDX_ASSERT_OK_AND_ASSIGN(bool without, HasHomomorphism(from, to, raw));
    EXPECT_EQ(with, without)
        << from.ToString() << " -> " << to.ToString();
  }
}

TEST(HomomorphismTest, DomainFilterRespectsSeeds) {
  // The filter must not reject a seed-compatible mapping nor accept a
  // seed whose value is outside the null's domain.
  HomomorphismOptions filtered;
  filtered.use_domain_filter = true;
  Instance from = I("HomT_P(?X, b)");
  Instance to = I("HomT_P(a, b). HomT_P(c, b)");
  ValueMap ok_seed;
  ok_seed.emplace(Value::MakeNull("X"), Value::MakeConstant("a"));
  RDX_ASSERT_OK_AND_ASSIGN(std::optional<ValueMap> h,
                           FindHomomorphism(from, to, ok_seed, filtered));
  EXPECT_TRUE(h.has_value());
  ValueMap bad_seed;
  bad_seed.emplace(Value::MakeNull("X"), Value::MakeConstant("b"));
  RDX_ASSERT_OK_AND_ASSIGN(std::optional<ValueMap> none,
                           FindHomomorphism(from, to, bad_seed, filtered));
  EXPECT_FALSE(none.has_value());
}


TEST(IsomorphismTest, RenamedNullsAreIsomorphic) {
  Instance a = I("HomT_P(?A, ?B). HomT_P(?B, c)");
  Instance b = a.RenameNullsFresh();
  RDX_ASSERT_OK_AND_ASSIGN(bool iso, AreIsomorphic(a, b));
  EXPECT_TRUE(iso);
}

TEST(IsomorphismTest, FinerThanHomEquivalence) {
  // Hom-equivalent but not isomorphic: the second instance has a
  // redundant fact.
  Instance a = I("HomT_P(?X, ?X)");
  Instance b = I("HomT_P(?Y, ?Y). HomT_P(?Y, ?Z)");
  ExpectHomEquiv(a, b);
  RDX_ASSERT_OK_AND_ASSIGN(bool iso, AreIsomorphic(a, b));
  EXPECT_FALSE(iso);
}

TEST(IsomorphismTest, NullsMayNotMapToConstants) {
  Instance a = I("HomT_P(?X, b)");
  Instance b = I("HomT_P(a, b)");
  RDX_ASSERT_OK_AND_ASSIGN(bool hom, HasHomomorphism(a, b));
  EXPECT_TRUE(hom);
  RDX_ASSERT_OK_AND_ASSIGN(bool iso, AreIsomorphic(a, b));
  EXPECT_FALSE(iso);
}

TEST(IsomorphismTest, SharedStructureMatters) {
  // Same sizes, same null counts, different sharing patterns.
  Instance a = I("HomT_P(?A, ?B). HomT_P(?B, ?C)");   // chain
  Instance b = I("HomT_P(?D, ?E). HomT_P(?F, ?E)");   // co-chain
  RDX_ASSERT_OK_AND_ASSIGN(bool iso, AreIsomorphic(a, b));
  EXPECT_FALSE(iso);
  RDX_ASSERT_OK_AND_ASSIGN(bool self_iso, AreIsomorphic(a, a));
  EXPECT_TRUE(self_iso);
}

TEST(IsomorphismTest, GroundIsomorphismIsEquality) {
  Instance a = I("HomT_P(a, b). HomT_P(b, c)");
  Instance b = I("HomT_P(b, c). HomT_P(a, b)");
  RDX_ASSERT_OK_AND_ASSIGN(bool iso, AreIsomorphic(a, b));
  EXPECT_TRUE(iso);
  RDX_ASSERT_OK_AND_ASSIGN(bool not_iso,
                           AreIsomorphic(a, I("HomT_P(a, b). HomT_P(b, d)")));
  EXPECT_FALSE(not_iso);
}

TEST(IsomorphismTest, InjectiveSeedRespected) {
  // Two nulls may not share an image in injective mode.
  HomomorphismOptions options;
  options.injective = true;
  Instance from = I("HomT_P(?X, ?Y)");
  Instance to = I("HomT_P(?Z, ?Z)");
  RDX_ASSERT_OK_AND_ASSIGN(std::optional<ValueMap> h,
                           FindHomomorphism(from, to, {}, options));
  EXPECT_FALSE(h.has_value());
}

TEST(HomomorphismTest, BudgetExhaustionSurfaces) {
  // A pathological all-nulls bipartite-ish pattern with a tiny budget.
  Instance from = I(
      "HomT_B(?X1, ?Y1). HomT_B(?X2, ?Y2). HomT_B(?X3, ?Y3). "
      "HomT_B(?X4, ?Y4). HomT_B(?X5, ?Y5)");
  Instance to = I("HomT_B(a, b). HomT_B(b, c). HomT_B(c, d)");
  HomomorphismOptions options;
  options.max_steps = 2;
  Result<bool> r = HasHomomorphism(from, to, options);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// Block-search cases with a known answer, each also checked against the
// brute-force reference; every returned map is validated as a witness.
struct BlockCase {
  const char* name;
  const char* from;
  const char* to;
  // Seed as (null label, value); a value starting with '?' is a null.
  std::vector<std::pair<const char*, const char*>> seed;
  bool injective;  // injective and null-to-null, as AreIsomorphic searches
  bool expected;
};

TEST(HomomorphismTest, BlockSearchCasesAgreeWithReference) {
  const std::vector<BlockCase> cases = {
      {"last block fails on a join",
       "HomT_P(?A, a). HomT_P(?B, b). HomT_P(?X, ?Y). HomT_P(?Y, ?X)",
       "HomT_P(c, a). HomT_P(c, b). HomT_P(a, b)", {}, false, false},
      {"last block has no candidate",
       "HomT_P(?A, a). HomT_P(?B, b). HomT_P(?C, zz)",
       "HomT_P(c, a). HomT_P(c, b)", {}, false, false},
      {"every block maps", "HomT_P(?A, a). HomT_P(?B, b). HomT_P(?X, ?Y)",
       "HomT_P(c, a). HomT_P(c, b)", {}, false, true},
      {"missing ground fact", "HomT_P(a, b). HomT_P(?X, c)", "HomT_P(d, c)",
       {}, false, false},
      {"present ground fact", "HomT_P(d, c). HomT_P(?X, c)", "HomT_P(d, c)",
       {}, false, true},
      {"seed binds two blocks", "HomT_P(?X, a). HomT_P(?Y, b)",
       "HomT_P(c, a). HomT_P(d, a). HomT_P(d, b)", {{"X", "d"}, {"Y", "d"}},
       false, true},
      {"seed in a second block refutes", "HomT_P(?X, a). HomT_P(?Y, b)",
       "HomT_P(c, a). HomT_P(d, a). HomT_P(d, b)", {{"X", "d"}, {"Y", "c"}},
       false, false},
      {"injective blocks compete for one target block",
       "HomT_P(?A1, ?A2). HomT_P(?B1, ?B2). HomT_P(?B2, ?B3)",
       "HomT_P(?E, ?F). HomT_P(?F, ?G). HomT_P(?H, ?K)", {}, true, true},
      {"injective blocks cannot share a target",
       "HomT_P(?A1, ?A2). HomT_P(?B1, ?B2)", "HomT_P(?E, ?F)", {}, true,
       false},
      {"empty source", "", "HomT_P(a, b)", {}, false, true},
      {"empty source into empty target", "", "", {}, true, true},
  };
  for (const BlockCase& c : cases) {
    SCOPED_TRACE(c.name);
    const Instance from = I(c.from);
    const Instance to = I(c.to);
    ValueMap seed;
    for (const auto& [null, value] : c.seed) {
      seed.emplace(Value::MakeNull(null),
                   value[0] == '?' ? Value::MakeNull(value + 1)
                                   : Value::MakeConstant(value));
    }
    HomomorphismOptions options;
    options.injective = c.injective;
    options.nulls_to_nulls = c.injective;
    RDX_ASSERT_OK_AND_ASSIGN(std::optional<ValueMap> h,
                             FindHomomorphism(from, to, seed, options));
    RDX_ASSERT_OK_AND_ASSIGN(
        std::optional<ValueMap> reference,
        fuzz::ReferenceFindHomomorphism(from, to, seed, options));
    EXPECT_EQ(h.has_value(), c.expected);
    EXPECT_EQ(reference.has_value(), c.expected);
    if (h.has_value()) {
      EXPECT_EQ(fuzz::CheckHomomorphismWitness(from, to, seed, options, *h),
                "");
    }
  }
}

TEST(HomomorphismTest, StatsCountNullBlocks) {
  // Two ground facts (probes, no block) and three null-blocks; the masked
  // core path searches its facts as one block.
  Instance from = I(
      "HomT_P(a, b). HomT_P(?X, ?Y). HomT_P(?Y, a). HomT_P(?Z, b). "
      "HomT_P(b, a). HomT_P(?W, ?W)");
  Instance to = I("HomT_P(a, b). HomT_P(b, a). HomT_P(a, a)");
  HomomorphismStats stats;
  HomomorphismOptions options;
  options.stats = &stats;
  RDX_ASSERT_OK_AND_ASSIGN(bool hom, HasHomomorphism(from, to, options));
  EXPECT_TRUE(hom);
  EXPECT_EQ(stats.blocks, 3u);

  FactIndex index(to);
  std::vector<const Fact*> facts;
  for (const Fact& f : from.facts()) facts.push_back(&f);
  HomomorphismStats masked_stats;
  options.stats = &masked_stats;
  RDX_ASSERT_OK_AND_ASSIGN(
      std::optional<ValueMap> h,
      FindHomomorphismMasked(facts, index, /*mask=*/nullptr, kNoFactOrdinal,
                             options));
  EXPECT_TRUE(h.has_value());
  EXPECT_EQ(masked_stats.blocks, 1u);
}

// The input of BM_HomEquivalence/<facts> (bench/bench_homomorphism.cc).
Instance BenchRandomGraph(std::size_t facts, double null_ratio,
                          uint64_t seed) {
  Rng rng(seed);
  Schema schema;
  (void)schema.AddRelation(Relation::MustIntern("BhE", 2));
  InstanceGenOptions options;
  options.num_facts = facts;
  options.num_constants = facts / 2 + 2;
  options.num_nulls = (facts / 2 + 2) / 2 + 1;
  options.null_ratio = null_ratio;
  return RandomInstance(schema, options, &rng);
}

TEST(HomomorphismTest, EquivalenceOnRandomGraph400FitsStepBudget) {
  // Both directions always have a witness (the null renaming). A search
  // over the whole source backtracked through unrelated null components
  // for seconds here; block by block it fits a small step budget.
  Instance a = BenchRandomGraph(400, 0.3, 13);
  Instance b = a.RenameNullsFresh();
  HomomorphismOptions options;
  options.max_steps = 20'000;
  Result<bool> equiv = AreHomEquivalent(a, b, options);
  ASSERT_TRUE(equiv.ok()) << equiv.status().ToString();
  EXPECT_TRUE(*equiv);
}

TEST(HomomorphismTest, RigidRefutationOnFirstStep) {
  // The input of BM_HomNegative/400: a null-weakened copy plus one fact
  // whose constant occurs nowhere in the target. Its block has no
  // candidate, so it is searched first and refutes on the first step.
  Instance to = BenchRandomGraph(400, 0.0, 12);
  ValueMap weaken;
  for (const Value& v : to.ActiveDomain()) {
    Rng coin(v.Hash() ^ 0x5a5a);
    if (coin.Bernoulli(0.5)) weaken.emplace(v, Value::FreshNull());
  }
  Instance from = to.Apply(weaken);
  from.AddFact(Fact::MustMake(
      Relation::MustIntern("BhE", 2),
      {Value::MakeNull("bhdead"), Value::MakeConstant("bh_missing")}));
  HomomorphismStats stats;
  HomomorphismOptions options;
  options.stats = &stats;
  RDX_ASSERT_OK_AND_ASSIGN(bool hom, HasHomomorphism(from, to, options));
  EXPECT_FALSE(hom);
  EXPECT_LE(stats.steps, 1u);
}

}  // namespace
}  // namespace rdx
