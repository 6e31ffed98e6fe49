// Experiment E2 (EXPERIMENTS.md): homomorphism-check cost versus instance
// size and null ratio — the primitive underlying e(Id), →_M, extended
// solutions, and every verification in the framework.
//
// Series reported:
//   BM_HomPositive/<facts>/<null%>   — satisfiable check (I → I ∪ extra)
//   BM_HomNegative/<facts>           — unsatisfiable check (rigid constants)
//   BM_HomEquivalence/<facts>        — both directions
//   BM_EIdMembership/<facts>         — (I1, I2) ∈ e(Id) on renamed copies

#include "bench_util.h"

namespace rdx {
namespace {

using bench_util::Claim;
using bench_util::MustOk;

Relation BenchRelation() { return Relation::MustIntern("BhE", 2); }

Instance RandomGraph(std::size_t facts, double null_ratio, uint64_t seed,
                     std::size_t domain) {
  Rng rng(seed);
  Schema schema;
  (void)schema.AddRelation(BenchRelation());
  InstanceGenOptions options;
  options.num_facts = facts;
  options.num_constants = domain;
  options.num_nulls = domain / 2 + 1;
  options.null_ratio = null_ratio;
  return RandomInstance(schema, options, &rng);
}

void BM_HomPositive(benchmark::State& state) {
  std::size_t facts = static_cast<std::size_t>(state.range(0));
  double null_ratio = static_cast<double>(state.range(1)) / 100.0;
  Instance to = RandomGraph(facts, 0.0, 11, facts / 2 + 2);
  // `from` is a null-weakened copy: a homomorphism always exists.
  ValueMap weaken;
  for (const Value& v : to.ActiveDomain()) {
    Rng coin(v.Hash());
    if (coin.Bernoulli(null_ratio)) weaken.emplace(v, Value::FreshNull());
  }
  Instance from = to.Apply(weaken);
  bench_util::ExportCounters exported(
      state, {"hom.steps", "hom.candidate_pairs", "hom.backtracks"});
  for (auto _ : state) {
    bool hom = MustOk(HasHomomorphism(from, to), "hom");
    benchmark::DoNotOptimize(hom);
  }
  state.counters["from_facts"] = static_cast<double>(from.size());
}
BENCHMARK(BM_HomPositive)
    ->Args({20, 0})
    ->Args({20, 30})
    ->Args({20, 70})
    ->Args({100, 0})
    ->Args({100, 30})
    ->Args({100, 70})
    ->Args({400, 30})
    ->Args({1600, 30});

void RunHomNegative(benchmark::State& state, bool use_domain_filter) {
  std::size_t facts = static_cast<std::size_t>(state.range(0));
  Instance to = RandomGraph(facts, 0.0, 12, facts / 2 + 2);
  // Null-weakened copy plus an unsatisfiable null: ?bhdead must pair a
  // constant that appears in no first position, so its domain is empty —
  // the filter refutes instantly, the raw search must backtrack.
  ValueMap weaken;
  for (const Value& v : to.ActiveDomain()) {
    Rng coin(v.Hash() ^ 0x5a5a);
    if (coin.Bernoulli(0.5)) weaken.emplace(v, Value::FreshNull());
  }
  Instance from = to.Apply(weaken);
  from.AddFact(Fact::MustMake(
      BenchRelation(),
      {Value::MakeNull("bhdead"), Value::MakeConstant("bh_missing")}));
  HomomorphismOptions options;
  options.use_domain_filter = use_domain_filter;
  bench_util::ExportCounters exported(
      state, {"hom.steps", "hom.candidate_pairs", "hom.backtracks",
              "hom.domain_filter_prunes"});
  for (auto _ : state) {
    Result<bool> hom = HasHomomorphism(from, to, options);
    bool value = hom.ok() ? *hom : false;
    benchmark::DoNotOptimize(value);
  }
}
void BM_HomNegative(benchmark::State& state) {
  RunHomNegative(state, /*use_domain_filter=*/false);  // library default
}
void BM_HomNegativeWithFilter(benchmark::State& state) {
  RunHomNegative(state, /*use_domain_filter=*/true);
}
BENCHMARK(BM_HomNegative)->Arg(20)->Arg(100)->Arg(400)->Arg(1600);
BENCHMARK(BM_HomNegativeWithFilter)->Arg(20)->Arg(100)->Arg(400);

void BM_HomEquivalence(benchmark::State& state) {
  std::size_t facts = static_cast<std::size_t>(state.range(0));
  Instance a = RandomGraph(facts, 0.3, 13, facts / 2 + 2);
  Instance b = a.RenameNullsFresh();
  for (auto _ : state) {
    bool equiv = MustOk(AreHomEquivalent(a, b), "equiv");
    benchmark::DoNotOptimize(equiv);
  }
}
BENCHMARK(BM_HomEquivalence)->Arg(20)->Arg(100)->Arg(400)->Arg(1600);

void BM_EIdMembership(benchmark::State& state) {
  // (I1, I2) ∈ e(Id) — the extended identity of Definition 3.7.
  std::size_t facts = static_cast<std::size_t>(state.range(0));
  Instance i2 = RandomGraph(facts, 0.2, 14, facts / 2 + 2);
  Instance extra = RandomGraph(facts / 4 + 1, 0.5, 15, facts / 2 + 2);
  Instance i2_big = Instance::Union(i2, extra);
  Instance i1 = i2.RenameNullsFresh();
  for (auto _ : state) {
    bool in_e_id = MustOk(HasHomomorphism(i1, i2_big), "e(Id)");
    benchmark::DoNotOptimize(in_e_id);
  }
}
BENCHMARK(BM_EIdMembership)->Arg(20)->Arg(100)->Arg(400)->Arg(1600);

void VerifyClaims() {
  Instance to = RandomGraph(80, 0.0, 11, 42);
  ValueMap weaken;
  for (const Value& v : to.ActiveDomain()) {
    if (v.Hash() % 2 == 0) weaken.emplace(v, Value::FreshNull());
  }
  Instance from = to.Apply(weaken);
  Claim(MustOk(HasHomomorphism(from, to), "hom"),
        "E2: null-weakened copies always map back (h exists)");
  Claim(MustOk(HasHomomorphism(to, to), "refl"),
        "E2: -> is reflexive (e(Id) contains the diagonal)");
  Instance renamed = from.RenameNullsFresh();
  Claim(MustOk(AreHomEquivalent(from, renamed), "equiv"),
        "E2: null renaming preserves homomorphic equivalence");
}

}  // namespace
}  // namespace rdx

RDX_BENCH_MAIN(rdx::VerifyClaims)
