// Experiment E5 (EXPERIMENTS.md): disjunctive chase cost and branch count
// versus the number of branching facts, with and without hom-equivalence
// dedup. The SelfLoop recovery (Theorem 5.2's Σ*) branches once per
// diagonal target fact: d diagonals → 2^d completed branches.
//
// Series reported:
//   BM_DisjunctiveChase/<diagonals>        — dedup enabled (default)
//   BM_DisjunctiveChaseNoDedup/<diagonals> — exact branch explosion
//   BM_DisjunctiveChaseForced/<n>          — 2 diagonals plus n forced
//                                            (off-diagonal) facts: cost
//                                            versus instance size, which
//                                            must stay near-linear
//   branches counter                        — |chase_M'(J)|

#include "bench_util.h"

namespace rdx {
namespace {

using bench_util::Claim;
using bench_util::MustOk;

// A target instance for the SelfLoop recovery with `diagonals` diagonal
// facts (each branches T|P) and `off_diagonals` forced facts.
Instance SelfLoopTarget(std::size_t diagonals, std::size_t off_diagonals) {
  Relation pp = Relation::MustIntern("SlPp", 2);
  Instance out;
  for (std::size_t i = 0; i < diagonals; ++i) {
    Value v = Value::MakeConstant(StrCat("bd", i));
    out.AddFact(Fact::MustMake(pp, {v, v}));
  }
  for (std::size_t i = 0; i < off_diagonals; ++i) {
    out.AddFact(Fact::MustMake(pp, {Value::MakeConstant(StrCat("bo", i)),
                                    Value::MakeConstant(StrCat("bp", i))}));
  }
  return out;
}

void RunDisjunctiveChase(benchmark::State& state, bool dedup) {
  scenarios::Scenario s = scenarios::SelfLoop();
  Instance target =
      SelfLoopTarget(static_cast<std::size_t>(state.range(0)), 4);
  DisjunctiveChaseOptions options;
  options.dedup_hom_equivalent = dedup;
  std::size_t branches = 0;
  for (auto _ : state) {
    DisjunctiveChaseResult result = MustOk(
        DisjunctiveChase(target, s.reverse->dependencies(), options),
        "disjunctive chase");
    branches = result.added.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["branches"] = static_cast<double>(branches);
}

void BM_DisjunctiveChase(benchmark::State& state) {
  RunDisjunctiveChase(state, /*dedup=*/true);
}
void BM_DisjunctiveChaseNoDedup(benchmark::State& state) {
  RunDisjunctiveChase(state, /*dedup=*/false);
}
BENCHMARK(BM_DisjunctiveChase)->DenseRange(1, 7, 2);
BENCHMARK(BM_DisjunctiveChaseNoDedup)->DenseRange(1, 7, 2);

void BM_DisjunctiveChaseForced(benchmark::State& state) {
  scenarios::Scenario s = scenarios::SelfLoop();
  Instance target =
      SelfLoopTarget(2, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    DisjunctiveChaseResult result = MustOk(
        DisjunctiveChase(target, s.reverse->dependencies()),
        "disjunctive chase");
    benchmark::DoNotOptimize(result);
  }
  state.counters["facts"] = static_cast<double>(target.size());
}
BENCHMARK(BM_DisjunctiveChaseForced)->Arg(100)->Arg(400)->Arg(1600);

void BM_QuotientClosedBranches(benchmark::State& state) {
  // The quotient-closed branch set used for composition membership with
  // inequality recoveries (see composition.h): cost vs. number of source
  // nulls.
  scenarios::Scenario s = scenarios::SelfLoop();
  Relation p = Relation::MustIntern("SlP", 2);
  Instance source;
  for (int64_t i = 0; i < state.range(0); ++i) {
    source.AddFact(Fact::MustMake(
        p, {Value::MakeNull(StrCat("bq", i)),
            Value::MakeConstant(StrCat("bqc", i))}));
  }
  for (auto _ : state) {
    std::vector<Instance> branches = MustOk(
        QuotientClosedReverseBranches(s.mapping, *s.reverse, source),
        "quotient branches");
    benchmark::DoNotOptimize(branches);
  }
}
BENCHMARK(BM_QuotientClosedBranches)->DenseRange(1, 4, 1);

void VerifyClaims() {
  scenarios::Scenario s = scenarios::SelfLoop();
  // 2^d branches without dedup.
  for (std::size_t d : {1u, 3u, 5u}) {
    Instance target = SelfLoopTarget(d, 2);
    DisjunctiveChaseOptions options;
    options.dedup_hom_equivalent = false;
    DisjunctiveChaseResult result = MustOk(
        DisjunctiveChase(target, s.reverse->dependencies(), options),
        "disjunctive chase");
    Claim(result.added.size() == (1u << d),
          "E5: d diagonal facts yield exactly 2^d completed branches");
    bool all_satisfy = true;
    for (const Instance& branch : result.combined) {
      all_satisfy = all_satisfy &&
                    MustOk(SatisfiesAll(branch, s.reverse->dependencies()),
                           "sat");
    }
    Claim(all_satisfy,
          "E5: every completed branch satisfies the dependencies");
  }
  // Off-diagonal facts never branch: inequality premise forces P.
  Instance target = SelfLoopTarget(0, 6);
  DisjunctiveChaseResult result =
      MustOk(DisjunctiveChase(target, s.reverse->dependencies()),
             "disjunctive chase");
  Claim(result.added.size() == 1,
        "E5: off-diagonal facts are deterministic (single branch)");
}

}  // namespace
}  // namespace rdx

RDX_BENCH_MAIN(rdx::VerifyClaims)
