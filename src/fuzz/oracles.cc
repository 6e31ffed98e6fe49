#include "fuzz/oracles.h"

#include <algorithm>
#include <optional>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "analysis/analyze.h"
#include "analysis/termination_hierarchy.h"
#include "columnar/serialize.h"
#include "compile/laconic.h"
#include "base/attribution.h"
#include "base/metrics.h"
#include "base/spans.h"
#include "base/strings.h"
#include "chase/egd_chase.h"
#include "chase/termination.h"
#include "core/blocks.h"
#include "core/core_computation.h"
#include "core/fact_index.h"
#include "core/match.h"
#include "fuzz/reference_chase.h"
#include "fuzz/reference_hom.h"
#include "generator/scenarios.h"
#include "mapping/quasi_inverse.h"
#include "mapping/recovery.h"

namespace rdx {
namespace fuzz {
namespace {

// hom.reference enumerates at most this many assignments per search.
constexpr std::size_t kReferenceAssignments = 2048;

// Oracle comparisons between two chase runs use isomorphism, not
// equality: each run draws fresh nulls from the process-wide counter, so
// consecutive in-process runs agree only up to a renaming of nulls (the
// per-run determinism guarantee is about one run, not two).
class Battery {
 public:
  Battery(const FuzzScenario& scenario, const OracleOptions& options,
          OracleReport* report)
      : s_(scenario), opts_(options), report_(report) {}

  void Run() {
    Family("wa", [&] { RunTermination(); });
    bool chase_ok = false;
    Family("chase", [&] { chase_ok = RunChaseFamily(); });
    Family("dchase", [&] { RunDisjunctiveFamily(chase_ok); });
    Family("analysis", [&] { RunAnalysis(chase_ok); });
    Family("termination", [&] { RunTerminationHierarchy(chase_ok); });
    Family("egd", [&] { RunEgdFamily(chase_ok); });
    if (chase_ok) {
      Family("core", [&] { RunCoreFamily(); });
      Family("hom", [&] { RunHomFamily(); });
      Family("inverse", [&] { RunInverse(); });
      Family("laconic", [&] { RunLaconicFamily(); });
      Family("serialize", [&] { RunSerializeFamily(); });
    }
  }

 private:
  // Runs one oracle family under a "fuzz.family" span and attributes its
  // wall time to the "fuzz.oracle" row "<family>.*" (time per individual
  // oracle is not separable: families share engine runs across their
  // checks). Per-oracle check counts land on exact-name rows via Ran().
  // True if `family` should run under the --oracle restriction. The chase
  // family always runs: every downstream family compares against its
  // result (and its checks are cheap).
  bool FamilyEnabled(const char* family) const {
    return opts_.only_family.empty() || opts_.only_family == family ||
           std::string_view(family) == "chase";
  }

  template <typename Fn>
  void Family(const char* family, Fn&& fn) {
    if (!FamilyEnabled(family)) return;
    obs::Span span("fuzz.family");
    span.Arg("family", family);
    std::optional<obs::ScopedTimer> timer;
    uint64_t us = 0;
    if (obs::AttributionEnabled()) timer.emplace(nullptr, &us);
    const std::size_t before = report_->oracles_run.size();
    fn();
    if (timer.has_value()) {
      timer.reset();
      obs::Attribution::Get("fuzz.oracle", StrCat(family, ".*"))
          .AddTimeMicros(us);
    }
    span.Arg("checks", report_->oracles_run.size() - before);
  }

  void Fail(std::string oracle, std::string detail) {
    report_->failures.push_back(
        OracleFailure{std::move(oracle), std::move(detail)});
  }

  void Ran(const char* oracle) {
    report_->oracles_run.push_back(oracle);
    if (obs::AttributionEnabled()) {
      obs::Attribution::Get("fuzz.oracle", oracle).AddFired(1);
    }
  }

  void Exhausted(const char* where, const Status& status) {
    report_->resource_exhausted = true;
    if (report_->exhausted_reason.empty()) {
      report_->exhausted_reason = StrCat(where, ": ", status.message());
    }
  }

  // Unwraps an engine result. ResourceExhausted skips (recorded, not a
  // failure); every other error is a status.* oracle failure.
  template <typename T>
  bool Take(Result<T> result, const char* where, T* out) {
    if (result.ok()) {
      *out = *std::move(result);
      return true;
    }
    if (result.status().code() == StatusCode::kResourceExhausted) {
      Exhausted(where, result.status());
    } else {
      Fail(StrCat("status.", where), result.status().ToString());
    }
    return false;
  }

  void RunTermination() {
    if (s_.tgds.empty()) return;
    WeakAcyclicityReport wa;
    if (!Take(CheckWeakAcyclicity(s_.tgds), "termination", &wa)) return;
    wa_verdict_ = wa.weakly_acyclic;
    if (s_.expect_weakly_acyclic.has_value()) {
      Ran("wa.expectation");
      if (wa.weakly_acyclic != *s_.expect_weakly_acyclic) {
        Fail("wa.expectation",
             StrCat("CheckWeakAcyclicity said ",
                    wa.weakly_acyclic ? "true" : "false", ", scenario expects ",
                    *s_.expect_weakly_acyclic ? "true" : "false",
                    wa.cycle_witness.empty()
                        ? std::string()
                        : StrCat(" (witness: ", wa.cycle_witness, ")")));
      }
    }
  }

  // Compares two chase outcomes up to null renaming.
  void ExpectAgree(const char* oracle, const ChaseResult& a,
                   const ChaseResult& b, const std::string& label) {
    Ran(oracle);
    if (a.combined.size() != b.combined.size() ||
        a.added.size() != b.added.size()) {
      Fail(oracle, StrCat(label, ": sizes differ (combined ",
                          a.combined.size(), " vs ", b.combined.size(),
                          ", added ", a.added.size(), " vs ", b.added.size(),
                          ")"));
      return;
    }
    bool iso = false;
    if (!Take(AreIsomorphic(a.combined, b.combined, opts_.hom), oracle, &iso)) {
      return;
    }
    if (!iso) {
      Fail(oracle, StrCat(label, ": results are not isomorphic: ",
                          a.combined.ToString(), " vs ",
                          b.combined.ToString()));
    }
  }

  bool RunChaseFamily() {
    ChaseOptions base = opts_.chase;
    base.use_semi_naive = true;
    base.num_threads = 1;
    Result<ChaseResult> first = Chase(s_.instance, s_.tgds, base);
    if (!first.ok() &&
        first.status().code() == StatusCode::kResourceExhausted &&
        wa_verdict_ == true &&
        first.status().message().find("max_rounds") != std::string::npos) {
      // A weakly acyclic set is guaranteed to terminate; running out of
      // rounds on one is an engine bug, not a budget artifact.
      Ran("wa.sufficiency");
      Fail("wa.sufficiency",
           StrCat("chase of a certified weakly acyclic set hit the round "
                  "budget: ",
                  first.status().message()));
      return false;
    }
    if (!Take(std::move(first), "chase", &chased_)) return false;
    if (wa_verdict_ == true) Ran("wa.sufficiency");

    ChaseOptions naive = base;
    naive.use_semi_naive = false;
    ChaseResult naive_result;
    if (Take(Chase(s_.instance, s_.tgds, naive), "chase", &naive_result)) {
      if (opts_.inject_chase_corruption && !naive_result.combined.empty()) {
        naive_result.combined.RemoveFact(naive_result.combined.facts().back());
      }
      ExpectAgree("chase.semi_naive", chased_, naive_result,
                  "semi-naive vs naive");
    }

    for (uint64_t threads : {uint64_t{2}, uint64_t{8}}) {
      ChaseOptions threaded = base;
      threaded.num_threads = threads;
      ChaseResult threaded_result;
      if (!Take(Chase(s_.instance, s_.tgds, threaded), "chase",
                &threaded_result)) {
        continue;
      }
      ExpectAgree("chase.threads", chased_, threaded_result,
                  StrCat("threads 1 vs ", threads));
      if (chased_.rounds != threaded_result.rounds) {
        Fail("chase.threads", StrCat("round counts differ at threads=",
                                     threads, ": ", chased_.rounds, " vs ",
                                     threaded_result.rounds));
      }
    }

    Ran("chase.satisfies");
    bool satisfied = false;
    if (Take(SatisfiesAll(chased_.combined, s_.tgds, base.match_options),
             "satisfies", &satisfied) &&
        !satisfied) {
      Fail("chase.satisfies",
           "chase fixpoint does not satisfy its own dependencies");
    }
    return true;
  }

  // dchase.reference: DisjunctiveChase against the straightforward
  // per-step engine (fuzz/reference_chase.h), on the scenario's own tgds
  // (same-schema sets exercise the re-enumeration path) and, when the
  // scenario is a paper mapping, on its reverse mappings applied to the
  // chase result. Only sets the standard chase finished are run, under
  // budgets tighter than the battery's: on a same-schema set both engines
  // re-match every body over the whole branch per step, so a set that
  // never terminates costs time quadratic in the step budget. Exhaustion
  // both engines agree on is a pass (the contract covers it), not a skip.
  void RunDisjunctiveFamily(bool chase_ok) {
    if (s_.tgds.empty() || !chase_ok) return;
    DisjunctiveChaseOptions options = opts_.disjunctive;
    options.max_steps = std::min<uint64_t>(options.max_steps, 1'000);
    options.max_branches = std::min<uint64_t>(options.max_branches, 256);
    CompareDisjunctive(s_.instance, s_.tgds, options, "scenario tgds");
    if (!s_.HasMappingShape()) return;
    static const std::vector<scenarios::Scenario>* const paper =
        new std::vector<scenarios::Scenario>(scenarios::AllScenarios());
    for (const scenarios::Scenario& sc : *paper) {
      if (sc.mapping.dependencies() != s_.tgds) continue;
      for (const auto* reverse : {&sc.reverse, &sc.alt_reverse}) {
        if (!reverse->has_value()) continue;
        CompareDisjunctive(chased_.added, (*reverse)->dependencies(),
                           options, StrCat(sc.name, " reverse"));
      }
    }
  }

  void CompareDisjunctive(const Instance& input,
                          const std::vector<Dependency>& dependencies,
                          const DisjunctiveChaseOptions& options,
                          const std::string& label) {
    Ran("dchase.reference");
    Result<std::string> diff =
        CompareWithReferenceChase(input, dependencies, options, opts_.hom);
    if (!diff.ok() &&
        diff.status().code() == StatusCode::kResourceExhausted &&
        diff.status().message().rfind("disjunctive chase exceeded", 0) ==
            0) {
      return;
    }
    std::string mismatch;
    if (!Take(std::move(diff), "dchase", &mismatch)) return;
    if (!mismatch.empty()) {
      Fail("dchase.reference", StrCat(label, ": ", mismatch));
    }
  }

  // Runs the static analyzer as a crash/Status oracle over every scenario
  // and, on weakly acyclic ones where the chase completed, checks the
  // static chase-size bound against the actual fixpoint.
  void RunAnalysis(bool chase_ok) {
    if (s_.tgds.empty()) return;
    AnalysisInput input;
    input.dependencies = s_.tgds;
    if (s_.HasMappingShape()) {
      input.source = s_.source;
      input.target = s_.target;
    }
    AnalysisReport analysis;
    if (!Take(AnalyzeDependencies(input), "analysis", &analysis)) return;
    Ran("analysis.report");
    if (wa_verdict_.has_value() && analysis.weakly_acyclic != *wa_verdict_) {
      Fail("analysis.report",
           StrCat("analyzer weak-acyclicity verdict ",
                  analysis.weakly_acyclic ? "true" : "false",
                  " contradicts CheckWeakAcyclicity (",
                  *wa_verdict_ ? "true" : "false", ")"));
    }

    if (!chase_ok || !analysis.weakly_acyclic) return;
    Ran("analysis.bound");
    const uint64_t bound = analysis.bound.FactBound(s_.instance);
    if (chased_.combined.size() > bound) {
      Fail("analysis.bound",
           StrCat("chase produced ", chased_.combined.size(),
                  " facts, above the static bound of ", bound, " (",
                  analysis.bound.ToString(), ")"));
    }
  }

  // Termination-hierarchy oracles (analysis/termination_hierarchy.h).
  //
  //  * termination.containment — the tier lattice never inverts: the
  //    predicates are monotone (weakly acyclic ⇒ safe ⇒ safely
  //    stratified), the reported tier is the first admitting rung, the
  //    weak-acyclicity rung agrees with CheckWeakAcyclicity, and a
  //    rejected set always carries a witness.
  //  * termination.soundness — an admitted set really is one the chase
  //    finishes: a terminating verdict must carry an evaluable tiered
  //    bound, a completed chase fixpoint never exceeds it, and when the
  //    bound fits comfortably inside the fuzzing budget, budget
  //    exhaustion on an admitted set is a classifier (or engine) bug,
  //    not an artifact.
  void RunTerminationHierarchy(bool chase_ok) {
    if (s_.tgds.empty()) return;
    TerminationVerdict verdict = ClassifyTermination(s_.tgds);

    Ran("termination.containment");
    if (verdict.weakly_acyclic && !verdict.safe) {
      Fail("termination.containment",
           "weakly acyclic but not safe: restricting the propagation graph "
           "to affected positions must only remove edges");
    }
    if (verdict.safe && !verdict.safely_stratified) {
      Fail("termination.containment",
           "safe but not safely stratified: every stratum of a safe set is "
           "safe");
    }
    const TerminationTier first =
        verdict.weakly_acyclic        ? TerminationTier::kWeaklyAcyclic
        : verdict.safe                ? TerminationTier::kSafe
        : verdict.safely_stratified   ? TerminationTier::kSafelyStratified
        : verdict.super_weakly_acyclic ? TerminationTier::kSuperWeaklyAcyclic
                                       : TerminationTier::kUnknown;
    if (verdict.tier != first) {
      Fail("termination.containment",
           StrCat("reported tier '", TerminationTierName(verdict.tier),
                  "' is not the first admitting rung '",
                  TerminationTierName(first), "'"));
    }
    if (wa_verdict_.has_value() && verdict.weakly_acyclic != *wa_verdict_) {
      Fail("termination.containment",
           StrCat("hierarchy weak-acyclicity rung ",
                  verdict.weakly_acyclic ? "true" : "false",
                  " contradicts CheckWeakAcyclicity (",
                  *wa_verdict_ ? "true" : "false", ")"));
    }
    if (!verdict.terminating() && verdict.Witness().empty()) {
      Fail("termination.containment",
           "rejected at every tier but no witness was produced");
    }

    if (!verdict.terminating()) return;
    Ran("termination.soundness");
    const uint64_t bound = verdict.bound.FactBound(s_.instance);
    if (bound == ChaseSizeBound::kUnbounded) {
      Fail("termination.soundness",
           StrCat("terminating verdict (tier ",
                  TerminationTierName(verdict.tier),
                  ") with an unevaluable tiered fact bound"));
      return;
    }
    if (chase_ok) {
      if (chased_.combined.size() > bound) {
        Fail("termination.soundness",
             StrCat("chase produced ", chased_.combined.size(),
                    " facts, above the tiered bound of ", bound, " (tier ",
                    TerminationTierName(verdict.tier), ")"));
      }
    } else if (report_->resource_exhausted &&
               report_->exhausted_reason.rfind("chase", 0) == 0 &&
               bound + 1 < opts_.chase.max_rounds &&
               bound < opts_.chase.max_new_facts) {
      // Semi-naive rounds add at least one fact each, so a fixpoint of
      // `bound` facts needs at most bound+1 rounds; exhaustion below
      // both budgets cannot be a budget artifact.
      Fail("termination.soundness",
           StrCat("chase of a set admitted at tier '",
                  TerminationTierName(verdict.tier),
                  "' exhausted its budget despite a tiered bound of ", bound,
                  " facts (", report_->exhausted_reason, ")"));
    }
  }

  void RunEgdFamily(bool chase_ok) {
    EgdChaseResult egd;
    if (!Take(ChaseWithEgds(s_.instance, s_.tgds, s_.egds, opts_.chase),
              "egd_chase", &egd)) {
      return;
    }
    if (s_.egds.empty() && chase_ok) {
      Ran("egd.zero");
      if (egd.merges != 0) {
        Fail("egd.zero", StrCat("zero-egd chase performed ", egd.merges,
                                " merges"));
      } else if (egd.combined.size() != chased_.combined.size() ||
                 egd.added.size() != chased_.added.size()) {
        Fail("egd.zero",
             StrCat("zero-egd chase differs from plain chase: combined ",
                    egd.combined.size(), " vs ", chased_.combined.size()));
      } else {
        bool iso = false;
        if (Take(AreIsomorphic(egd.combined, chased_.combined, opts_.hom),
                 "egd.zero", &iso) &&
            !iso) {
          Fail("egd.zero",
               "zero-egd chase is not isomorphic to the plain chase");
        }
      }
    }
    if (egd.failed) return;  // a failing chase is a legitimate outcome

    if (!s_.egds.empty()) {
      Ran("egd.fixpoint");
      for (const Egd& e : s_.egds) {
        std::optional<std::string> violation;
        Status status = EnumerateMatches(
            e.body(), egd.combined,
            [&](const Assignment& match) {
              for (const auto& [a, b] : e.equalities()) {
                if (!(match.at(a) == match.at(b))) {
                  violation = StrCat(e.ToString(), " violated: ",
                                     match.at(a).ToString(), " != ",
                                     match.at(b).ToString());
                  return false;
                }
              }
              return true;
            },
            opts_.chase.match_options);
        if (!status.ok()) {
          if (status.code() == StatusCode::kResourceExhausted) {
            Exhausted("egd.fixpoint", status);
          } else {
            Fail("status.egd.fixpoint", status.ToString());
          }
          return;
        }
        if (violation.has_value()) {
          Fail("egd.fixpoint", *violation);
          return;
        }
      }
    }

    Ran("egd.added_view");
    Instance rewritten_input = s_.instance.Apply(egd.merge_map);
    if (Instance::Union(rewritten_input, egd.added) != egd.combined) {
      Fail("egd.added_view",
           "rewritten input + added does not reassemble the combined "
           "instance");
    } else {
      for (const Fact& f : egd.added.facts()) {
        if (rewritten_input.Contains(f)) {
          Fail("egd.added_view",
               StrCat("added misreports the rewritten input fact ",
                      f.ToString()));
          break;
        }
      }
    }

    if (s_.tgds.empty()) {
      Ran("egd.pure_rewrite");
      if (!egd.added.empty()) {
        Fail("egd.pure_rewrite",
             StrCat("a tgd-free egd chase reported ", egd.added.size(),
                    " added fact(s): ", egd.added.ToString()));
      }
    }
  }

  void RunCoreFamily() {
    CoreOptions blocked_opts;
    blocked_opts.hom = opts_.hom;
    blocked_opts.use_blocks = true;
    Instance blocked;
    if (!Take(ComputeCore(chased_.combined, blocked_opts), "core", &blocked)) {
      return;
    }
    if (opts_.inject_core_corruption && !blocked.empty()) {
      blocked.RemoveFact(blocked.facts().back());
    }

    CoreOptions naive_opts = blocked_opts;
    naive_opts.use_blocks = false;
    Instance naive;
    if (Take(ComputeCore(chased_.combined, naive_opts), "core", &naive)) {
      Ran("core.blocks_vs_naive");
      bool iso = false;
      if (Take(AreIsomorphic(blocked, naive, opts_.hom),
               "core.blocks_vs_naive", &iso) &&
          !iso) {
        Fail("core.blocks_vs_naive",
             StrCat("blocked core ", blocked.ToString(),
                    " is not isomorphic to naive core ", naive.ToString()));
      }
    }

    // Core retraction never invents values, so cores of the SAME input
    // computed at different thread counts must be equal, not just
    // isomorphic.
    for (uint64_t threads : {uint64_t{2}, uint64_t{8}}) {
      CoreOptions threaded_opts = blocked_opts;
      threaded_opts.hom.num_threads = threads;
      Instance threaded;
      if (!Take(ComputeCore(chased_.combined, threaded_opts), "core",
                &threaded)) {
        continue;
      }
      Ran("core.threads");
      if (threaded != blocked) {
        Fail("core.threads",
             StrCat("core at threads=", threads, " differs: ",
                    threaded.ToString(), " vs ", blocked.ToString()));
      }
    }

    Ran("core.hom_equiv");
    bool equiv = false;
    if (Take(AreHomEquivalent(blocked, chased_.combined, opts_.hom),
             "core.hom_equiv", &equiv)) {
      if (!equiv) {
        Fail("core.hom_equiv",
             "core is not homomorphically equivalent to its input");
      } else if (!blocked.SubsetOf(chased_.combined)) {
        Fail("core.hom_equiv", "core is not a subinstance of its input");
      }
    }

    Ran("core.idempotent");
    bool is_core = false;
    if (Take(IsCore(blocked, blocked_opts), "core.idempotent", &is_core) &&
        !is_core) {
      Fail("core.idempotent", "ComputeCore output admits a further retraction");
    }
  }

  void RunHomFamily() {
    Ran("hom.masked_vs_plain");
    // Both directions: input -> chase result always has a homomorphism
    // (the identity); the reverse direction exercises the negative path.
    CompareHomEngines(s_.instance, chased_.combined, "input->combined");
    CompareHomEngines(chased_.combined, s_.instance, "combined->input");
    RunHomReference();
  }

  // hom.reference: FindHomomorphism against the brute-force reference on
  // windows of the input and of the chase result small enough to
  // enumerate. Each window is searched into itself, into itself minus its
  // last fact (a dropped ground fact refutes by probe) and into a fresh
  // renaming of itself; plain, under two seeds that bind nulls of two
  // blocks, and injective null-to-null (AreIsomorphic's mode).
  void RunHomReference() {
    Ran("hom.reference");
    std::size_t next_added = 0;
    const Instance windows[] = {ReferenceWindow(s_.instance, nullptr),
                                ReferenceWindow(chased_.added, &next_added),
                                ReferenceWindow(chased_.added, &next_added)};
    HomomorphismOptions iso = opts_.hom;
    iso.injective = true;
    iso.nulls_to_nulls = true;
    for (const Instance& window : windows) {
      if (window.empty()) continue;
      Instance minus = window;
      minus.RemoveFact(window.facts().back());
      const Instance renamed = window.RenameNullsFresh();
      auto [same, swapped] = TwoBlockSeeds(window);
      const Instance* targets[] = {&window, &minus, &renamed};
      for (const Instance* to : targets) {
        CompareWithReference(window, *to, {}, opts_.hom, "plain");
        CompareWithReference(window, *to, same, opts_.hom, "seeded");
        CompareWithReference(window, *to, swapped, opts_.hom, "seeded");
        CompareWithReference(window, *to, {}, iso, "injective");
      }
    }
  }

  // The longest run of facts of `instance` from *next on (from the start
  // when `next` is null) whose every null assignment the reference can
  // enumerate: at most kMaxReferenceNulls nulls, and
  // |adom|^|nulls| <= kReferenceAssignments. Advances *next past it.
  static Instance ReferenceWindow(const Instance& instance,
                                  std::size_t* next) {
    std::size_t i = next == nullptr ? 0 : *next;
    Instance window;
    std::unordered_set<Value, ValueHash> adom;
    std::size_t nulls = 0;
    for (; i < instance.size(); ++i) {
      const Fact& f = instance.facts()[i];
      std::unordered_set<Value, ValueHash> grown = adom;
      std::size_t grown_nulls = nulls;
      for (const Value& v : f.args()) {
        if (grown.insert(v).second && v.IsNull()) ++grown_nulls;
      }
      if (grown_nulls > kMaxReferenceNulls ||
          !WithinReferenceBudget(grown.size(), grown_nulls)) {
        if (window.empty()) ++i;  // a fact too large alone is skipped
        break;
      }
      window.AddFact(f);
      adom = std::move(grown);
      nulls = grown_nulls;
    }
    if (next != nullptr) *next = i;
    return window;
  }

  static bool WithinReferenceBudget(std::size_t domain, std::size_t nulls) {
    std::size_t assignments = 1;
    for (std::size_t k = 0; k < nulls; ++k) {
      assignments *= domain;
      if (assignments > kReferenceAssignments) return false;
    }
    return true;
  }

  // Seeds over the first nulls x, y of the window's first two null-blocks:
  // {x->x, y->y} and {x->y, y->x} (one block: {x->x} and x to the
  // window's first value; no nulls: both empty).
  static std::pair<ValueMap, ValueMap> TwoBlockSeeds(const Instance& window) {
    std::vector<Value> firsts;
    for (const std::vector<const Fact*>& block :
         DecomposeIntoBlocks(window).blocks) {
      for (const Value& v : block.front()->args()) {
        if (v.IsNull()) {
          firsts.push_back(v);
          break;
        }
      }
      if (firsts.size() == 2) break;
    }
    ValueMap same;
    ValueMap swapped;
    if (firsts.size() == 2) {
      same = {{firsts[0], firsts[0]}, {firsts[1], firsts[1]}};
      swapped = {{firsts[0], firsts[1]}, {firsts[1], firsts[0]}};
    } else if (firsts.size() == 1) {
      same = {{firsts[0], firsts[0]}};
      swapped = {{firsts[0], window.facts().front().args().front()}};
    }
    return {std::move(same), std::move(swapped)};
  }

  void CompareWithReference(const Instance& from, const Instance& to,
                            const ValueMap& seed,
                            const HomomorphismOptions& options,
                            const char* mode) {
    std::optional<ValueMap> expected;
    if (!Take(ReferenceFindHomomorphism(from, to, seed, options),
              "hom.reference", &expected)) {
      return;
    }
    std::optional<ValueMap> found;
    if (!Take(FindHomomorphism(from, to, seed, options), "hom", &found)) {
      return;
    }
    const auto pair = [&] {
      return StrCat(from.ToString(), " -> ", to.ToString());
    };
    if (found.has_value() != expected.has_value()) {
      Fail("hom.reference",
           StrCat(mode, ": block search ",
                  found.has_value() ? "found" : "refuted",
                  " a homomorphism, the reference ",
                  expected.has_value() ? "found" : "refuted", " one: ",
                  pair()));
      return;
    }
    if (found.has_value()) {
      std::string bad =
          CheckHomomorphismWitness(from, to, seed, options, *found);
      if (!bad.empty()) {
        Fail("hom.reference",
             StrCat(mode, ": the block search's witness ", bad, ": ", pair()));
      }
    }
  }

  void CompareHomEngines(const Instance& from, const Instance& to,
                         const char* label) {
    std::optional<ValueMap> plain;
    if (!Take(FindHomomorphism(from, to, {}, opts_.hom), "hom", &plain)) {
      return;
    }
    FactIndex index(to);
    std::vector<const Fact*> from_facts;
    from_facts.reserve(from.size());
    for (const Fact& f : from.facts()) from_facts.push_back(&f);
    std::optional<ValueMap> masked;
    if (!Take(FindHomomorphismMasked(from_facts, index, /*mask=*/nullptr,
                                     /*excluded=*/kNoFactOrdinal, opts_.hom),
              "hom", &masked)) {
      return;
    }
    if (plain.has_value() != masked.has_value()) {
      Fail("hom.masked_vs_plain",
           StrCat(label, ": plain search ",
                  plain.has_value() ? "found" : "refuted",
                  " a homomorphism, masked search ",
                  masked.has_value() ? "found" : "refuted", " one"));
    }
  }

  void RunInverse() {
    if (!opts_.run_inverse || !s_.HasMappingShape()) return;
    if (s_.instance.size() > opts_.max_inverse_facts) return;
    Result<SchemaMapping> mapping = s_.Mapping();
    if (!mapping.ok()) return;  // not a mapping-shaped scenario
    if (!mapping->IsFullTgdMapping() || !s_.instance.IsGround() ||
        !s_.instance.ConformsTo(mapping->source())) {
      return;
    }
    Result<SchemaMapping> quasi = QuasiInverse(*mapping);
    if (!quasi.ok()) {
      // FailedPrecondition/Unimplemented mark inputs outside the
      // algorithm's language; anything else is an engine bug.
      if (quasi.status().code() != StatusCode::kFailedPrecondition &&
          quasi.status().code() != StatusCode::kUnimplemented) {
        Fail("status.quasi_inverse", quasi.status().ToString());
      }
      return;
    }
    Ran("inverse.quasi");
    std::optional<Instance> witness;
    if (Take(CheckExtendedRecovery(*mapping, *quasi, {s_.instance},
                                   opts_.chase, opts_.disjunctive),
             "inverse.quasi", &witness) &&
        witness.has_value()) {
      Fail("inverse.quasi",
           StrCat("quasi-inverse is not an extended recovery; violating "
                  "instance: ",
                  witness->ToString()));
    }
  }

  // Differential wall for the laconic compilation: on ground mapping
  // scenarios the laconic chase must deliver exactly what chase + blocked
  // core delivers — isomorphic, canonically byte-identical, and a model
  // of the original dependencies.
  void RunLaconicFamily() {
    if (!s_.HasMappingShape() || !s_.instance.IsGround()) return;
    Result<SchemaMapping> mapping = s_.Mapping();
    if (!mapping.ok()) return;  // not a mapping-shaped scenario
    if (!s_.instance.ConformsTo(mapping->source())) return;

    LaconicOptions lopts;
    lopts.hom = opts_.hom;
    LaconicCompilation compiled;
    if (!Take(CompileLaconic(*mapping, lopts), "laconic.compile", &compiled)) {
      return;
    }
    Ran("laconic.compile");
    if (!compiled.laconic) return;  // gated out: fallback path, nothing new

    LaconicChaseResult laconic;
    if (!Take(LaconicChaseMapping(*mapping, s_.instance, opts_.chase, lopts),
              "laconic.core", &laconic)) {
      return;
    }
    if (opts_.inject_laconic_corruption && !laconic.core.empty()) {
      laconic.core.RemoveFact(laconic.core.facts().back());
    }
    CoreOptions core_opts;
    core_opts.hom = opts_.hom;
    Instance blocked;
    if (!Take(ComputeCore(chased_.added, core_opts), "laconic.core",
              &blocked)) {
      return;
    }
    Ran("laconic.core");
    bool iso = false;
    if (Take(AreIsomorphic(laconic.core, blocked, opts_.hom), "laconic.core",
             &iso)) {
      if (!iso) {
        Fail("laconic.core",
             StrCat("laconic chase ", laconic.core.ToString(),
                    " is not isomorphic to blocked core ",
                    blocked.ToString()));
      } else {
        Ran("laconic.canonical");
        const std::string a = laconic.core.CanonicalForm().ToString();
        const std::string b = blocked.CanonicalForm().ToString();
        if (a != b) {
          Fail("laconic.canonical",
               StrCat("canonical renderings differ: ", a, " vs ", b));
        }
      }
    }

    Ran("laconic.satisfies");
    bool satisfied = false;
    if (Take(mapping->Satisfied(s_.instance, laconic.core,
                                opts_.chase.match_options),
             "laconic.satisfies", &satisfied) &&
        !satisfied) {
      Fail("laconic.satisfies",
           "laconic chase result does not satisfy the original "
           "dependencies");
    }
  }

  // Differential wall for the RDXC wire format: every instance the
  // battery already has in hand must survive encode -> decode -> encode
  // bit-exactly, through both the Instance and the columnar decode paths,
  // and canonical-mode bytes must not depend on fact insertion order.
  void RunSerializeFamily() {
    CheckSerializeRoundTrip("input", s_.instance);
    CheckSerializeRoundTrip("combined", chased_.combined);

    Ran("serialize.canonical");
    std::vector<const Fact*> reversed;
    reversed.reserve(chased_.combined.size());
    for (const Fact& f : chased_.combined.facts()) reversed.push_back(&f);
    std::reverse(reversed.begin(), reversed.end());
    const Instance shuffled = Instance::FromFactPointers(reversed);
    columnar::SerializeOptions canonical;
    canonical.canonical_nulls = true;
    if (columnar::Serialize(chased_.combined, canonical) !=
        columnar::Serialize(shuffled, canonical)) {
      Fail("serialize.canonical",
           "canonical encoding depends on fact insertion order");
    }
  }

  void CheckSerializeRoundTrip(const char* label, const Instance& instance) {
    Ran("serialize.roundtrip");
    std::string bytes = columnar::Serialize(instance);
    if (opts_.inject_serialize_corruption && !bytes.empty()) {
      // The checksum makes any single-byte flip a decode error; a decoder
      // that still accepts the bytes is caught below.
      bytes[bytes.size() / 2] =
          static_cast<char>(bytes[bytes.size() / 2] ^ 0xFF);
    }
    Result<Instance> decoded = columnar::Deserialize(bytes);
    if (!decoded.ok()) {
      Fail("serialize.roundtrip",
           StrCat(label, ": decoding a fresh encoding failed: ",
                  decoded.status().ToString()));
      return;
    }
    if (!(*decoded == instance)) {
      Fail("serialize.roundtrip",
           StrCat(label, ": decoded instance differs from the original: ",
                  decoded->ToString(), " vs ", instance.ToString()));
      return;
    }
    if (columnar::Serialize(*decoded) != bytes) {
      Fail("serialize.roundtrip",
           StrCat(label, ": re-encoding the decoded instance is not "
                         "byte-identical"));
      return;
    }
    Result<columnar::ColumnarInstance> col =
        columnar::DeserializeColumnar(bytes);
    if (!col.ok()) {
      Fail("serialize.roundtrip",
           StrCat(label, ": columnar decode failed: ",
                  col.status().ToString()));
      return;
    }
    if (col->ToInstance() != instance) {
      Fail("serialize.roundtrip",
           StrCat(label, ": columnar decode path disagrees with the "
                         "Instance decode path"));
    }
  }

  const FuzzScenario& s_;
  const OracleOptions& opts_;
  OracleReport* report_;
  std::optional<bool> wa_verdict_;
  ChaseResult chased_;
};

}  // namespace

std::string OracleFailure::ToString() const {
  return StrCat("[", oracle, "] ", detail);
}

std::string OracleReport::ToString() const {
  std::string out = StrCat(oracles_run.size(), " oracle check(s), ",
                           failures.size(), " failure(s)");
  if (resource_exhausted) {
    out += StrCat(" (budget exhausted: ", exhausted_reason, ")");
  }
  out += "\n";
  for (const OracleFailure& f : failures) {
    out += StrCat("  ", f.ToString(), "\n");
  }
  return out;
}

const std::vector<OracleInfo>& OracleCatalog() {
  static const std::vector<OracleInfo>* catalog = new std::vector<OracleInfo>{
      {"wa.expectation",
       "CheckWeakAcyclicity matches the scenario's expected verdict"},
      {"wa.sufficiency",
       "a certified weakly acyclic set never exhausts the chase round budget"},
      {"analysis.report",
       "the static analyzer runs without error and agrees with "
       "CheckWeakAcyclicity"},
      {"analysis.bound",
       "on weakly acyclic scenarios the chase fixpoint never exceeds the "
       "static chase-size bound"},
      {"termination.containment",
       "the termination-tier lattice never inverts: weakly acyclic implies "
       "safe implies safely stratified, the reported tier is the first "
       "admitting rung, and rejections carry a witness"},
      {"termination.soundness",
       "a set admitted at any terminating tier chases to a fixpoint within "
       "the tiered per-stratum fact bound (and within the fuzzing budget "
       "when the bound fits inside it)"},
      {"chase.semi_naive",
       "semi-naive and naive chase agree up to null renaming"},
      {"chase.threads",
       "chase at thread counts 1/2/8 agrees (sizes, rounds, isomorphism)"},
      {"chase.satisfies", "the chase fixpoint satisfies all dependencies"},
      {"dchase.reference",
       "the disjunctive chase matches the per-step reference engine: "
       "isomorphic worlds in order, equal stats and per-dependency rows, "
       "and the same ResourceExhausted under tight step/branch budgets "
       "(scenario tgds and paper reverse mappings)"},
      {"egd.zero", "the egd chase with zero egds equals the plain chase"},
      {"egd.fixpoint", "after a non-failing egd chase every egd is satisfied"},
      {"egd.added_view",
       "rewritten input + added reassembles combined; added never contains "
       "rewritten input facts"},
      {"egd.pure_rewrite", "a tgd-free egd chase reports no added facts"},
      {"core.blocks_vs_naive",
       "blocked and naive core engines produce isomorphic cores"},
      {"core.threads", "the blocked core is equal at thread counts 1/2/8"},
      {"core.hom_equiv",
       "the core is a hom-equivalent subinstance of its input"},
      {"core.idempotent", "the core admits no further retraction"},
      {"hom.masked_vs_plain",
       "masked and plain homomorphism search agree on existence"},
      {"hom.reference",
       "the block search agrees with brute-force enumeration (at most 6 "
       "nulls) plain, seeded and injective null-to-null, and every map it "
       "returns is a homomorphism extending the seed"},
      {"inverse.quasi",
       "the quasi-inverse of a full-tgd mapping passes the "
       "extended-recovery check"},
      {"laconic.compile",
       "laconic compilation succeeds or reports an RDX2xx capability note"},
      {"laconic.core",
       "the laconic chase is isomorphic to chase + blocked core"},
      {"laconic.canonical",
       "laconic and blocked cores render byte-identically after canonical "
       "null renaming"},
      {"laconic.satisfies",
       "the laconic chase result satisfies the original dependencies"},
      {"serialize.roundtrip",
       "RDXC encode -> decode -> encode is lossless and byte-identical, on "
       "both the Instance and columnar decode paths"},
      {"serialize.canonical",
       "canonical-mode RDXC bytes are invariant under fact insertion order"},
      {"status.*",
       "any engine error other than ResourceExhausted fails the scenario"},
  };
  return *catalog;
}

Result<OracleReport> RunOracles(const FuzzScenario& scenario,
                                const OracleOptions& options) {
  OracleReport report;
  Battery battery(scenario, options, &report);
  battery.Run();
  return report;
}

}  // namespace fuzz
}  // namespace rdx
