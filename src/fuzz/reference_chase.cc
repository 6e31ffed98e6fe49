#include "fuzz/reference_chase.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <utility>

#include "base/strings.h"
#include "core/fact_index.h"
#include "core/match.h"

namespace rdx {
namespace fuzz {
namespace {

struct UnsatisfiedTrigger {
  const Dependency* dep;
  Assignment match;
};

// Scans one dependency for a body match with no satisfiable head disjunct,
// leaving it in *found (first in enumeration order).
Status ScanDependency(const Instance& instance, const FactIndex& index,
                      const Dependency& dep, const MatchOptions& options,
                      std::optional<UnsatisfiedTrigger>* found) {
  Status inner_error = Status::OK();
  Status status = EnumerateMatches(
      dep.body(), instance, index,
      [&](const Assignment& match) {
        // Check whether some disjunct is satisfiable under `match`.
        for (const auto& disjunct : dep.disjuncts()) {
          bool satisfied = false;
          Status s = EnumerateMatches(
              disjunct, instance, index,
              [&](const Assignment&) {
                satisfied = true;
                return false;
              },
              options, match);
          if (!s.ok()) {
            inner_error = s;
            return false;
          }
          if (satisfied) return true;  // this match is fine; keep going
        }
        *found = UnsatisfiedTrigger{&dep, match};
        return false;  // stop at the first violation
      },
      options);
  RDX_RETURN_IF_ERROR(status);
  RDX_RETURN_IF_ERROR(inner_error);
  return Status::OK();
}

// Finds the first body match of some dependency with no satisfiable head
// disjunct, or nullopt if `instance` satisfies all dependencies.
Result<std::optional<UnsatisfiedTrigger>> FindUnsatisfiedTrigger(
    const Instance& instance, const std::vector<Dependency>& dependencies,
    const MatchOptions& options) {
  FactIndex index(instance);
  for (const Dependency& dep : dependencies) {
    std::optional<UnsatisfiedTrigger> found;
    RDX_RETURN_IF_ERROR(ScanDependency(instance, index, dep, options, &found));
    if (found.has_value()) return found;
  }
  return std::optional<UnsatisfiedTrigger>();
}

// Grounds `disjunct` under `match` with fresh nulls for existential
// variables, returning the child instance.
Result<Instance> ExpandBranch(const Instance& state,
                              const std::vector<Atom>& disjunct,
                              const Assignment& match) {
  Assignment extended = match;
  for (const Atom& a : disjunct) {
    for (Variable v : a.Vars()) {
      if (extended.count(v) == 0) {
        extended.emplace(v, Value::FreshNull());
      }
    }
  }
  Instance child = state;
  for (const Atom& a : disjunct) {
    RDX_ASSIGN_OR_RETURN(Fact f, a.Ground(extended));
    child.AddFact(f);
  }
  return child;
}

std::string StatsDiff(const DisjunctiveChaseStats& a,
                      const DisjunctiveChaseStats& b) {
  std::string out;
  auto field = [&out](const std::string& name, uint64_t x, uint64_t y) {
    if (x != y) out += StrCat(name, " ", x, " vs reference ", y, "; ");
  };
  field("steps", a.steps, b.steps);
  field("branches_expanded", a.branches_expanded, b.branches_expanded);
  field("branches_completed", a.branches_completed, b.branches_completed);
  field("branches_deduped", a.branches_deduped, b.branches_deduped);
  field("max_live_branches", a.max_live_branches, b.max_live_branches);
  field("peak_instance_facts", a.peak_instance_facts, b.peak_instance_facts);
  field("dependency rows", a.per_dependency.size(), b.per_dependency.size());
  for (std::size_t d = 0;
       d < std::min(a.per_dependency.size(), b.per_dependency.size()); ++d) {
    field(StrCat("d", d, " fired"), a.per_dependency[d].fired,
          b.per_dependency[d].fired);
    field(StrCat("d", d, " facts"), a.per_dependency[d].facts,
          b.per_dependency[d].facts);
  }
  return out;
}

// Both runs must end in the same status; "" when they do.
std::string StatusDiff(const Status& engine, const Status& reference,
                       const std::string& label) {
  if (engine.code() == reference.code() &&
      engine.message() == reference.message()) {
    return "";
  }
  return StrCat(label, ": status ", engine.ToString(), " vs reference ",
                reference.ToString());
}

}  // namespace

Result<DisjunctiveChaseResult> ReferenceDisjunctiveChase(
    const Instance& input, const std::vector<Dependency>& dependencies,
    const DisjunctiveChaseOptions& options) {
  DisjunctiveChaseResult result;
  DisjunctiveChaseStats& stats = result.stats;
  stats.per_dependency.resize(dependencies.size());
  std::deque<Instance> queue;
  queue.push_back(input);

  while (!queue.empty()) {
    stats.max_live_branches = std::max<uint64_t>(stats.max_live_branches,
                                                 queue.size());
    if (queue.size() > options.max_branches) {
      return Status::ResourceExhausted(
          StrCat("disjunctive chase exceeded max_branches=",
                 options.max_branches, " after ", stats.steps, " steps (",
                 stats.branches_completed, " branches completed)"));
    }
    if (++result.steps > options.max_steps) {
      return Status::ResourceExhausted(
          StrCat("disjunctive chase exceeded max_steps=", options.max_steps,
                 " (", queue.size() + 1, " branches live, ",
                 stats.branches_completed, " completed)"));
    }
    stats.steps = result.steps;
    Instance state = std::move(queue.front());
    queue.pop_front();
    stats.peak_instance_facts =
        std::max<uint64_t>(stats.peak_instance_facts, state.size());

    RDX_ASSIGN_OR_RETURN(
        std::optional<UnsatisfiedTrigger> trigger,
        FindUnsatisfiedTrigger(state, dependencies, options.match_options));
    if (!trigger.has_value()) {
      ++stats.branches_completed;
      // Completed branch: dedup (exact, then up to hom-equivalence).
      bool duplicate = false;
      for (const Instance& earlier : result.combined) {
        if (earlier == state) {
          duplicate = true;
          break;
        }
        if (options.dedup_hom_equivalent) {
          RDX_ASSIGN_OR_RETURN(bool equiv, AreHomEquivalent(earlier, state));
          if (equiv) {
            duplicate = true;
            break;
          }
        }
      }
      if (!duplicate) {
        result.combined.push_back(std::move(state));
      } else {
        ++stats.branches_deduped;
      }
      continue;
    }

    uint64_t facts_this_step = 0;
    for (const auto& disjunct : trigger->dep->disjuncts()) {
      RDX_ASSIGN_OR_RETURN(Instance child,
                           ExpandBranch(state, disjunct, trigger->match));
      facts_this_step += child.size() - state.size();
      queue.push_back(std::move(child));
      ++stats.branches_expanded;
    }
    DisjunctiveChaseDepStats& winner =
        stats.per_dependency[trigger->dep - dependencies.data()];
    winner.fired += 1;
    winner.facts += facts_this_step;
  }

  // Added-facts view.
  result.added.reserve(result.combined.size());
  for (const Instance& combined : result.combined) {
    Instance added;
    for (const Fact& f : combined.facts()) {
      if (!input.Contains(f)) added.AddFact(f);
    }
    result.added.push_back(std::move(added));
  }
  return result;
}

Result<std::string> CompareWithReferenceChase(
    const Instance& input, const std::vector<Dependency>& dependencies,
    const DisjunctiveChaseOptions& options, const HomomorphismOptions& hom) {
  Result<DisjunctiveChaseResult> engine =
      DisjunctiveChase(input, dependencies, options);
  Result<DisjunctiveChaseResult> reference =
      ReferenceDisjunctiveChase(input, dependencies, options);
  if (!engine.ok() || !reference.ok()) {
    std::string diff =
        StatusDiff(engine.status(), reference.status(), "unconstrained run");
    if (!diff.empty()) return diff;
    return engine.status();
  }

  std::string diff = StatsDiff(engine->stats, reference->stats);
  if (!diff.empty()) return StrCat("stats differ: ", diff);
  if (engine->combined.size() != reference->combined.size() ||
      engine->added.size() != reference->added.size()) {
    return StrCat("world counts differ: ", engine->combined.size(),
                  " vs reference ", reference->combined.size());
  }
  for (std::size_t w = 0; w < engine->combined.size(); ++w) {
    RDX_ASSIGN_OR_RETURN(bool combined_iso,
                         AreIsomorphic(engine->combined[w],
                                       reference->combined[w], hom));
    RDX_ASSIGN_OR_RETURN(
        bool added_iso,
        AreIsomorphic(engine->added[w], reference->added[w], hom));
    if (!combined_iso || !added_iso) {
      return StrCat("world ", w, " is not isomorphic to the reference's: ",
                    engine->combined[w].ToString(), " vs ",
                    reference->combined[w].ToString());
    }
  }

  // Tight budgets must trip at the same point with the same message.
  std::vector<std::pair<std::string, DisjunctiveChaseOptions>> tight;
  if (reference->stats.steps > 1) {
    DisjunctiveChaseOptions o = options;
    o.max_steps = reference->stats.steps / 2;
    tight.emplace_back(StrCat("max_steps=", o.max_steps), o);
  }
  if (reference->stats.max_live_branches > 1) {
    DisjunctiveChaseOptions o = options;
    o.max_branches = reference->stats.max_live_branches - 1;
    tight.emplace_back(StrCat("max_branches=", o.max_branches), o);
  }
  for (const auto& [label, o] : tight) {
    Result<DisjunctiveChaseResult> e = DisjunctiveChase(input, dependencies, o);
    Result<DisjunctiveChaseResult> r =
        ReferenceDisjunctiveChase(input, dependencies, o);
    diff = StatusDiff(e.status(), r.status(), label);
    if (!diff.empty()) return diff;
  }
  return std::string();
}

}  // namespace fuzz
}  // namespace rdx
