#include "chase/disjunctive_chase.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_set>

#include "base/attribution.h"
#include "base/metrics.h"
#include "base/spans.h"
#include "base/strings.h"
#include "base/trace.h"
#include "chase/chase_internal.h"
#include "core/fact_index.h"
#include "core/homomorphism.h"
#include "core/match.h"

namespace rdx {
namespace {

using chase_internal::FireDisjunct;
using chase_internal::HeadSatisfied;

struct Trigger {
  const Dependency* dep;
  Assignment match;
};
using TriggerList = std::vector<Trigger>;

// One live branch of the search. `triggers` is every body match in
// (dependency, enumeration) order; every trigger before `cursor` is
// satisfied in `instance`, and since facts are only ever added it stays
// so. A null `triggers` means the list must be re-enumerated over this
// branch (a step added a fact to a body-read relation). `index`, when
// present, indexes exactly `instance`; it is built on demand (body
// enumeration, or a head disjunct with existential variables) and kept in
// step with in-place firing, and a copied child starts without one.
struct Branch {
  Instance instance;
  std::shared_ptr<const TriggerList> triggers;
  std::size_t cursor = 0;
  std::unique_ptr<FactIndex> index;

  const FactIndex& Index() {
    if (index == nullptr) index = std::make_unique<FactIndex>(instance);
    return *index;
  }
};

// Enumerates every dependency's body matches over the branch, in the
// order the sequential per-dependency scan visits them (CollectMatches
// returns sequential order at any num_threads).
Result<std::shared_ptr<const TriggerList>> EnumerateTriggers(
    Branch* branch, const std::vector<Dependency>& dependencies,
    const MatchOptions& match_options) {
  auto triggers = std::make_shared<TriggerList>();
  for (const Dependency& dep : dependencies) {
    RDX_ASSIGN_OR_RETURN(
        std::vector<Assignment> matches,
        CollectMatches(dep.body(), branch->instance, branch->Index(),
                       match_options));
    for (Assignment& match : matches) {
      triggers->push_back(Trigger{&dep, std::move(match)});
    }
  }
  return std::shared_ptr<const TriggerList>(std::move(triggers));
}

// Fires `disjunct` under `match` into `branch`, past the trigger at its
// cursor (which the grounded disjunct now satisfies). Returns the number
// of facts added. A fact landing in a body-read relation may create body
// matches, so it drops the branch's trigger list for re-enumeration.
Result<uint64_t> FireInto(Branch* branch, const std::vector<Atom>& disjunct,
                          const Assignment& match,
                          const std::unordered_set<uint32_t>& body_relations) {
  std::vector<Fact> added_facts;
  const std::size_t before = branch->instance.size();
  RDX_ASSIGN_OR_RETURN(uint64_t added,
                       FireDisjunct(disjunct, match, &branch->instance,
                                    &added_facts));
  if (branch->index != nullptr) {
    const std::deque<Fact>& facts = branch->instance.facts();
    for (std::size_t i = before; i < facts.size(); ++i) {
      branch->index->Add(&facts[i]);
    }
  }
  ++branch->cursor;
  for (const Fact& f : added_facts) {
    if (body_relations.count(f.relation().id()) > 0) {
      branch->triggers.reset();
      branch->cursor = 0;
      break;
    }
  }
  return added;
}

// Publishes the per-dependency rows to the "dchase.dep" attribution
// domain and, when tracing, as "dchase.dep" events. `satisfied_us` is the
// time spent on steps that found no violation (branch completion and
// dedup), reported under the pseudo-key "(satisfied)".
void PublishDisjunctiveAttribution(
    const std::vector<Dependency>& dependencies,
    const std::vector<DisjunctiveChaseDepStats>& work, uint64_t satisfied_us) {
  const bool attributing = obs::AttributionEnabled();
  const bool tracing = obs::TracingEnabled();
  if (!attributing && !tracing) return;
  for (std::size_t d = 0; d < dependencies.size(); ++d) {
    std::string label = StrCat("d", d, " ", dependencies[d].ToString());
    if (attributing) {
      obs::Attribution& row = obs::Attribution::Get("dchase.dep", label);
      row.AddTimeMicros(work[d].micros);
      row.AddFired(work[d].fired);
      row.AddFacts(work[d].facts);
    }
    if (tracing) {
      obs::EmitTrace(obs::TraceEvent("dchase.dep")
                         .Add("dep", static_cast<uint64_t>(d))
                         .Add("label", label)
                         .Add("fired", work[d].fired)
                         .Add("new_facts", work[d].facts)
                         .Add("us", work[d].micros));
    }
  }
  if (attributing) {
    obs::Attribution::Get("dchase.dep", "(satisfied)")
        .AddTimeMicros(satisfied_us);
  }
  if (tracing) {
    obs::EmitTrace(obs::TraceEvent("dchase.dep")
                       .Add("dep", int64_t{-1})
                       .Add("label", "(satisfied)")
                       .Add("us", satisfied_us));
  }
}

// One batched publish of a run's totals to the "dchase.*" counters plus
// the "dchase.done" trace event.
void PublishDisjunctiveStats(const DisjunctiveChaseStats& stats,
                             uint64_t worlds, bool completed) {
  static obs::Counter& runs = obs::Counter::Get("dchase.runs");
  static obs::Counter& steps = obs::Counter::Get("dchase.steps");
  static obs::Counter& expanded = obs::Counter::Get("dchase.branches_expanded");
  static obs::Counter& done = obs::Counter::Get("dchase.branches_completed");
  static obs::Counter& deduped = obs::Counter::Get("dchase.branches_deduped");
  static obs::Counter& us = obs::Counter::Get("dchase.us");
  runs.Increment();
  steps.Add(stats.steps);
  expanded.Add(stats.branches_expanded);
  done.Add(stats.branches_completed);
  deduped.Add(stats.branches_deduped);
  us.Add(stats.micros);
  if (obs::TracingEnabled()) {
    obs::EmitTrace(obs::TraceEvent("dchase.done")
                       .Add("steps", stats.steps)
                       .Add("expanded", stats.branches_expanded)
                       .Add("completed_branches", stats.branches_completed)
                       .Add("deduped", stats.branches_deduped)
                       .Add("max_live", stats.max_live_branches)
                       .Add("peak_facts", stats.peak_instance_facts)
                       .Add("worlds", worlds)
                       .Add("completed", completed)
                       .Add("us", stats.micros));
  }
}

}  // namespace

std::string DisjunctiveChaseStats::ToString() const {
  return StrCat("dchase: steps=", steps, " expanded=", branches_expanded,
                " completed=", branches_completed, " deduped=",
                branches_deduped, " max_live=", max_live_branches,
                " peak_facts=", peak_instance_facts, " us=", micros, "\n");
}

Result<DisjunctiveChaseResult> DisjunctiveChase(
    const Instance& input, const std::vector<Dependency>& dependencies,
    const DisjunctiveChaseOptions& options) {
  DisjunctiveChaseResult result;
  DisjunctiveChaseStats& stats = result.stats;
  obs::Span run_span("dchase");
  obs::ScopedTimer run_timer;
  const bool attributed = obs::AttributionEnabled() || obs::TracingEnabled();
  stats.per_dependency.resize(dependencies.size());
  uint64_t satisfied_us = 0;
  std::unordered_set<uint32_t> body_relations;
  // Head checks for dependencies whose disjuncts are all full need no
  // index (HeadSatisfied decides them by Instance::Contains).
  std::vector<bool> full(dependencies.size());
  for (std::size_t d = 0; d < dependencies.size(); ++d) {
    for (Relation r : dependencies[d].BodyRelations()) {
      body_relations.insert(r.id());
    }
    full[d] = dependencies[d].IsFull();
  }
  const bool all_full = std::find(full.begin(), full.end(), false) == full.end();
  MatchOptions enumerate_options = options.match_options;
  enumerate_options.num_threads = options.num_threads;
  // Dedup keys of result.combined, in the same order.
  struct World {
    std::size_t hash;
    bool ground;
  };
  std::vector<World> worlds;
  std::deque<Branch> queue;
  queue.push_back(Branch{input, nullptr, 0, nullptr});

  while (!queue.empty()) {
    stats.max_live_branches = std::max<uint64_t>(stats.max_live_branches,
                                                 queue.size());
    if (queue.size() > options.max_branches) {
      stats.micros = run_timer.ElapsedMicros();
      PublishDisjunctiveAttribution(dependencies, stats.per_dependency,
                                    satisfied_us);
      PublishDisjunctiveStats(stats, result.combined.size(),
                              /*completed=*/false);
      return Status::ResourceExhausted(
          StrCat("disjunctive chase exceeded max_branches=",
                 options.max_branches, " after ", stats.steps, " steps (",
                 stats.branches_completed, " branches completed)"));
    }
    if (++result.steps > options.max_steps) {
      stats.steps = result.steps;
      stats.micros = run_timer.ElapsedMicros();
      PublishDisjunctiveAttribution(dependencies, stats.per_dependency,
                                    satisfied_us);
      PublishDisjunctiveStats(stats, result.combined.size(),
                              /*completed=*/false);
      return Status::ResourceExhausted(
          StrCat("disjunctive chase exceeded max_steps=", options.max_steps,
                 " (", queue.size() + 1, " branches live, ",
                 stats.branches_completed, " completed)"));
    }
    stats.steps = result.steps;
    Branch branch = std::move(queue.front());
    queue.pop_front();
    stats.peak_instance_facts =
        std::max<uint64_t>(stats.peak_instance_facts, branch.instance.size());

    std::optional<obs::ScopedTimer> step_timer;
    uint64_t step_us = 0;
    if (attributed) step_timer.emplace(nullptr, &step_us);
    if (branch.triggers == nullptr) {
      RDX_ASSIGN_OR_RETURN(
          branch.triggers,
          EnumerateTriggers(&branch, dependencies, enumerate_options));
      // Head checks of full dependencies never read the index.
      if (all_full) branch.index.reset();
    }
    // Advance past satisfied triggers to the first unsatisfied one.
    const TriggerList& triggers = *branch.triggers;
    for (; branch.cursor < triggers.size(); ++branch.cursor) {
      const Trigger& t = triggers[branch.cursor];
      const FactIndex* index =
          full[t.dep - dependencies.data()] ? nullptr : &branch.Index();
      RDX_ASSIGN_OR_RETURN(
          bool satisfied,
          HeadSatisfied(branch.instance, index, *t.dep, t.match,
                        options.match_options));
      if (!satisfied) break;
    }
    if (branch.cursor == triggers.size()) {
      ++stats.branches_completed;
      // Completed branch: dedup (exact, then up to hom-equivalence). Equal
      // instances have equal order-insensitive hashes, and two ground
      // instances are hom-equivalent only when equal.
      const World world{branch.instance.Hash(), branch.instance.IsGround()};
      bool duplicate = false;
      for (std::size_t w = 0; w < result.combined.size(); ++w) {
        const Instance& earlier = result.combined[w];
        if (worlds[w].hash == world.hash && earlier == branch.instance) {
          duplicate = true;
          break;
        }
        if (options.dedup_hom_equivalent &&
            !(world.ground && worlds[w].ground)) {
          RDX_ASSIGN_OR_RETURN(bool equiv,
                               AreHomEquivalent(earlier, branch.instance));
          if (equiv) {
            duplicate = true;
            break;
          }
        }
      }
      if (!duplicate) {
        result.combined.push_back(std::move(branch.instance));
        worlds.push_back(world);
      } else {
        ++stats.branches_deduped;
      }
      step_timer.reset();
      satisfied_us += step_us;
      continue;
    }

    // Keep the trigger alive: firing may drop the branch's list.
    std::shared_ptr<const TriggerList> keep = branch.triggers;
    const Trigger& trigger = triggers[branch.cursor];
    const auto& disjuncts = trigger.dep->disjuncts();
    uint64_t facts_this_step = 0;
    // One child per disjunct, in order. All but the last start as copies
    // of the unmodified branch; the last fires into the branch in place.
    for (std::size_t i = 0; i < disjuncts.size(); ++i) {
      Branch child = i + 1 < disjuncts.size()
                         ? Branch{branch.instance, branch.triggers,
                                  branch.cursor, nullptr}
                         : std::move(branch);
      RDX_ASSIGN_OR_RETURN(
          uint64_t added,
          FireInto(&child, disjuncts[i], trigger.match, body_relations));
      facts_this_step += added;
      queue.push_back(std::move(child));
      ++stats.branches_expanded;
    }
    step_timer.reset();
    DisjunctiveChaseDepStats& winner =
        stats.per_dependency[trigger.dep - dependencies.data()];
    winner.micros += step_us;
    winner.fired += 1;
    winner.facts += facts_this_step;
  }

  // Added-facts view: every branch starts as a copy of `input` and only
  // appends, so its added facts are exactly those past input.size().
  result.added.reserve(result.combined.size());
  for (const Instance& combined : result.combined) {
    Instance added;
    for (std::size_t i = input.size(); i < combined.size(); ++i) {
      added.AddFact(combined.facts()[i]);
    }
    result.added.push_back(std::move(added));
  }
  stats.micros = run_timer.ElapsedMicros();
  run_span.Arg("steps", stats.steps)
      .Arg("worlds", static_cast<uint64_t>(result.combined.size()));
  PublishDisjunctiveAttribution(dependencies, stats.per_dependency,
                                satisfied_us);
  PublishDisjunctiveStats(stats, result.combined.size(), /*completed=*/true);
  return result;
}

}  // namespace rdx
