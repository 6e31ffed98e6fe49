#include "chase/chase.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>

#include "base/attribution.h"
#include "base/metrics.h"
#include "base/parallel_for.h"
#include "base/spans.h"
#include "base/strings.h"
#include "base/trace.h"
#include "chase/chase_internal.h"
#include "core/fact_index.h"

namespace rdx {
namespace chase_internal {
namespace {

// True if `match` binds every variable of `disjunct` (no existentials).
bool BoundUnder(const std::vector<Atom>& disjunct, const Assignment& match) {
  for (const Atom& a : disjunct) {
    for (const Term& t : a.terms()) {
      if (t.IsVariable() && match.count(t.variable()) == 0) return false;
    }
  }
  return true;
}

}  // namespace

Result<bool> HeadSatisfied(const Instance& instance, const FactIndex* index,
                           const Dependency& dep, const Assignment& match,
                           const MatchOptions& options) {
  for (const auto& disjunct : dep.disjuncts()) {
    bool satisfied = false;
    if (BoundUnder(disjunct, match)) {
      satisfied = true;
      for (const Atom& a : disjunct) {
        RDX_ASSIGN_OR_RETURN(Fact f, a.Ground(match));
        if (!instance.Contains(f)) {
          satisfied = false;
          break;
        }
      }
    } else {
      Status status = EnumerateMatches(
          disjunct, instance, *index,
          [&](const Assignment&) {
            satisfied = true;
            return false;  // one witness suffices
          },
          options, match);
      RDX_RETURN_IF_ERROR(status);
    }
    if (satisfied) return true;
  }
  return false;
}

Result<uint64_t> FireDisjunct(const std::vector<Atom>& disjunct,
                              const Assignment& match, Instance* instance,
                              std::vector<Fact>* added_facts) {
  Assignment extended = match;
  for (const Atom& a : disjunct) {
    for (Variable v : a.Vars()) {
      if (extended.count(v) == 0) {
        extended.emplace(v, Value::FreshNull());
      }
    }
  }
  uint64_t added = 0;
  for (const Atom& a : disjunct) {
    RDX_ASSIGN_OR_RETURN(Fact f, a.Ground(extended));
    if (instance->AddFact(f)) {
      ++added;
      added_facts->push_back(std::move(f));
    }
  }
  return added;
}

}  // namespace chase_internal

namespace {

using chase_internal::FireDisjunct;
using chase_internal::HeadSatisfied;

struct Trigger {
  const Dependency* dep;
  Assignment match;
};

// Canonical key for trigger dedup under semi-naive enumeration (the same
// match can be discovered from several delta facts).
std::vector<uint64_t> TriggerKey(const Dependency* dep,
                                 const Assignment& match) {
  std::vector<uint64_t> key;
  key.reserve(match.size() * 2 + 1);
  key.push_back(reinterpret_cast<uintptr_t>(dep));
  std::vector<std::pair<uint32_t, uint64_t>> entries;
  entries.reserve(match.size());
  for (const auto& [var, value] : match) {
    entries.emplace_back(var.id(),
                         (static_cast<uint64_t>(value.kind()) << 32) |
                             value.id());
  }
  std::sort(entries.begin(), entries.end());
  for (const auto& [var_id, packed] : entries) {
    key.push_back(var_id);
    key.push_back(packed);
  }
  return key;
}

// Attempts to pre-bind `atom`'s variables so that it grounds to `fact`
// (the semi-naive anchor). Returns nullopt on mismatch.
std::optional<Assignment> AnchorSeed(const Atom& atom, const Fact& fact) {
  Assignment seed;
  const std::vector<Term>& terms = atom.terms();
  const std::vector<Value>& args = fact.args();
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (terms[i].IsConstant()) {
      if (!(terms[i].constant() == args[i])) return std::nullopt;
      continue;
    }
    auto it = seed.find(terms[i].variable());
    if (it != seed.end()) {
      if (!(it->second == args[i])) return std::nullopt;
    } else {
      seed.emplace(terms[i].variable(), args[i]);
    }
  }
  return seed;
}

// Adds a task-local MatchStats into the caller's accumulator (the
// accumulator pointer is not thread-safe, so parallel enumeration tasks
// record locally and merge here, in task order, after the join).
void MergeMatchStats(const MatchStats& run, MatchStats* accumulator) {
  if (accumulator == nullptr) return;
  accumulator->enumerations += run.enumerations;
  accumulator->steps += run.steps;
  accumulator->candidates += run.candidates;
  accumulator->matches += run.matches;
}

// One semi-naive enumeration unit: dependency `dep` with its body anchored
// at a delta fact through `seed`. Tasks are built in the exact order the
// sequential loop nest visits them, so merging task results in task order
// (under the TriggerKey dedup) reproduces the sequential trigger list.
struct EnumerationTask {
  const Dependency* dep;
  Assignment seed;
};

struct EnumerationResult {
  std::vector<Assignment> matches;
  MatchStats run;
  uint64_t micros = 0;  // task wall time; only measured when `timed`
  Status status = Status::OK();
};

// Runs every task (each one a full sequential EnumerateMatches over a
// shared snapshot index) across `num_threads` threads. Results land in
// task order regardless of scheduling.
std::vector<EnumerationResult> RunEnumerationTasks(
    const std::vector<EnumerationTask>& tasks, const Instance& instance,
    const FactIndex& index, const MatchOptions& match_options,
    uint64_t num_threads, bool timed) {
  std::vector<EnumerationResult> results(tasks.size());
  par::ParallelFor(num_threads, tasks.size(), [&](std::size_t t) {
    EnumerationResult& r = results[t];
    MatchOptions task_options = match_options;
    task_options.num_threads = 1;
    task_options.stats = &r.run;
    std::optional<obs::ScopedTimer> timer;
    if (timed) timer.emplace(nullptr, &r.micros);
    r.status = EnumerateMatches(
        tasks[t].dep->body(), instance, index,
        [&](const Assignment& match) {
          r.matches.push_back(match);
          return true;
        },
        task_options, tasks[t].seed);
  });
  return results;
}

// Publishes a finished run's totals to the process-wide "chase.*"
// counters (one batched atomic add per counter) and, when tracing, emits
// the "chase.done" event.
void PublishChaseStats(const ChaseStats& stats, bool completed) {
  static obs::Counter& runs = obs::Counter::Get("chase.runs");
  static obs::Counter& rounds = obs::Counter::Get("chase.rounds");
  static obs::Counter& enumerated =
      obs::Counter::Get("chase.triggers_enumerated");
  static obs::Counter& fired = obs::Counter::Get("chase.triggers_fired");
  static obs::Counter& satisfied =
      obs::Counter::Get("chase.triggers_satisfied");
  static obs::Counter& added = obs::Counter::Get("chase.facts_added");
  static obs::Counter& us = obs::Counter::Get("chase.us");
  runs.Increment();
  rounds.Add(stats.rounds);
  enumerated.Add(stats.triggers_enumerated);
  fired.Add(stats.triggers_fired);
  satisfied.Add(stats.triggers_satisfied);
  added.Add(stats.facts_added);
  us.Add(stats.micros);
  static obs::Histogram& round_us = obs::Histogram::Get("chase.round.us");
  static obs::Histogram& round_facts =
      obs::Histogram::Get("chase.round.facts");
  for (const ChaseRoundStats& r : stats.per_round) {
    round_us.Record(r.micros);
    round_facts.Record(r.facts_added);
  }
  // Per-dependency attribution: the run's wall time splits into the time
  // measured on behalf of each dependency plus an "(overhead)" residual
  // (index builds, dedup, bookkeeping), so the chase.dep rows sum to the
  // run's span — the invariant tools/rdx_prof checks.
  uint64_t attributed_us = 0;
  for (const ChaseDepStats& d : stats.per_dependency) {
    attributed_us += d.micros;
  }
  const uint64_t overhead_us =
      stats.micros > attributed_us ? stats.micros - attributed_us : 0;
  if (obs::AttributionEnabled()) {
    for (const ChaseDepStats& d : stats.per_dependency) {
      obs::Attribution& row = obs::Attribution::Get("chase.dep", d.label);
      row.AddTimeMicros(d.micros);
      row.AddFired(d.triggers_fired);
      row.AddFacts(d.facts_added);
    }
    obs::Attribution::Get("chase.dep", "(overhead)")
        .AddTimeMicros(overhead_us);
    for (const ChaseRoundStats& r : stats.per_round) {
      obs::Attribution& row = obs::Attribution::Get(
          "chase.round", StrCat("round ", r.round));
      row.AddTimeMicros(r.micros);
      row.AddFired(r.triggers_fired);
      row.AddFacts(r.facts_added);
    }
  }
  if (obs::TracingEnabled()) {
    for (const ChaseDepStats& d : stats.per_dependency) {
      obs::EmitTrace(obs::TraceEvent("chase.dep")
                         .Add("dep", d.dep)
                         .Add("label", d.label)
                         .Add("triggers", d.triggers_enumerated)
                         .Add("fired", d.triggers_fired)
                         .Add("satisfied", d.triggers_satisfied)
                         .Add("new_facts", d.facts_added)
                         .Add("us", d.micros));
    }
    obs::EmitTrace(obs::TraceEvent("chase.dep")
                       .Add("dep", int64_t{-1})
                       .Add("label", "(overhead)")
                       .Add("us", overhead_us));
    obs::EmitTrace(obs::TraceEvent("chase.done")
                       .Add("rounds", stats.rounds)
                       .Add("triggers", stats.triggers_enumerated)
                       .Add("fired", stats.triggers_fired)
                       .Add("new_facts", stats.facts_added)
                       .Add("completed", completed)
                       .Add("us", stats.micros));
  }
}

}  // namespace

std::string ChaseStats::ToString() const {
  std::string out = StrCat(
      "chase: rounds=", rounds, " triggers=", triggers_enumerated,
      " fired=", triggers_fired, " satisfied=", triggers_satisfied,
      " new_facts=", facts_added, " us=", micros, "\n");
  for (const ChaseRoundStats& r : per_round) {
    out += StrCat("  round ", r.round, ": frontier=", r.frontier,
                  " triggers=", r.triggers_enumerated, " fired=",
                  r.triggers_fired, " satisfied=", r.triggers_satisfied,
                  " new_facts=", r.facts_added, " us=", r.micros, "\n");
  }
  for (const ChaseDepStats& d : per_dependency) {
    out += StrCat("  ", d.label, ": triggers=", d.triggers_enumerated,
                  " fired=", d.triggers_fired, " satisfied=",
                  d.triggers_satisfied, " new_facts=", d.facts_added,
                  " us=", d.micros, "\n");
  }
  return out;
}

Result<ChaseResult> Chase(const Instance& input,
                          const std::vector<Dependency>& dependencies,
                          const ChaseOptions& options) {
  for (const Dependency& dep : dependencies) {
    if (dep.HasDisjunction()) {
      return Status::InvalidArgument(
          StrCat("Chase does not support disjunctive dependencies (use "
                 "DisjunctiveChase): ",
                 dep.Describe()));
    }
  }

  ChaseResult result;
  result.combined = input;
  ChaseStats& stats = result.stats;
  stats.per_dependency.resize(dependencies.size());
  for (std::size_t d = 0; d < dependencies.size(); ++d) {
    stats.per_dependency[d].dep = d;
    stats.per_dependency[d].label =
        StrCat("d", d, " ", dependencies[d].ToString());
  }
  // Per-trigger timing costs two clock reads per trigger; only pay it when
  // someone is looking. Counts stay exact either way.
  const bool attributed = obs::AttributionEnabled() || obs::TracingEnabled();
  obs::Span run_span("chase");
  obs::ScopedTimer run_timer;
  uint64_t total_added = 0;
  std::vector<Fact> delta;  // facts added in the previous round

  for (uint64_t round = 0; round < options.max_rounds; ++round) {
    ChaseRoundStats round_stats;
    round_stats.round = round;
    round_stats.frontier = delta.size();
    obs::Span round_span("chase.round");
    round_span.Arg("round", round);
    obs::ScopedTimer round_timer;
    // Snapshot this round's triggers against a fixed index. The first
    // round enumerates everything; later rounds (semi-naive) only matches
    // anchored at a delta fact.
    FactIndex index(result.combined);
    std::vector<Trigger> triggers;
    const bool semi_naive = options.use_semi_naive && round > 0;
    if (!semi_naive) {
      // Full enumeration per dependency; CollectMatches fans the search
      // out over num_threads and returns matches in sequential order.
      MatchOptions match_options = options.match_options;
      match_options.num_threads = options.num_threads;
      for (const Dependency& dep : dependencies) {
        std::optional<obs::ScopedTimer> dep_timer;
        uint64_t dep_us = 0;
        if (attributed) dep_timer.emplace(nullptr, &dep_us);
        RDX_ASSIGN_OR_RETURN(
            std::vector<Assignment> matches,
            CollectMatches(dep.body(), result.combined, index,
                           match_options));
        dep_timer.reset();
        stats.per_dependency[&dep - dependencies.data()].micros += dep_us;
        for (Assignment& match : matches) {
          triggers.push_back(Trigger{&dep, std::move(match)});
        }
      }
    } else {
      // One task per (dependency, anchor atom, delta fact) in the order
      // the sequential loop nest visits them; run in parallel, then merge
      // in task order so the dedup below sees matches exactly as the
      // sequential enumeration would produce them.
      std::vector<EnumerationTask> tasks;
      for (const Dependency& dep : dependencies) {
        const std::vector<Atom> body = dep.RelationalBody();
        for (std::size_t ai = 0; ai < body.size(); ++ai) {
          for (const Fact& f : delta) {
            if (!(f.relation() == body[ai].relation())) continue;
            std::optional<Assignment> seed = AnchorSeed(body[ai], f);
            if (!seed.has_value()) continue;
            tasks.push_back(EnumerationTask{&dep, *std::move(seed)});
          }
        }
      }
      std::vector<EnumerationResult> enumerated = RunEnumerationTasks(
          tasks, result.combined, index, options.match_options,
          options.num_threads, attributed);
      std::set<std::vector<uint64_t>> seen;
      for (std::size_t t = 0; t < tasks.size(); ++t) {
        MergeMatchStats(enumerated[t].run, options.match_options.stats);
        stats.per_dependency[tasks[t].dep - dependencies.data()].micros +=
            enumerated[t].micros;
        RDX_RETURN_IF_ERROR(enumerated[t].status);
        for (Assignment& match : enumerated[t].matches) {
          if (seen.insert(TriggerKey(tasks[t].dep, match)).second) {
            triggers.push_back(Trigger{tasks[t].dep, std::move(match)});
          }
        }
      }
    }

    round_stats.triggers_enumerated = triggers.size();
    for (const Trigger& trigger : triggers) {
      ++stats.per_dependency[trigger.dep - dependencies.data()]
            .triggers_enumerated;
    }

    uint64_t added_this_round = 0;
    std::vector<Fact> next_delta;
    // The round's index doubles as the live index during firing: fact
    // storage is append-stable, so newly fired facts are folded in
    // incrementally (standard-chase semantics — earlier fires discharge
    // later triggers).
    std::size_t indexed_facts = result.combined.size();
    for (const Trigger& trigger : triggers) {
      ChaseDepStats& dep_stats =
          stats.per_dependency[trigger.dep - dependencies.data()];
      std::optional<obs::ScopedTimer> fire_timer;
      uint64_t fire_us = 0;
      if (attributed) fire_timer.emplace(nullptr, &fire_us);
      RDX_ASSIGN_OR_RETURN(
          bool satisfied,
          HeadSatisfied(result.combined, &index, *trigger.dep, trigger.match,
                        options.match_options));
      if (satisfied) {
        fire_timer.reset();
        dep_stats.micros += fire_us;
        ++round_stats.triggers_satisfied;
        ++dep_stats.triggers_satisfied;
        continue;
      }
      ++round_stats.triggers_fired;
      ++dep_stats.triggers_fired;
      RDX_ASSIGN_OR_RETURN(
          uint64_t added,
          FireDisjunct(trigger.dep->disjuncts()[0], trigger.match,
                       &result.combined, &next_delta));
      for (std::size_t i = indexed_facts; i < result.combined.size(); ++i) {
        index.Add(&result.combined.facts()[i]);
      }
      indexed_facts = result.combined.size();
      fire_timer.reset();
      dep_stats.micros += fire_us;
      dep_stats.facts_added += added;
      added_this_round += added;
      total_added += added;
      if (total_added > options.max_new_facts) {
        stats.micros = run_timer.ElapsedMicros();
        PublishChaseStats(stats, /*completed=*/false);
        return Status::ResourceExhausted(StrCat(
            "chase exceeded max_new_facts=", options.max_new_facts, ": ",
            total_added, " facts added by round ", round, " (",
            round_stats.triggers_fired, " of ",
            round_stats.triggers_enumerated,
            " triggers fired in the current round; last fired: ",
            trigger.dep->Describe(), ")"));
      }
    }

    round_stats.facts_added = added_this_round;
    round_stats.micros = round_timer.ElapsedMicros();
    round_span.Arg("fired", round_stats.triggers_fired)
        .Arg("new_facts", round_stats.facts_added);
    stats.rounds = round + 1;
    stats.triggers_enumerated += round_stats.triggers_enumerated;
    stats.triggers_fired += round_stats.triggers_fired;
    stats.triggers_satisfied += round_stats.triggers_satisfied;
    stats.facts_added += round_stats.facts_added;
    stats.per_round.push_back(round_stats);
    if (obs::TracingEnabled()) {
      obs::EmitTrace(obs::TraceEvent("chase.round")
                         .Add("round", round_stats.round)
                         .Add("frontier", round_stats.frontier)
                         .Add("triggers", round_stats.triggers_enumerated)
                         .Add("fired", round_stats.triggers_fired)
                         .Add("satisfied", round_stats.triggers_satisfied)
                         .Add("new_facts", round_stats.facts_added)
                         .Add("us", round_stats.micros));
    }

    result.rounds = round + 1;
    if (added_this_round == 0) {
      // Fixpoint reached: compute the added-facts view and return.
      for (const Fact& f : result.combined.facts()) {
        if (!input.Contains(f)) result.added.AddFact(f);
      }
      stats.micros = run_timer.ElapsedMicros();
      run_span.Arg("rounds", stats.rounds)
          .Arg("new_facts", stats.facts_added);
      PublishChaseStats(stats, /*completed=*/true);
      return result;
    }
    delta = std::move(next_delta);
  }
  stats.micros = run_timer.ElapsedMicros();
  PublishChaseStats(stats, /*completed=*/false);
  return Status::ResourceExhausted(
      StrCat("chase did not terminate within max_rounds=", options.max_rounds,
             ": ", total_added, " facts added over ", stats.rounds,
             " rounds"));
}

Result<bool> Satisfies(const Instance& instance, const Dependency& dependency,
                       const MatchOptions& options) {
  FactIndex index(instance);
  bool all_satisfied = true;
  Status inner_error = Status::OK();
  Status status = EnumerateMatches(
      dependency.body(), instance, index,
      [&](const Assignment& match) {
        Result<bool> head =
            HeadSatisfied(instance, &index, dependency, match, options);
        if (!head.ok()) {
          inner_error = head.status();
          all_satisfied = false;
          return false;
        }
        if (!*head) {
          all_satisfied = false;
          return false;
        }
        return true;
      },
      options);
  RDX_RETURN_IF_ERROR(status);
  RDX_RETURN_IF_ERROR(inner_error);
  return all_satisfied;
}

Result<bool> SatisfiesAll(const Instance& instance,
                          const std::vector<Dependency>& dependencies,
                          const MatchOptions& options) {
  for (const Dependency& dep : dependencies) {
    RDX_ASSIGN_OR_RETURN(bool sat, Satisfies(instance, dep, options));
    if (!sat) return false;
  }
  return true;
}

}  // namespace rdx
