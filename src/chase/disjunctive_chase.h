#ifndef RDX_CHASE_DISJUNCTIVE_CHASE_H_
#define RDX_CHASE_DISJUNCTIVE_CHASE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "chase/chase.h"
#include "core/dependency.h"
#include "core/instance.h"

namespace rdx {

struct DisjunctiveChaseOptions {
  /// Maximum number of simultaneously live branches; exceeded =>
  /// ResourceExhausted.
  uint64_t max_branches = 100'000;

  /// Maximum total expansion steps across all branches.
  uint64_t max_steps = 1'000'000;

  /// If true (default), drop result instances that are homomorphically
  /// equivalent to an earlier result (the set semantics of Section 6 only
  /// cares about results up to homomorphic equivalence). Exact duplicates
  /// are always dropped.
  bool dedup_hom_equivalent = true;

  /// Threads for the one-time body-match enumeration (CollectMatches,
  /// rdx::par), which returns matches in sequential order, so branching
  /// order and the final result set are identical for every value. 1 (the
  /// default) is exactly the sequential code path. See
  /// docs/parallelism.md.
  uint64_t num_threads = 1;

  MatchOptions match_options;
};

/// Work attributed to one dependency: the steps its unsatisfied triggers
/// drove and the facts those steps added across all children.
struct DisjunctiveChaseDepStats {
  uint64_t fired = 0;
  uint64_t facts = 0;
  uint64_t micros = 0;  // only measured when tracing or attribution is on
};

/// Observability stats for a disjunctive chase run. The "universe" figures
/// describe the branch tree the search actually explored.
struct DisjunctiveChaseStats {
  uint64_t steps = 0;               // branches dequeued and examined
  uint64_t branches_expanded = 0;   // children enqueued (one per disjunct)
  uint64_t branches_completed = 0;  // branches satisfying all dependencies
  uint64_t branches_deduped = 0;    // completed branches dropped as duplicate
  uint64_t max_live_branches = 0;   // queue high-water mark
  uint64_t peak_instance_facts = 0; // largest branch instance seen
  uint64_t micros = 0;
  /// One row per dependency, in dependency order.
  std::vector<DisjunctiveChaseDepStats> per_dependency;

  std::string ToString() const;
};

/// Outcome of a disjunctive chase: the set of completed branch instances.
struct DisjunctiveChaseResult {
  /// Combined instances (input facts plus the facts each branch added).
  std::vector<Instance> combined;

  /// The added-facts view of each branch, aligned with `combined`. For a
  /// reverse mapping M' = (T, S, Σ') applied to a T-instance J, this is
  /// the set chase_Σ'(J) = {V1, ..., Vk} of Section 6.
  std::vector<Instance> added;

  uint64_t steps = 0;

  /// Per-run engine statistics (mirrored into the process-wide "dchase.*"
  /// counters; "dchase.done" is emitted when a trace sink is installed).
  DisjunctiveChaseStats stats;
};

/// Runs the disjunctive chase of `input` with `dependencies` (Section 6):
/// each unsatisfied trigger branches the current instance into one child
/// per head disjunct; a branch completes when it satisfies all
/// dependencies. Returns every completed branch.
///
/// Branches are expanded breadth-first, one step per queue turn. Each
/// step handles the first unsatisfied trigger in (dependency, body-match)
/// order. Body matches are enumerated once and each branch keeps a cursor
/// into that list: facts are only ever added, so a satisfied trigger stays
/// satisfied, and the list is re-enumerated for a branch only when a step
/// adds a fact to a relation some body reads (never for a mapping, whose
/// bodies and heads use disjoint schemas).
///
/// Plain tgds are handled as one-disjunct dependencies, so a mixed set is
/// fine. Inequality and Constant body atoms are supported.
Result<DisjunctiveChaseResult> DisjunctiveChase(
    const Instance& input, const std::vector<Dependency>& dependencies,
    const DisjunctiveChaseOptions& options = {});

}  // namespace rdx

#endif  // RDX_CHASE_DISJUNCTIVE_CHASE_H_
