#ifndef RDX_CORE_HOMOMORPHISM_H_
#define RDX_CORE_HOMOMORPHISM_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "base/status.h"
#include "core/fact_index.h"
#include "core/instance.h"

namespace rdx {

/// Observability stats for the backtracking homomorphism search.
/// Accumulated (+=) across calls so one struct can cover a whole phase
/// (e.g. every search performed by one ComputeCore); also mirrored into
/// the process-wide "hom.*" counters.
struct HomomorphismStats {
  uint64_t searches = 0;             // FindHomomorphism calls
  uint64_t steps = 0;                // backtracking nodes expanded
  uint64_t candidate_pairs = 0;      // (source fact, target fact) unifications tried
  uint64_t backtracks = 0;           // bindings rolled back
  uint64_t domain_filter_prunes = 0; // searches refuted by the arc-consistency filter
  uint64_t found = 0;                // searches that found a homomorphism
  uint64_t blocks = 0;               // null-blocks of the sources (masked: 1)
  uint64_t micros = 0;
};

/// Tuning knobs for the homomorphism search.
struct HomomorphismOptions {
  /// Backtracking-node budget; exceeded => ResourceExhausted. The default
  /// is far above anything the test/bench workloads need.
  uint64_t max_steps = 50'000'000;

  /// Require h to be injective on the source's active domain (no two
  /// values share an image). Used by isomorphism checking.
  bool injective = false;

  /// Require nulls to map to nulls (h restricted to Var). Used by
  /// isomorphism checking, where the inverse must also fix constants.
  bool nulls_to_nulls = false;

  /// Arc-consistency-style preprocessing: before the backtracking search,
  /// intersect each source null's candidate set across all (fact,
  /// position) occurrences; an empty domain refutes without search.
  /// Semantically transparent. Default OFF: the E2 ablation benchmark
  /// measured the indexed most-constrained-first search refuting typical
  /// negatives faster than the filter's O(|from|·candidates) setup cost
  /// (see EXPERIMENTS.md); enable for workloads with large, globally
  /// unsatisfiable inputs.
  bool use_domain_filter = false;

  /// Threads used by the callers that race independent searches —
  /// ComputeCore / IsCore retraction attempts and the mapping-level
  /// inverse checks. FindHomomorphism itself is always single-threaded;
  /// it ignores this field. The raced winner is always the one the
  /// sequential order would find first, so results are identical for
  /// every value. 1 = the plain sequential code path. See
  /// docs/parallelism.md.
  uint64_t num_threads = 1;

  /// Optional per-run stats accumulator (not owned; may be null). The
  /// pointed-to struct is incremented, never reset, by each search run
  /// with these options.
  HomomorphismStats* stats = nullptr;
};

/// Searches for a homomorphism h : from → to (Definition 3.1): h fixes all
/// constants and maps each fact of `from` to a fact of `to`.
///
/// `seed` optionally pre-binds some nulls of `from`; the returned map (if
/// any) extends it. The returned map binds exactly the nulls occurring in
/// `from` (plus the seed); constants are implicitly fixed.
///
/// Returns nullopt when no homomorphism exists, and ResourceExhausted when
/// the step budget runs out.
///
/// `from` is split into ground facts, decided by membership in `to`, and
/// null-blocks (core/blocks.h), each searched on its own, hardest first;
/// a block that cannot map refutes the search (docs/core.md).
Result<std::optional<ValueMap>> FindHomomorphism(
    const Instance& from, const Instance& to, const ValueMap& seed = {},
    const HomomorphismOptions& options = {});

/// FindHomomorphism with a caller-owned index over `to`. The plain
/// overload builds a fresh FactIndex on every call; loops that probe many
/// sources against one stable target (the chase/core engines, the
/// information-loss pair scans) build the index once and pass it here.
/// `to_index` must index exactly `to` and both must outlive the call.
Result<std::optional<ValueMap>> FindHomomorphism(
    const Instance& from, const Instance& to, const FactIndex& to_index,
    const ValueMap& seed = {}, const HomomorphismOptions& options = {});

/// Masked-target search: looks for a homomorphism from the explicit fact
/// set `from_facts` into the indexed instance restricted to the facts
/// alive in `mask` (if non-null) and distinct from the fact with index
/// ordinal `excluded` (pass kNoFactOrdinal to exclude nothing). This is
/// the copy-free retraction primitive of the core engine: "can this block
/// map into the instance with fact f masked out" without materializing
/// the sub-instance or rebuilding its index.
///
/// The domain-filter preprocessing pass is not applied here (it needs the
/// target in instance form); everything else behaves like
/// FindHomomorphism, including stats publication under "hom.*".
Result<std::optional<ValueMap>> FindHomomorphismMasked(
    const std::vector<const Fact*>& from_facts, const FactIndex& to_index,
    const FactMask* mask, uint32_t excluded = kNoFactOrdinal,
    const HomomorphismOptions& options = {});

/// Decides `from → to` (the paper's binary relation →).
Result<bool> HasHomomorphism(const Instance& from, const Instance& to,
                             const HomomorphismOptions& options = {});

/// Decides homomorphic equivalence: from → to and to → from.
Result<bool> AreHomEquivalent(const Instance& a, const Instance& b,
                              const HomomorphismOptions& options = {});

/// Decides isomorphism: a bijective homomorphism whose inverse is also a
/// homomorphism, i.e. an injective, null-to-null homomorphism between
/// instances of equal size. Strictly finer than homomorphic equivalence
/// (e.g. {P(?X,?X)} and {P(?X,?X), P(?X,?Y)} are hom-equivalent but not
/// isomorphic). Useful for asserting that two constructions agree up to
/// renaming of nulls.
Result<bool> AreIsomorphic(const Instance& a, const Instance& b,
                           const HomomorphismOptions& options = {});

}  // namespace rdx

#endif  // RDX_CORE_HOMOMORPHISM_H_
