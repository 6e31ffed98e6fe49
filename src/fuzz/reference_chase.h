#ifndef RDX_FUZZ_REFERENCE_CHASE_H_
#define RDX_FUZZ_REFERENCE_CHASE_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "chase/disjunctive_chase.h"
#include "core/dependency.h"
#include "core/homomorphism.h"
#include "core/instance.h"

namespace rdx {
namespace fuzz {

/// The straightforward disjunctive chase, kept as a differential oracle
/// for DisjunctiveChase: every step re-matches every dependency body over
/// the whole branch from dependency 0, copies the branch once per head
/// disjunct, and dedups completed branches with AreHomEquivalent. It is
/// sequential (options.num_threads is ignored) and publishes no metrics
/// or traces. Its worlds, stats (steps, branches, peak facts,
/// per-dependency fired/facts) and ResourceExhausted messages are the
/// specification DisjunctiveChase must reproduce exactly. Test and fuzz
/// use only.
Result<DisjunctiveChaseResult> ReferenceDisjunctiveChase(
    const Instance& input, const std::vector<Dependency>& dependencies,
    const DisjunctiveChaseOptions& options = {});

/// Runs DisjunctiveChase and ReferenceDisjunctiveChase on the same input
/// and checks the exactness contract: the same status (code and message),
/// and on success pairwise isomorphic worlds in the same order, equal
/// counting stats and equal per-dependency fired/facts rows. When the run
/// completes in more than one step, both engines are re-run under a step
/// budget of half the steps used, and (when more than one branch was live)
/// a branch budget one below the high-water mark, and must fail
/// identically.
///
/// Returns the first difference found, or "" when the engines agree. When
/// both engines fail identically on the unconstrained run, that shared
/// error is returned as the status. Errors of the isomorphism checks (run
/// under `hom`) are returned as the status too.
Result<std::string> CompareWithReferenceChase(
    const Instance& input, const std::vector<Dependency>& dependencies,
    const DisjunctiveChaseOptions& options = {},
    const HomomorphismOptions& hom = {});

}  // namespace fuzz
}  // namespace rdx

#endif  // RDX_FUZZ_REFERENCE_CHASE_H_
