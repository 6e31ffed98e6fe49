#ifndef RDX_CHASE_CHASE_INTERNAL_H_
#define RDX_CHASE_CHASE_INTERNAL_H_

// Trigger primitives shared by the standard chase (chase.cc) and the
// disjunctive chase (disjunctive_chase.cc). Not part of the public API.

#include <cstdint>
#include <vector>

#include "base/status.h"
#include "core/dependency.h"
#include "core/fact_index.h"
#include "core/instance.h"
#include "core/match.h"

namespace rdx {
namespace chase_internal {

/// True if some disjunct of `dep` is satisfiable in `instance` under an
/// extension of `match` (existential variables free). A full disjunct
/// (no existential variables) grounds completely under `match` and is
/// decided by Instance::Contains; only disjuncts with existentials search
/// `index`, which must index exactly `instance`. `index` may be null when
/// every disjunct of `dep` is full.
Result<bool> HeadSatisfied(const Instance& instance, const FactIndex* index,
                           const Dependency& dep, const Assignment& match,
                           const MatchOptions& options);

/// Grounds `disjunct` under `match`, instantiating existential variables
/// with globally fresh nulls (in atom order), and adds the facts to
/// `instance`. Facts that were not already present are appended to
/// `added_facts`; returns how many there were.
Result<uint64_t> FireDisjunct(const std::vector<Atom>& disjunct,
                              const Assignment& match, Instance* instance,
                              std::vector<Fact>* added_facts);

}  // namespace chase_internal
}  // namespace rdx

#endif  // RDX_CHASE_CHASE_INTERNAL_H_
