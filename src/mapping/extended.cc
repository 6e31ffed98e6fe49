#include "mapping/extended.h"

#include <utility>

#include "base/strings.h"
#include "core/core_computation.h"

namespace rdx {
namespace {

Status CheckChaseable(const SchemaMapping& mapping, bool allow_inequalities) {
  if (mapping.UsesDisjunction()) {
    return Status::FailedPrecondition(
        "operation requires a non-disjunctive mapping");
  }
  if (!allow_inequalities && mapping.UsesInequalities()) {
    return Status::FailedPrecondition(
        "the chase criterion for extended solutions is not valid for "
        "mappings with inequalities");
  }
  return Status::OK();
}

Status CheckSourceInstance(const SchemaMapping& mapping, const Instance& I) {
  if (!I.ConformsTo(mapping.source())) {
    return Status::InvalidArgument(
        StrCat("instance does not conform to the mapping's source schema ",
               mapping.source().ToString()));
  }
  return Status::OK();
}

}  // namespace

Result<Instance> ChaseMapping(const SchemaMapping& mapping, const Instance& I,
                              const ChaseOptions& options) {
  RDX_ASSIGN_OR_RETURN(ChaseResult result,
                       ChaseMappingWithStats(mapping, I, options));
  return std::move(result.added);
}

Result<ChaseResult> ChaseMappingWithStats(const SchemaMapping& mapping,
                                          const Instance& I,
                                          const ChaseOptions& options) {
  RDX_RETURN_IF_ERROR(CheckChaseable(mapping, /*allow_inequalities=*/true));
  RDX_RETURN_IF_ERROR(CheckSourceInstance(mapping, I));
  return Chase(I, mapping.dependencies(), options);
}

Result<Instance> CoreChaseMapping(const SchemaMapping& mapping,
                                  const Instance& I,
                                  const ChaseOptions& options) {
  RDX_ASSIGN_OR_RETURN(Instance chased, ChaseMapping(mapping, I, options));
  return ComputeCore(chased);
}

Result<std::vector<Instance>> DisjunctiveChaseMapping(
    const SchemaMapping& mapping, const Instance& I,
    const DisjunctiveChaseOptions& options) {
  RDX_RETURN_IF_ERROR(CheckSourceInstance(mapping, I));
  RDX_ASSIGN_OR_RETURN(DisjunctiveChaseResult result,
                       DisjunctiveChase(I, mapping.dependencies(), options));
  return std::move(result.added);
}

Result<bool> IsSolution(const SchemaMapping& mapping, const Instance& I,
                        const Instance& J, const MatchOptions& options) {
  return mapping.Satisfied(I, J, options);
}

Result<bool> IsExtendedSolution(const SchemaMapping& mapping,
                                const Instance& I, const Instance& J,
                                const ChaseOptions& options) {
  RDX_RETURN_IF_ERROR(CheckChaseable(mapping, /*allow_inequalities=*/false));
  if (!J.ConformsTo(mapping.target())) {
    return Status::InvalidArgument(
        "candidate solution does not conform to the target schema");
  }
  RDX_ASSIGN_OR_RETURN(Instance chased, ChaseMapping(mapping, I, options));
  return HasHomomorphism(chased, J);
}

Result<bool> IsExtendedUniversalSolution(const SchemaMapping& mapping,
                                         const Instance& I, const Instance& J,
                                         const ChaseOptions& options) {
  RDX_RETURN_IF_ERROR(CheckChaseable(mapping, /*allow_inequalities=*/false));
  if (!J.ConformsTo(mapping.target())) {
    return Status::InvalidArgument(
        "candidate solution does not conform to the target schema");
  }
  RDX_ASSIGN_OR_RETURN(Instance chased, ChaseMapping(mapping, I, options));
  return AreHomEquivalent(chased, J);
}

Result<bool> ArrowM(const SchemaMapping& mapping, const Instance& I1,
                    const Instance& I2, const ChaseOptions& options) {
  RDX_RETURN_IF_ERROR(CheckChaseable(mapping, /*allow_inequalities=*/false));
  RDX_ASSIGN_OR_RETURN(Instance c1, ChaseMapping(mapping, I1, options));
  RDX_ASSIGN_OR_RETURN(Instance c2, ChaseMapping(mapping, I2, options));
  return HasHomomorphism(c1, c2);
}

Result<bool> ArrowMGround(const SchemaMapping& mapping, const Instance& I1,
                          const Instance& I2, const ChaseOptions& options) {
  if (!I1.IsGround() || !I2.IsGround()) {
    return Status::InvalidArgument(
        "ArrowMGround requires ground instances (Definition 4.18)");
  }
  return ArrowM(mapping, I1, I2, options);
}

}  // namespace rdx
