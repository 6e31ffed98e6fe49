#ifndef RDX_FUZZ_REFERENCE_HOM_H_
#define RDX_FUZZ_REFERENCE_HOM_H_

#include <cstddef>
#include <optional>
#include <string>

#include "base/status.h"
#include "core/homomorphism.h"
#include "core/instance.h"

namespace rdx {
namespace fuzz {

/// The most unbound nulls ReferenceFindHomomorphism enumerates over.
inline constexpr std::size_t kMaxReferenceNulls = 6;

/// The brute-force homomorphism search, kept as the differential oracle
/// for FindHomomorphism's block search: it enumerates every assignment of
/// the nulls of `from` that `seed` leaves unbound over the active domain of
/// `to` (its nulls only, under options.nulls_to_nulls) and returns the
/// first assignment, extended by `seed`, under which every fact of `from`
/// lies in `to`. With options.injective the images of the constants of
/// `from`, of the seed's nulls and of the enumerated nulls must be pairwise
/// distinct, as in FindHomomorphism. No other option is read; there is no
/// step budget and no metric is published.
///
/// InvalidArgument when the seed moves a constant or more than
/// kMaxReferenceNulls nulls are unbound. Test and fuzz use only.
Result<std::optional<ValueMap>> ReferenceFindHomomorphism(
    const Instance& from, const Instance& to, const ValueMap& seed = {},
    const HomomorphismOptions& options = {});

/// Checks that `h` is a homomorphism `from` → `to` as FindHomomorphism
/// promises it: it extends `seed`, fixes every constant it binds, binds
/// every null of `from`, maps nulls to nulls under options.nulls_to_nulls
/// (seeded nulls excepted), is injective on the active domain of `from`
/// under options.injective, and from.Apply(h) ⊆ to. Returns "" when it
/// is, else the first violation.
std::string CheckHomomorphismWitness(const Instance& from, const Instance& to,
                                     const ValueMap& seed,
                                     const HomomorphismOptions& options,
                                     const ValueMap& h);

}  // namespace fuzz
}  // namespace rdx

#endif  // RDX_FUZZ_REFERENCE_HOM_H_
