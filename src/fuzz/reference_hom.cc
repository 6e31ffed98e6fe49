#include "fuzz/reference_hom.h"

#include <unordered_set>
#include <vector>

#include "base/strings.h"

namespace rdx {
namespace fuzz {
namespace {

// The image of `v` under h, constants and unbound values fixed.
Value Image(const ValueMap& h, const Value& v) {
  auto it = h.find(v);
  return it == h.end() ? v : it->second;
}

// True if every fact of `from` maps into `to` under h.
bool MapsInto(const Instance& from, const Instance& to, const ValueMap& h) {
  for (const Fact& f : from.facts()) {
    std::vector<Value> args;
    args.reserve(f.arity());
    for (const Value& v : f.args()) args.push_back(Image(h, v));
    if (!to.Contains(Fact::MustMake(f.relation(), std::move(args)))) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<std::optional<ValueMap>> ReferenceFindHomomorphism(
    const Instance& from, const Instance& to, const ValueMap& seed,
    const HomomorphismOptions& options) {
  for (const auto& [k, v] : seed) {
    if (k.IsConstant() && !(k == v)) {
      return Status::InvalidArgument(
          StrCat("seed maps constant ", k.ToString(), " to ", v.ToString()));
    }
  }
  std::vector<Value> free;  // unbound nulls of `from`, first occurrence first
  std::vector<Value> reserved;  // images fixed before enumeration
  for (const Value& v : from.ActiveDomain()) {
    if (v.IsConstant()) {
      reserved.push_back(v);
    } else if (seed.count(v) == 0) {
      free.push_back(v);
    }
  }
  if (free.size() > kMaxReferenceNulls) {
    return Status::InvalidArgument(
        StrCat("reference search over ", free.size(), " unbound nulls (at most ",
               kMaxReferenceNulls, ")"));
  }
  for (const auto& [k, v] : seed) {
    if (k.IsNull()) reserved.push_back(v);
  }
  if (options.injective &&
      std::unordered_set<Value, ValueHash>(reserved.begin(), reserved.end())
              .size() != reserved.size()) {
    return std::optional<ValueMap>();
  }
  const std::vector<Value> domain =
      options.nulls_to_nulls ? to.Nulls() : to.ActiveDomain();
  if (!free.empty() && domain.empty()) return std::optional<ValueMap>();

  // Odometer over domain^|free|; pick[i] indexes free[i]'s image.
  std::vector<std::size_t> pick(free.size(), 0);
  while (true) {
    ValueMap h = seed;
    for (std::size_t i = 0; i < free.size(); ++i) {
      h.insert_or_assign(free[i], domain[pick[i]]);
    }
    bool injective = true;
    if (options.injective) {
      std::unordered_set<Value, ValueHash> images(reserved.begin(),
                                                  reserved.end());
      for (const Value& v : free) {
        injective = injective && images.insert(h.at(v)).second;
      }
    }
    if (injective && MapsInto(from, to, h)) return std::optional<ValueMap>(h);
    std::size_t i = 0;
    while (i < pick.size() && ++pick[i] == domain.size()) pick[i++] = 0;
    if (i == pick.size()) return std::optional<ValueMap>();
  }
}

std::string CheckHomomorphismWitness(const Instance& from, const Instance& to,
                                     const ValueMap& seed,
                                     const HomomorphismOptions& options,
                                     const ValueMap& h) {
  for (const auto& [k, v] : seed) {
    auto it = h.find(k);
    if (it == h.end() || !(it->second == v)) {
      return StrCat("does not extend the seed at ", k.ToString());
    }
  }
  for (const auto& [k, v] : h) {
    if (k.IsConstant() && !(k == v)) {
      return StrCat("moves constant ", k.ToString(), " to ", v.ToString());
    }
  }
  std::unordered_set<Value, ValueHash> images;
  for (const Value& v : from.ActiveDomain()) {
    if (v.IsNull()) {
      auto it = h.find(v);
      if (it == h.end()) return StrCat("leaves null ", v.ToString(), " unbound");
      if (options.nulls_to_nulls && seed.count(v) == 0 &&
          !it->second.IsNull()) {
        return StrCat("maps null ", v.ToString(), " to constant ",
                      it->second.ToString());
      }
    }
    if (options.injective && !images.insert(Image(h, v)).second) {
      return StrCat("is not injective: ", v.ToString(), " shares its image ",
                    Image(h, v).ToString());
    }
  }
  if (!MapsInto(from, to, h)) return "maps a fact outside the target";
  return "";
}

}  // namespace fuzz
}  // namespace rdx
