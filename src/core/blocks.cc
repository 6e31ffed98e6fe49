#include "core/blocks.h"

#include <numeric>

#include "base/hash.h"

namespace rdx {
namespace {

// Disjoint-set forest over dense ids with path halving.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }

  std::size_t Find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(std::size_t a, std::size_t b) {
    a = Find(a);
    b = Find(b);
    // Lower root wins so representatives stay stable in insertion order.
    if (a == b) return;
    if (a < b) {
      parent_[b] = a;
    } else {
      parent_[a] = b;
    }
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

BlockDecomposition DecomposeIntoBlocks(const Instance& instance) {
  BlockDecomposition out;
  // Dense ids for the non-ground facts, in insertion order.
  std::vector<const Fact*> null_facts;
  null_facts.reserve(instance.size());
  std::size_t null_positions = 0;
  for (const Fact& f : instance.facts()) {
    if (f.IsGround()) {
      out.ground.push_back(&f);
    } else {
      null_facts.push_back(&f);
      null_positions += f.args().size();
    }
  }
  if (null_facts.empty()) return out;

  UnionFind sets(null_facts.size());
  // Facts sharing a null are connected: union each fact with the previous
  // fact seen for every null it carries.
  FlatIdMap last_fact_with_null(null_positions);
  for (std::size_t i = 0; i < null_facts.size(); ++i) {
    for (const Value& v : null_facts[i]->args()) {
      if (!v.IsNull()) continue;
      auto [last, inserted] = last_fact_with_null.TryEmplace(
          v.PackedId(), static_cast<uint32_t>(i));
      if (!inserted) {
        sets.Union(*last, i);
        *last = static_cast<uint32_t>(i);
      }
    }
  }

  // Group by root; block order = order of each root's first fact.
  constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);
  std::vector<std::size_t> block_of_root(null_facts.size(), kNoBlock);
  for (std::size_t i = 0; i < null_facts.size(); ++i) {
    std::size_t& block = block_of_root[sets.Find(i)];
    if (block == kNoBlock) {
      block = out.blocks.size();
      out.blocks.emplace_back();
    }
    out.blocks[block].push_back(null_facts[i]);
  }
  return out;
}

uint64_t BlockFingerprint(const std::vector<const Fact*>& facts) {
  // XOR of fact hashes is order-insensitive; the seed keeps the empty
  // residue distinct from a zero-hash singleton.
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const Fact* f : facts) {
    h ^= static_cast<uint64_t>(f->Hash());
  }
  return h;
}

}  // namespace rdx
