#include "core/homomorphism.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "base/hash.h"
#include "base/metrics.h"
#include "base/spans.h"
#include "base/strings.h"
#include "base/trace.h"
#include "core/blocks.h"
#include "core/fact_index.h"

namespace rdx {
namespace {

// Batched publish of one search run's totals to the "hom.*" counters plus
// the caller's accumulator (if any) and, when tracing, a "hom.search"
// event.
void PublishHomStats(const HomomorphismStats& run,
                     HomomorphismStats* accumulator, uint64_t from_facts) {
  static obs::Counter& searches = obs::Counter::Get("hom.searches");
  static obs::Counter& steps = obs::Counter::Get("hom.steps");
  static obs::Counter& pairs = obs::Counter::Get("hom.candidate_pairs");
  static obs::Counter& backtracks = obs::Counter::Get("hom.backtracks");
  static obs::Counter& prunes = obs::Counter::Get("hom.domain_filter_prunes");
  static obs::Counter& found = obs::Counter::Get("hom.found");
  static obs::Counter& blocks = obs::Counter::Get("hom.blocks");
  static obs::Counter& us = obs::Counter::Get("hom.us");
  searches.Increment();
  steps.Add(run.steps);
  pairs.Add(run.candidate_pairs);
  backtracks.Add(run.backtracks);
  prunes.Add(run.domain_filter_prunes);
  found.Add(run.found);
  blocks.Add(run.blocks);
  us.Add(run.micros);
  if (accumulator != nullptr) {
    accumulator->searches += 1;
    accumulator->steps += run.steps;
    accumulator->candidate_pairs += run.candidate_pairs;
    accumulator->backtracks += run.backtracks;
    accumulator->domain_filter_prunes += run.domain_filter_prunes;
    accumulator->found += run.found;
    accumulator->blocks += run.blocks;
    accumulator->micros += run.micros;
  }
  if (obs::TracingEnabled()) {
    obs::EmitTrace(obs::TraceEvent("hom.search")
                       .Add("from_facts", from_facts)
                       .Add("steps", run.steps)
                       .Add("pairs", run.candidate_pairs)
                       .Add("backtracks", run.backtracks)
                       .Add("pruned", run.domain_filter_prunes != 0)
                       .Add("found", run.found != 0)
                       .Add("us", run.micros));
  }
}

// The backtracking search, lowered onto the columnar index: source facts
// are compiled once into packed-id rows (constants inline, nulls as dense
// slot numbers), the binding is a flat uint32 vector indexed by slot, and
// candidate filtering walks the index's per-position posting lists of row
// numbers.
//
// The source arrives as blocks searched one at a time: the Gaifman
// null-blocks of DecomposeIntoBlocks (the caller probes the ground facts),
// or, on the masked path, one block holding every fact. Each step picks
// the unmatched fact of the current block with the fewest candidates
// (most-constrained first), so a step costs O(block), not O(source).
// Blocks partition the nulls, so a block that cannot map refutes the whole
// search and is never retried under another binding of an earlier block;
// only injective mode, where blocks compete for target values, backtracks
// across blocks. Blocks run hardest first (see OrderBlocksHardestFirst).
// A single block enumerates exactly like a whole-source search, so the
// masked path's steps/candidate_pairs/backtracks are those of the
// unsplit search.
class HomSearch {
 public:
  HomSearch(BlockDecomposition parts, const FactIndex& index,
            const HomomorphismOptions& options,
            const FactMask* mask = nullptr,
            uint32_t excluded = kNoFactOrdinal)
      : index_(index),
        mask_(mask),
        excluded_(excluded),
        options_(options),
        parts_(std::move(parts)) {}

  Result<std::optional<ValueMap>> Run(const ValueMap& seed) {
    Prepare(seed);
    if (options_.injective) {
      // Constants of the source are their own (reserved) images; seed
      // bindings occupy their targets too.
      for (const Fact* f : parts_.ground) {
        for (const Value& v : f->args()) used_targets_.insert(v.PackedId());
      }
      for (std::size_t k = 0; k < terms_.size(); ++k) {
        if (!is_null_[k]) used_targets_.insert(terms_[k]);
      }
      for (const auto& [from, to] : seed) {
        if (from.IsNull()) {
          if (!used_targets_.insert(to.PackedId()).second) {
            return std::optional<ValueMap>();  // seed already non-injective
          }
        }
      }
    }
    matched_.assign(prepared_.size(), false);
    bind_stack_.resize(prepared_.size());
    steps_ = 0;
    bool found = SearchBlocks();
    if (budget_exceeded_) {
      return Status::ResourceExhausted(
          StrCat("homomorphism search exceeded ", options_.max_steps,
                 " steps"));
    }
    if (!found) return std::optional<ValueMap>();
    ValueMap out = seed;
    for (std::size_t s = 0; s < binding_.size(); ++s) {
      if (binding_[s] != Value::kInvalidPackedId) {
        out.insert_or_assign(slot_values_[s], Value::FromPackedId(binding_[s]));
      }
    }
    return std::optional<ValueMap>(out);
  }

 private:
  // One source fact, lowered: terms_[begin + pos] is the constant's packed
  // id when is_null_[begin + pos] == 0, else the null's slot number. The
  // per-position data lives in shared arenas so preparing n facts costs two
  // allocations, not 2n — negative searches that die in the first selection
  // pass are dominated by this setup.
  struct PreparedFact {
    const FactIndex::RelStore* store = nullptr;  // null: relation unindexed
    uint32_t begin = 0;
    uint32_t arity = 0;
  };

  // Block `b` of the search is prepared_[begin, end); `key` is its
  // smallest initial CandidateBound (set only when there is an order to
  // choose).
  struct BlockRange {
    uint32_t begin = 0;
    uint32_t end = 0;
    std::size_t key = std::numeric_limits<std::size_t>::max();
  };

  void Prepare(const ValueMap& seed) {
    std::size_t total_facts = 0;
    std::size_t total_arity = 0;
    for (const std::vector<const Fact*>& block : parts_.blocks) {
      total_facts += block.size();
      for (const Fact* f : block) total_arity += f->args().size();
    }
    FlatIdMap slot_of(total_arity);  // packed null -> slot
    terms_.reserve(total_arity);
    is_null_.reserve(total_arity);
    prepared_.reserve(total_facts);
    slot_values_.reserve(total_arity);
    blocks_.reserve(parts_.blocks.size());
    for (const std::vector<const Fact*>& block : parts_.blocks) {
      BlockRange& range = blocks_.emplace_back();
      range.begin = static_cast<uint32_t>(prepared_.size());
      for (const Fact* f : block) {
        PreparedFact& p = prepared_.emplace_back();
        p.store = index_.StoreOf(f->relation());
        p.begin = static_cast<uint32_t>(terms_.size());
        p.arity = static_cast<uint32_t>(f->args().size());
        for (const Value& v : f->args()) {
          if (v.IsConstant()) {
            terms_.push_back(v.PackedId());
            is_null_.push_back(0);
          } else {
            auto [slot, inserted] = slot_of.TryEmplace(
                v.PackedId(), static_cast<uint32_t>(slot_values_.size()));
            if (inserted) slot_values_.push_back(v);
            terms_.push_back(*slot);
            is_null_.push_back(1);
          }
        }
      }
      range.end = static_cast<uint32_t>(prepared_.size());
    }
    binding_.assign(slot_values_.size(), Value::kInvalidPackedId);
    for (const auto& [from, to] : seed) {
      if (!from.IsNull()) continue;
      const uint32_t* slot = slot_of.Find(from.PackedId());
      if (slot != nullptr) binding_[*slot] = to.PackedId();
    }
    OrderBlocksHardestFirst();
  }

  // Reorders the blocks by their most constrained fact: the smallest
  // CandidateBound under the seed, ties kept in source order. A block
  // that cannot map usually has a fact with no candidate at all, so it
  // comes first and refutes on the first step instead of after every
  // other block has been searched.
  void OrderBlocksHardestFirst() {
    if (blocks_.size() <= 1) return;
    for (BlockRange& range : blocks_) {
      for (uint32_t i = range.begin; i < range.end; ++i) {
        range.key = std::min(range.key, CandidateBound(prepared_[i]));
      }
    }
    std::sort(blocks_.begin(), blocks_.end(),
              [](const BlockRange& x, const BlockRange& y) {
                return x.key != y.key ? x.key < y.key : x.begin < y.begin;
              });
  }

  // Number of target candidates compatible with the current binding for
  // prepared source fact `p`, or a cheap upper bound (masked-out facts are
  // still counted, so masking only weakens the bound, never unsoundly
  // prunes). Used for the most-constrained-fact-first heuristic.
  std::size_t CandidateBound(const PreparedFact& p) const {
    if (p.store == nullptr) return 0;
    std::size_t best = p.store->rows();
    for (std::size_t pos = 0; pos < p.arity; ++pos) {
      uint32_t vid = terms_[p.begin + pos];
      if (is_null_[p.begin + pos]) {
        vid = binding_[vid];
        if (vid == Value::kInvalidPackedId) continue;
      }
      const std::vector<uint32_t>* rows = p.store->RowsWith(pos, vid);
      best = std::min(best, rows == nullptr ? std::size_t{0} : rows->size());
    }
    return best;
  }

  bool SearchBlocks() {
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      if (!Search(b, blocks_[b].end - blocks_[b].begin)) return false;
      if (options_.injective) return true;  // Search ran every later block
    }
    return true;
  }

  // Maps the `remaining` unmatched facts of block `b`.
  bool Search(std::size_t b, std::size_t remaining) {
    const BlockRange& range = blocks_[b];
    if (remaining == 0) {
      // Injective mode: later blocks compete with this one for targets,
      // so they are searched beneath this binding and their failure
      // backtracks into it.
      if (!options_.injective || b + 1 == blocks_.size()) return true;
      return Search(b + 1, blocks_[b + 1].end - blocks_[b + 1].begin);
    }
    if (++steps_ > options_.max_steps) {
      budget_exceeded_ = true;
      return false;
    }

    // Pick the block's unmatched fact with the fewest candidates.
    std::size_t best_idx = range.end;
    std::size_t best_bound = std::numeric_limits<std::size_t>::max();
    for (std::size_t i = range.begin; i < range.end; ++i) {
      if (matched_[i]) continue;
      std::size_t bound = CandidateBound(prepared_[i]);
      if (bound < best_bound) {
        best_bound = bound;
        best_idx = i;
        if (bound == 0) break;
      }
    }
    if (best_bound == 0) return false;

    // The candidate rows: the tightest single-position posting list
    // available, or every row of the relation.
    const PreparedFact& p = prepared_[best_idx];
    const std::vector<uint32_t>* list = nullptr;
    std::size_t list_size = p.store->rows();
    for (std::size_t pos = 0; pos < p.arity; ++pos) {
      uint32_t vid = terms_[p.begin + pos];
      if (is_null_[p.begin + pos]) {
        vid = binding_[vid];
        if (vid == Value::kInvalidPackedId) continue;
      }
      const std::vector<uint32_t>* rows = p.store->RowsWith(pos, vid);
      if (rows == nullptr) return false;  // no candidate at all
      if (rows->size() < list_size) {
        list = rows;
        list_size = rows->size();
      }
    }

    matched_[best_idx] = true;
    const uint32_t n_rows = static_cast<uint32_t>(p.store->rows());
    std::vector<uint32_t>& newly_bound = bind_stack_[range.end - remaining];
    for (uint32_t k = 0; k < (list ? list->size() : n_rows); ++k) {
      const uint32_t row = list ? (*list)[k] : k;
      const uint32_t ordinal = p.store->ordinals[row];
      if (ordinal == excluded_) continue;
      if (mask_ != nullptr && !mask_->alive(ordinal)) continue;
      ++candidate_pairs_;
      newly_bound.clear();
      if (TryUnify(p, row, &newly_bound)) {
        if (Search(b, remaining - 1)) return true;
        if (budget_exceeded_) {
          Rollback(newly_bound);
          break;
        }
      }
      ++backtracks_;
      Rollback(newly_bound);
    }
    matched_[best_idx] = false;
    return false;
  }

  // Attempts to extend the binding so that source row `p` maps onto target
  // row `row` of its relation. On success the slots newly bound are
  // appended to `newly_bound`; on failure any partial additions are
  // recorded there too (caller rolls back either way).
  bool TryUnify(const PreparedFact& p, uint32_t row,
                std::vector<uint32_t>* newly_bound) {
    for (std::size_t pos = 0; pos < p.arity; ++pos) {
      const uint32_t gv = p.store->cols[pos][row];
      if (!is_null_[p.begin + pos]) {
        if (terms_[p.begin + pos] != gv) return false;
        continue;
      }
      const uint32_t slot = terms_[p.begin + pos];
      const uint32_t bound = binding_[slot];
      if (bound != Value::kInvalidPackedId) {
        if (bound != gv) return false;
      } else {
        if (options_.nulls_to_nulls && (gv & 1u) == 0) return false;
        if (options_.injective && !used_targets_.insert(gv).second) {
          return false;
        }
        binding_[slot] = gv;
        newly_bound->push_back(slot);
      }
    }
    return true;
  }

  void Rollback(const std::vector<uint32_t>& newly_bound) {
    for (uint32_t slot : newly_bound) {
      if (options_.injective) used_targets_.erase(binding_[slot]);
      binding_[slot] = Value::kInvalidPackedId;
    }
  }

  const FactIndex& index_;
  const FactMask* mask_;
  uint32_t excluded_;
  HomomorphismOptions options_;
  BlockDecomposition parts_;
  // Prepared facts, each block's contiguous in source order; blocks_ holds
  // their ranges in search order.
  std::vector<PreparedFact> prepared_;
  std::vector<BlockRange> blocks_;
  std::vector<uint32_t> terms_;    // shared arena, see PreparedFact
  std::vector<uint8_t> is_null_;   // shared arena, see PreparedFact
  // Per-depth undo lists, reused across candidates so the hot loop never
  // allocates. Indexed by the position of the fact being matched,
  // blocks_[b].end - remaining, which is unique along a search path.
  std::vector<std::vector<uint32_t>> bind_stack_;
  std::vector<Value> slot_values_;  // slot -> the source null it stands for
  std::vector<bool> matched_;
  std::vector<uint32_t> binding_;  // slot -> target packed id, or invalid
  std::unordered_set<uint32_t> used_targets_;  // injective mode
  uint64_t steps_ = 0;
  uint64_t candidate_pairs_ = 0;
  uint64_t backtracks_ = 0;
  bool budget_exceeded_ = false;

 public:
  uint64_t steps() const { return steps_; }
  uint64_t candidate_pairs() const { return candidate_pairs_; }
  uint64_t backtracks() const { return backtracks_; }
};

}  // namespace

namespace {

// One-pass domain filter: for every null of `from`, intersect its
// candidate values over all (fact, position) occurrences against the
// target index. Returns false if some null's domain is empty (no
// homomorphism can exist). Ground facts are checked for membership
// directly. Conservative: never rejects a satisfiable input. Domains are
// sets of packed value ids, so the inner loops are uint32 column scans.
bool DomainFilterPasses(const Instance& from, const Instance& to,
                        const ValueMap& seed) {
  FactIndex index(to);
  std::unordered_map<uint32_t, std::unordered_set<uint32_t>> domains;
  for (const Fact& f : from.facts()) {
    if (f.IsGround()) {
      if (!to.Contains(f)) return false;
      continue;
    }
    const FactIndex::RelStore* store = index.StoreOf(f.relation());
    if (store == nullptr) return false;
    for (std::size_t i = 0; i < f.args().size(); ++i) {
      const Value& v = f.args()[i];
      if (!v.IsNull()) {
        // Constant position: some target fact must carry it here.
        if (store->RowsWith(i, v.PackedId()) == nullptr) return false;
        continue;
      }
      std::unordered_set<uint32_t> here;
      for (uint32_t gv : store->cols[i]) {
        here.insert(gv);
      }
      auto it = domains.find(v.PackedId());
      if (it == domains.end()) {
        domains.emplace(v.PackedId(), std::move(here));
      } else {
        // Intersect in place.
        for (auto dit = it->second.begin(); dit != it->second.end();) {
          if (here.count(*dit) == 0) {
            dit = it->second.erase(dit);
          } else {
            ++dit;
          }
        }
        if (it->second.empty()) return false;
      }
    }
  }
  // Seed bindings must lie within the computed domains.
  for (const auto& [k, v] : seed) {
    auto it = domains.find(k.PackedId());
    if (it != domains.end() && it->second.count(v.PackedId()) == 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

namespace {

// Seed sanity: a seed may not rebind a constant to something else.
Status CheckSeed(const ValueMap& seed) {
  for (const auto& [k, v] : seed) {
    if (k.IsConstant() && !(k == v)) {
      return Status::InvalidArgument(
          StrCat("seed maps constant ", k.ToString(), " to ", v.ToString()));
    }
  }
  return Status::OK();
}

// Shared tail of every public search entry point: probe the ground facts
// of `parts` against `probe_target` (a missing one refutes without
// search), run the block search against `index` (optionally masked) and
// publish one batch of stats. Only a decomposition with no ground facts
// may come without a probe target.
Result<std::optional<ValueMap>> RunSearch(
    BlockDecomposition parts, const Instance* probe_target,
    const FactIndex& index, const FactMask* mask, uint32_t excluded,
    const ValueMap& seed, const HomomorphismOptions& options,
    HomomorphismStats run, const obs::ScopedTimer& timer) {
  uint64_t from_facts = parts.ground.size();
  for (const std::vector<const Fact*>& block : parts.blocks) {
    from_facts += block.size();
  }
  obs::Span span("hom");
  run.blocks = parts.blocks.size();
  const bool ground_maps =
      std::all_of(parts.ground.begin(), parts.ground.end(),
                  [&](const Fact* f) { return probe_target->Contains(*f); });
  Result<std::optional<ValueMap>> result = std::optional<ValueMap>();
  if (ground_maps) {
    HomSearch search(std::move(parts), index, options, mask, excluded);
    result = search.Run(seed);
    run.steps = search.steps();
    run.candidate_pairs = search.candidate_pairs();
    run.backtracks = search.backtracks();
  }
  run.found = (result.ok() && result->has_value()) ? 1 : 0;
  run.micros = timer.ElapsedMicros();
  span.Arg("from_facts", from_facts)
      .Arg("steps", run.steps)
      .Arg("found", run.found);
  PublishHomStats(run, options.stats, from_facts);
  return result;
}

}  // namespace

Result<std::optional<ValueMap>> FindHomomorphism(
    const Instance& from, const Instance& to, const ValueMap& seed,
    const HomomorphismOptions& options) {
  FactIndex index(to);
  return FindHomomorphism(from, to, index, seed, options);
}

Result<std::optional<ValueMap>> FindHomomorphism(
    const Instance& from, const Instance& to, const FactIndex& to_index,
    const ValueMap& seed, const HomomorphismOptions& options) {
  RDX_RETURN_IF_ERROR(CheckSeed(seed));
  HomomorphismStats run;
  obs::ScopedTimer timer;
  if (options.use_domain_filter && !DomainFilterPasses(from, to, seed)) {
    run.domain_filter_prunes = 1;
    run.micros = timer.ElapsedMicros();
    PublishHomStats(run, options.stats, from.size());
    return std::optional<ValueMap>();
  }
  return RunSearch(DecomposeIntoBlocks(from), &to, to_index, /*mask=*/nullptr,
                   /*excluded=*/kNoFactOrdinal, seed, options, run, timer);
}

Result<std::optional<ValueMap>> FindHomomorphismMasked(
    const std::vector<const Fact*>& from_facts, const FactIndex& to_index,
    const FactMask* mask, uint32_t excluded,
    const HomomorphismOptions& options) {
  obs::ScopedTimer timer;
  // The core engine passes one null-block (its residue), searched as one
  // block: ground facts included, no probes, no reordering.
  BlockDecomposition parts;
  if (!from_facts.empty()) parts.blocks.push_back(from_facts);
  return RunSearch(std::move(parts), /*probe_target=*/nullptr, to_index, mask,
                   excluded, /*seed=*/{}, options, HomomorphismStats(), timer);
}

Result<bool> HasHomomorphism(const Instance& from, const Instance& to,
                             const HomomorphismOptions& options) {
  RDX_ASSIGN_OR_RETURN(std::optional<ValueMap> h,
                       FindHomomorphism(from, to, {}, options));
  return h.has_value();
}

Result<bool> AreHomEquivalent(const Instance& a, const Instance& b,
                              const HomomorphismOptions& options) {
  RDX_ASSIGN_OR_RETURN(bool ab, HasHomomorphism(a, b, options));
  if (!ab) return false;
  return HasHomomorphism(b, a, options);
}

Result<bool> AreIsomorphic(const Instance& a, const Instance& b,
                           const HomomorphismOptions& options) {
  if (a.size() != b.size()) return false;
  if (a.ActiveDomain().size() != b.ActiveDomain().size()) return false;
  HomomorphismOptions iso_options = options;
  iso_options.injective = true;
  iso_options.nulls_to_nulls = true;
  // An injective null-to-null homomorphism between equal-sized instances
  // maps facts injectively, so its image is all of b; the inverse fixes
  // constants (nulls map to nulls) and maps b's facts back into a — an
  // isomorphism.
  RDX_ASSIGN_OR_RETURN(std::optional<ValueMap> h,
                       FindHomomorphism(a, b, {}, iso_options));
  return h.has_value();
}

}  // namespace rdx
