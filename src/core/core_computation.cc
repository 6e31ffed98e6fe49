#include "core/core_computation.h"

#include <algorithm>
#include <cstddef>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "base/attribution.h"
#include "base/metrics.h"
#include "base/parallel_for.h"
#include "base/spans.h"
#include "base/strings.h"
#include "base/trace.h"
#include "core/blocks.h"
#include "core/fact_index.h"

namespace rdx {
namespace {

// Adds an attempt-local HomomorphismStats into the caller's accumulator
// (the accumulator pointer is not thread-safe; raced attempts record
// locally and only the ones the sequential scan would have made are
// merged, so accumulated totals stay deterministic).
void MergeHomStats(const HomomorphismStats& run,
                   HomomorphismStats* accumulator) {
  if (accumulator == nullptr) return;
  accumulator->searches += run.searches;
  accumulator->steps += run.steps;
  accumulator->candidate_pairs += run.candidate_pairs;
  accumulator->backtracks += run.backtracks;
  accumulator->domain_filter_prunes += run.domain_filter_prunes;
  accumulator->found += run.found;
  accumulator->blocks += run.blocks;
  accumulator->micros += run.micros;
}

// ---------------------------------------------------------------------------
// Legacy whole-instance engine (CoreOptions::use_blocks = false).
// ---------------------------------------------------------------------------

// Searches for an endomorphism of `instance` whose image misses at least one
// fact. Returns the (strictly smaller) image if found. Counts every
// candidate fact tried into `run`.
//
// With options.num_threads > 1 the independent retraction attempts race in
// chunks of num_threads; the winner is the lowest candidate index whose
// removal admits a homomorphism — exactly the fold the sequential scan
// performs, so the fold sequence (and thus the core) is identical for
// every thread count. Losing attempts past the winner are speculative:
// their stats are dropped from the accumulator, though the process-wide
// hom.* counters do see them.
Result<std::optional<Instance>> FindShrinkingImage(
    const Instance& instance, const HomomorphismOptions& options,
    CoreStats* run) {
  // Ground facts map to themselves under every homomorphism, so they can
  // never be dropped.
  std::vector<const Fact*> candidates;
  for (const Fact& f : instance.facts()) {
    if (!f.IsGround()) candidates.push_back(&f);
  }

  if (options.num_threads <= 1 || candidates.size() <= 1) {
    for (const Fact* f : candidates) {
      ++run->retraction_attempts;
      Instance target = instance;
      target.RemoveFact(*f);
      RDX_ASSIGN_OR_RETURN(std::optional<ValueMap> h,
                           FindHomomorphism(instance, target, {}, options));
      if (h.has_value()) {
        // h maps into a proper subinstance, so its image is strictly
        // smaller and homomorphically equivalent (image ⊆ instance →
        // image).
        ++run->successful_folds;
        return std::optional<Instance>(instance.Apply(*h));
      }
    }
    return std::optional<Instance>();
  }

  struct Attempt {
    std::optional<ValueMap> h;
    HomomorphismStats hom_run;
    Status status = Status::OK();
  };
  const std::size_t chunk = options.num_threads;
  for (std::size_t base = 0; base < candidates.size(); base += chunk) {
    const std::size_t count = std::min(chunk, candidates.size() - base);
    std::vector<Attempt> attempts(count);
    par::ParallelFor(options.num_threads, count, [&](std::size_t k) {
      Attempt& attempt = attempts[k];
      HomomorphismOptions task_options = options;
      task_options.num_threads = 1;
      task_options.stats = &attempt.hom_run;
      Instance target = instance;
      target.RemoveFact(*candidates[base + k]);
      Result<std::optional<ValueMap>> h =
          FindHomomorphism(instance, target, {}, task_options);
      if (h.ok()) {
        attempt.h = *std::move(h);
      } else {
        attempt.status = h.status();
      }
    });
    for (std::size_t k = 0; k < count; ++k) {
      ++run->retraction_attempts;
      MergeHomStats(attempts[k].hom_run, options.stats);
      RDX_RETURN_IF_ERROR(attempts[k].status);
      if (attempts[k].h.has_value()) {
        ++run->successful_folds;
        return std::optional<Instance>(instance.Apply(*attempts[k].h));
      }
    }
  }
  return std::optional<Instance>();
}

// ---------------------------------------------------------------------------
// Block-decomposed engine (CoreOptions::use_blocks = true, the default).
//
// The instance splits into ground facts plus null-blocks (core/blocks.h).
// A retraction dropping fact f exists iff f's own block maps into the
// alive instance minus f — every other block can stay put under the
// identity — so each attempt searches from one small block instead of the
// whole instance, against the shared FactIndex with dead facts masked out
// (no per-attempt copy or index rebuild).
//
// The engine runs in rounds. Each round: (1) discovery — every active
// block independently scans its candidates in order against the
// round-start alive set and reports the first droppable fact with its
// witness homomorphism (blocks are rdx::par units; the scan within a
// block races in chunks like the legacy engine); (2) application — the
// proposals are applied sequentially in ascending block order, each
// validated against the current alive set (an earlier application this
// round may have killed a fact the witness maps onto; such a proposal is
// dropped and the block retries next round). The first applied proposal
// is always valid, so every round with a proposal strictly shrinks the
// instance and the loop terminates.
//
// Memoization: a failed attempt (block, f) stays failed while the block's
// residue is unchanged — homomorphism existence is monotone in the target
// and the alive set only ever shrinks, so re-searching cannot succeed.
// Failed facts are recorded per block and the set is cleared when that
// block folds (the only event that changes its residue), so the final
// no-progress round costs one memo lookup per candidate instead of one
// search. Only failures the sequential scan would have made are memoized
// (not speculative race losers), keeping every stat identical across
// thread counts.
// ---------------------------------------------------------------------------

struct BlockState {
  std::vector<const Fact*> residue;  // facts of this block still alive
  std::vector<uint32_t> residue_ordinals;  // parallel: index ordinals
  std::unordered_set<uint32_t> failed;  // memoized failed drops (ordinals)
  // Per-run trace numbers. `attempts`, `memo_hits`, `folds`, and
  // `hom_searches` count only work the sequential scan would have made,
  // so they are identical for every thread count; `micros` (discovery
  // wall time on behalf of this block) is measured only when tracing or
  // attribution is enabled and stays 0 otherwise.
  uint64_t initial_size = 0;
  uint64_t attempts = 0;
  uint64_t memo_hits = 0;
  uint64_t folds = 0;
  uint64_t hom_searches = 0;
  uint64_t micros = 0;
};

struct FoldProposal {
  const Fact* drop = nullptr;
  ValueMap h;  // witness: block residue → alive \ {drop}
};

// One block's discovery result for one round.
struct BlockRound {
  std::optional<FoldProposal> proposal;
  std::vector<uint32_t> new_failures;  // ordinals failed before the winner
  HomomorphismStats hom_run;
  uint64_t attempts = 0;
  uint64_t memo_hits = 0;
  uint64_t micros = 0;  // discovery wall time (only when attributed)
  Status status = Status::OK();
};

// Scans `block`'s candidates in residue order for a droppable fact.
// Reads only round-start state (block + mask are not mutated), so
// discoveries for distinct blocks can run concurrently.
BlockRound DiscoverFold(const BlockState& block, const FactIndex& index,
                        const FactMask& mask, const CoreOptions& options) {
  BlockRound round;
  std::optional<obs::ScopedTimer> timer;
  if (obs::AttributionEnabled() || obs::TracingEnabled()) {
    // NRVO constructs `round` in the return slot; the timer is destroyed
    // first (reverse declaration order), so every return path gets timed.
    timer.emplace(nullptr, &round.micros);
  }
  std::vector<const Fact*> candidates;
  std::vector<uint32_t> candidate_ordinals;
  candidates.reserve(block.residue.size());
  candidate_ordinals.reserve(block.residue.size());
  for (std::size_t i = 0; i < block.residue.size(); ++i) {
    const uint32_t ordinal = block.residue_ordinals[i];
    if (options.memoize && block.failed.count(ordinal) > 0) {
      ++round.memo_hits;
      continue;
    }
    candidates.push_back(block.residue[i]);
    candidate_ordinals.push_back(ordinal);
  }

  HomomorphismOptions hom = options.hom;
  if (hom.num_threads <= 1 || candidates.size() <= 1) {
    hom.stats = &round.hom_run;
    for (std::size_t k = 0; k < candidates.size(); ++k) {
      ++round.attempts;
      Result<std::optional<ValueMap>> h = FindHomomorphismMasked(
          block.residue, index, &mask, candidate_ordinals[k], hom);
      if (!h.ok()) {
        round.status = h.status();
        return round;
      }
      if (h->has_value()) {
        round.proposal = FoldProposal{candidates[k], *std::move(*h)};
        return round;
      }
      round.new_failures.push_back(candidate_ordinals[k]);
    }
    return round;
  }

  // Race the candidate scan in chunks of num_threads, lowest index wins;
  // stats of speculative losers past the winner are dropped (only the
  // process-wide hom.* counters see them), and their failures are not
  // memoized.
  struct Attempt {
    std::optional<ValueMap> h;
    HomomorphismStats hom_run;
    Status status = Status::OK();
  };
  const std::size_t chunk = hom.num_threads;
  for (std::size_t base = 0; base < candidates.size(); base += chunk) {
    const std::size_t count = std::min(chunk, candidates.size() - base);
    std::vector<Attempt> attempts(count);
    par::ParallelFor(hom.num_threads, count, [&](std::size_t k) {
      Attempt& attempt = attempts[k];
      HomomorphismOptions task_options = options.hom;
      task_options.num_threads = 1;
      task_options.stats = &attempt.hom_run;
      Result<std::optional<ValueMap>> h = FindHomomorphismMasked(
          block.residue, index, &mask, candidate_ordinals[base + k],
          task_options);
      if (h.ok()) {
        attempt.h = *std::move(h);
      } else {
        attempt.status = h.status();
      }
    });
    for (std::size_t k = 0; k < count; ++k) {
      ++round.attempts;
      MergeHomStats(attempts[k].hom_run, &round.hom_run);
      if (!attempts[k].status.ok()) {
        round.status = attempts[k].status;
        return round;
      }
      if (attempts[k].h.has_value()) {
        round.proposal = FoldProposal{candidates[base + k],
                                      *std::move(attempts[k].h)};
        return round;
      }
      round.new_failures.push_back(candidate_ordinals[base + k]);
    }
  }
  return round;
}

// The image fact h(f): every argument mapped through h (identity where h
// is not defined), same relation.
Fact ApplyToFact(const Fact& f, const ValueMap& h) {
  std::vector<Value> args;
  args.reserve(f.args().size());
  for (const Value& v : f.args()) {
    auto it = h.find(v);
    args.push_back(it == h.end() ? v : it->second);
  }
  return Fact::MustMake(f.relation(), std::move(args));
}

class BlockedCoreEngine {
 public:
  // `decomp` must be the decomposition of `instance` (moved in so the
  // callers' ground fast path can decompose without paying for the index
  // and pointer map built here).
  BlockedCoreEngine(const Instance& instance, BlockDecomposition decomp,
                    const CoreOptions& options, CoreStats* run)
      : instance_(instance), options_(options), run_(run), index_(instance) {
    run_->blocks = decomp.blocks.size();
    // Ordinal of a fact = its position in the instance's insertion order,
    // which is exactly the order FactIndex assigned (it indexed the same
    // deque). The pointer map translates the decomposition's block
    // members; the value map resolves fold images in ApplyProposal.
    std::unordered_map<const Fact*, uint32_t> ordinal_of;
    ordinal_of.reserve(instance.size());
    fact_ordinals_.reserve(instance.size());
    uint32_t ordinal = 0;
    for (const Fact& f : instance.facts()) {
      ordinal_of.emplace(&f, ordinal);
      fact_ordinals_.emplace(f, ordinal);
      ++ordinal;
    }
    blocks_.resize(decomp.blocks.size());
    for (std::size_t b = 0; b < decomp.blocks.size(); ++b) {
      blocks_[b].residue = std::move(decomp.blocks[b]);
      blocks_[b].initial_size = blocks_[b].residue.size();
      blocks_[b].residue_ordinals.reserve(blocks_[b].residue.size());
      for (const Fact* f : blocks_[b].residue) {
        blocks_[b].residue_ordinals.push_back(ordinal_of.at(f));
      }
    }
  }

  // One round: parallel discovery over the blocks with facts left, then
  // ordered validated application. Returns whether any proposal was
  // applied; a round applying nothing is the fixpoint (every candidate of
  // every block is now a memoized failure).
  Result<bool> RunRound() {
    ++run_->iterations;
    std::vector<std::size_t> active;
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      if (!blocks_[b].residue.empty()) active.push_back(b);
    }
    if (active.empty()) return false;

    obs::Span round_span("core.round");
    round_span.Arg("round", run_->iterations).Arg("active_blocks",
                                                  active.size());
    std::vector<BlockRound> rounds = par::ParallelMap<BlockRound>(
        options_.hom.num_threads, active.size(), [&](std::size_t k) {
          // Pool-executed: the span adopts the scheduling span (the
          // core.round above) as its parent via rdx::par.
          obs::Span block_span("core.block");
          block_span.Arg("block", active[k]);
          BlockRound r = DiscoverFold(blocks_[active[k]], index_, mask_,
                                      options_);
          block_span.Arg("attempts", r.attempts)
              .Arg("found", r.proposal.has_value() ? 1 : 0);
          return r;
        });

    // Merge stats and memoized failures in block order (deterministic for
    // every thread count), then apply the surviving proposals.
    bool applied_any = false;
    for (std::size_t k = 0; k < active.size(); ++k) {
      BlockState& block = blocks_[active[k]];
      BlockRound& round = rounds[k];
      block.attempts += round.attempts;
      block.memo_hits += round.memo_hits;
      block.hom_searches += round.hom_run.searches;
      block.micros += round.micros;
      run_->retraction_attempts += round.attempts;
      run_->masked_attempts += round.attempts;
      run_->memo_hits += round.memo_hits;
      MergeHomStats(round.hom_run, options_.hom.stats);
      RDX_RETURN_IF_ERROR(round.status);
      for (uint32_t ordinal : round.new_failures) block.failed.insert(ordinal);
      if (round.proposal.has_value() &&
          ApplyProposal(block, *round.proposal)) {
        applied_any = true;
      }
    }
    round_span.Arg("applied", applied_any ? 1 : 0);
    return applied_any;
  }

  // Surviving facts, in instance insertion order.
  Instance Materialize() const {
    std::vector<const Fact*> alive;
    uint32_t ordinal = 0;
    for (const Fact& f : instance_.facts()) {
      if (mask_.alive(ordinal)) alive.push_back(&f);
      ++ordinal;
    }
    return Instance::FromFactPointers(alive);
  }

  uint64_t alive_size() const { return instance_.size() - mask_.dead_count(); }

  const std::vector<BlockState>& blocks() const { return blocks_; }

 private:
  // Validates the witness against the current alive set and, if still
  // valid, kills the residue facts outside its image. Returns whether the
  // fold was applied.
  bool ApplyProposal(BlockState& block, const FoldProposal& proposal) {
    std::unordered_set<uint32_t> image;
    image.reserve(block.residue.size());
    for (const Fact* f : block.residue) {
      auto it = fact_ordinals_.find(ApplyToFact(*f, proposal.h));
      if (it == fact_ordinals_.end() || !mask_.alive(it->second)) {
        // An application earlier this round killed a fact the witness
        // maps onto; drop the proposal, the block retries next round.
        return false;
      }
      image.insert(it->second);
    }
    std::vector<const Fact*> survivors;
    std::vector<uint32_t> survivor_ordinals;
    survivors.reserve(block.residue.size());
    survivor_ordinals.reserve(block.residue.size());
    for (std::size_t i = 0; i < block.residue.size(); ++i) {
      const uint32_t ordinal = block.residue_ordinals[i];
      if (image.count(ordinal) > 0) {
        survivors.push_back(block.residue[i]);
        survivor_ordinals.push_back(ordinal);
      } else {
        mask_.Kill(ordinal);
      }
    }
    block.residue = std::move(survivors);
    block.residue_ordinals = std::move(survivor_ordinals);
    block.failed.clear();
    ++block.folds;
    ++run_->successful_folds;
    return true;
  }

  const Instance& instance_;
  const CoreOptions& options_;
  CoreStats* run_;
  FactIndex index_;
  FactMask mask_;
  std::vector<BlockState> blocks_;
  std::unordered_map<Fact, uint32_t, FactHash> fact_ordinals_;
};

// Batched publish of one run's totals to the "core.*" counters, the
// caller's accumulator (if any), and the trace sink.
void PublishCoreStats(const CoreStats& run, CoreStats* accumulator,
                      uint64_t initial_facts, uint64_t final_facts,
                      const std::vector<BlockState>* blocks) {
  static obs::Counter& runs = obs::Counter::Get("core.runs");
  static obs::Counter& iterations = obs::Counter::Get("core.iterations");
  static obs::Counter& attempts =
      obs::Counter::Get("core.retraction_attempts");
  static obs::Counter& folds = obs::Counter::Get("core.successful_folds");
  static obs::Counter& block_count = obs::Counter::Get("core.blocks");
  static obs::Counter& masked = obs::Counter::Get("core.masked_attempts");
  static obs::Counter& memo = obs::Counter::Get("core.memo_hits");
  static obs::Counter& us = obs::Counter::Get("core.us");
  runs.Increment();
  iterations.Add(run.iterations);
  attempts.Add(run.retraction_attempts);
  folds.Add(run.successful_folds);
  block_count.Add(run.blocks);
  masked.Add(run.masked_attempts);
  memo.Add(run.memo_hits);
  us.Add(run.micros);
  if (accumulator != nullptr) {
    accumulator->iterations += run.iterations;
    accumulator->retraction_attempts += run.retraction_attempts;
    accumulator->successful_folds += run.successful_folds;
    accumulator->blocks += run.blocks;
    accumulator->masked_attempts += run.masked_attempts;
    accumulator->memo_hits += run.memo_hits;
    accumulator->micros += run.micros;
  }
  if (blocks != nullptr && obs::AttributionEnabled()) {
    for (std::size_t b = 0; b < blocks->size(); ++b) {
      const BlockState& block = (*blocks)[b];
      obs::Attribution& row =
          obs::Attribution::Get("core.block", StrCat("block ", b));
      row.AddTimeMicros(block.micros);
      row.AddFired(block.folds);
      row.AddFacts(block.initial_size - block.residue.size());
      row.AddHomAttempts(block.hom_searches);
    }
  }
  if (obs::TracingEnabled()) {
    if (blocks != nullptr) {
      for (std::size_t b = 0; b < blocks->size(); ++b) {
        const BlockState& block = (*blocks)[b];
        obs::EmitTrace(obs::TraceEvent("core.block")
                           .Add("block", b)
                           .Add("facts", block.initial_size)
                           .Add("core_facts", block.residue.size())
                           .Add("fingerprint", BlockFingerprint(block.residue))
                           .Add("attempts", block.attempts)
                           .Add("folds", block.folds)
                           .Add("memo_hits", block.memo_hits)
                           .Add("hom_searches", block.hom_searches)
                           .Add("us", block.micros));
      }
    }
    obs::EmitTrace(obs::TraceEvent("core.done")
                       .Add("initial_facts", initial_facts)
                       .Add("core_facts", final_facts)
                       .Add("iterations", run.iterations)
                       .Add("attempts", run.retraction_attempts)
                       .Add("folds", run.successful_folds)
                       .Add("blocks", run.blocks)
                       .Add("masked_attempts", run.masked_attempts)
                       .Add("memo_hits", run.memo_hits)
                       .Add("us", run.micros));
  }
}

}  // namespace

Result<Instance> ComputeCore(const Instance& instance,
                             const CoreOptions& options, CoreStats* stats) {
  CoreStats run;
  obs::Span run_span("core");
  run_span.Arg("facts", instance.size());
  obs::ScopedTimer timer;
  if (!options.use_blocks) {
    Instance current = instance;
    while (true) {
      ++run.iterations;
      RDX_ASSIGN_OR_RETURN(std::optional<Instance> smaller,
                           FindShrinkingImage(current, options.hom, &run));
      if (!smaller.has_value()) {
        run.micros = timer.ElapsedMicros();
        PublishCoreStats(run, stats, instance.size(), current.size(),
                         /*blocks=*/nullptr);
        return current;
      }
      current = *std::move(smaller);
    }
  }

  BlockDecomposition decomp = DecomposeIntoBlocks(instance);
  if (decomp.blocks.empty()) {
    // Every fact is ground, hence fixed by every endomorphism: the
    // instance is its own core. Skips the index and pointer-map builds.
    run.iterations = 1;
    run.micros = timer.ElapsedMicros();
    PublishCoreStats(run, stats, instance.size(), instance.size(),
                     /*blocks=*/nullptr);
    return instance;
  }
  BlockedCoreEngine engine(instance, std::move(decomp), options, &run);
  while (true) {
    RDX_ASSIGN_OR_RETURN(bool applied, engine.RunRound());
    if (!applied) break;
  }
  Instance core = engine.Materialize();
  run.micros = timer.ElapsedMicros();
  PublishCoreStats(run, stats, instance.size(), core.size(),
                   &engine.blocks());
  run_span.Arg("core_facts", core.size()).Arg("folds", run.successful_folds);
  return core;
}

Result<Instance> ComputeCore(const Instance& instance,
                             const HomomorphismOptions& options,
                             CoreStats* stats) {
  CoreOptions core_options;
  core_options.hom = options;
  return ComputeCore(instance, core_options, stats);
}

Result<bool> IsCore(const Instance& instance, const CoreOptions& options,
                    CoreStats* stats) {
  CoreStats run;
  obs::Span run_span("core.is_core");
  run_span.Arg("facts", instance.size());
  obs::ScopedTimer timer;
  if (!options.use_blocks) {
    ++run.iterations;
    RDX_ASSIGN_OR_RETURN(std::optional<Instance> smaller,
                         FindShrinkingImage(instance, options.hom, &run));
    run.micros = timer.ElapsedMicros();
    PublishCoreStats(run, stats, instance.size(),
                     smaller.has_value() ? smaller->size() : instance.size(),
                     /*blocks=*/nullptr);
    return !smaller.has_value();
  }

  // One discovery round decides: the instance is a core iff no block has a
  // droppable fact.
  BlockDecomposition decomp = DecomposeIntoBlocks(instance);
  if (decomp.blocks.empty()) {
    run.iterations = 1;
    run.micros = timer.ElapsedMicros();
    PublishCoreStats(run, stats, instance.size(), instance.size(),
                     /*blocks=*/nullptr);
    return true;
  }
  BlockedCoreEngine engine(instance, std::move(decomp), options, &run);
  RDX_ASSIGN_OR_RETURN(bool shrank, engine.RunRound());
  run.micros = timer.ElapsedMicros();
  PublishCoreStats(run, stats, instance.size(), engine.alive_size(),
                   &engine.blocks());
  return !shrank;
}

Result<bool> IsCore(const Instance& instance,
                    const HomomorphismOptions& options, CoreStats* stats) {
  CoreOptions core_options;
  core_options.hom = options;
  return IsCore(instance, core_options, stats);
}

}  // namespace rdx
