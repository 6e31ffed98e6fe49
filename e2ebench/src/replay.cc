// The untraced operation (Execute) and its traced replay (Replay). The
// replay calls each layer's public function in the order
// serve::ExecuteRequest does (src/serve/server.cc), so its payload must
// equal the real reply byte for byte; main.cc asserts that on every op.
#include <algorithm>
#include <fstream>
#include <memory>

#include "base/metrics.h"
#include "base/strings.h"
#include "columnar/serialize.h"
#include "compile/laconic.h"
#include "core/core_computation.h"
#include "core/homomorphism.h"
#include "core/query.h"
#include "e2e.h"
#include "mapping/extended.h"

namespace e2e {

using rdx::Result;
using rdx::Status;
using rdx::StrCat;
namespace serve = rdx::serve;

namespace {

// The engine counters whose deltas the tracer records.
const std::vector<std::string>& TracedCounters() {
  static const std::vector<std::string> names = {
      "chase.triggers_fired",   "chase.triggers_enumerated",
      "chase.rounds",           "match.steps",
      "match.candidates",       "core.retraction_attempts",
      "core.successful_folds",  "core.blocks",
      "hom.searches",           "hom.steps",
      "hom.backtracks",         "dchase.steps",
      "dchase.branches_expanded", "dchase.branches_deduped",
  };
  return names;
}

const std::vector<rdx::obs::Counter*>& CounterRefs() {
  static const std::vector<rdx::obs::Counter*> refs = [] {
    std::vector<rdx::obs::Counter*> out;
    for (const std::string& name : TracedCounters()) {
      out.push_back(&rdx::obs::Counter::Get(name));
    }
    return out;
  }();
  return refs;
}

Result<const serve::CompiledPlan*> DecisionPlan(serve::PlanCache& plans) {
  return plans.Get(kDecisionPlan);
}

}  // namespace

Result<std::string> Execute(serve::PlanCache& plans, const Op& op) {
  if (op.is_request) {
    serve::ServerOptions options;
    options.admit_budget = kAdmitBudget;
    serve::Reply reply =
        serve::ExecuteRequest(plans, op.request, options, Clock::now());
    if (reply.status != serve::ReplyStatus::kOk) {
      return Status::Internal(StrCat(serve::ReplyStatusName(reply.status),
                                     ": ", reply.payload));
    }
    return std::move(reply.payload);
  }
  RDX_ASSIGN_OR_RETURN(const serve::CompiledPlan* plan, DecisionPlan(plans));
  Result<bool> verdict =
      op.decision == Decision::kExtendedUniversal
          ? rdx::IsExtendedUniversalSolution(plan->mapping, op.left, op.right)
          : rdx::ArrowM(plan->mapping, op.left, op.right);
  if (!verdict.ok()) return verdict.status();
  return std::string(*verdict ? "true" : "false");
}

int Tracer::BeginOp(const std::string& kind) {
  const int root = Begin(-1, kind);
  spans_[root].op = next_op_++;
  return root;
}

void Tracer::EndOp(int root) {
  spans_[root].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
}

int Tracer::Begin(int parent, const std::string& name) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.op = parent >= 0 ? spans_[parent].op : next_op_;
  if (parent >= 0) {
    for (rdx::obs::Counter* c : CounterRefs()) {
      open_counters_.push_back(c->value());
    }
  }
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int span, const char* layer) {
  spans_[span].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - epoch_)
                            .count();
  const std::vector<rdx::obs::Counter*>& refs = CounterRefs();
  const std::size_t base = open_counters_.size() - refs.size();
  std::map<std::string, uint64_t>& sink = deltas_[layer];
  for (std::size_t i = 0; i < refs.size(); ++i) {
    sink[TracedCounters()[i]] += refs[i]->value() - open_counters_[base + i];
  }
  open_counters_.resize(base);
}

std::map<std::string, double> Tracer::SelfMillis(int root) const {
  std::map<std::string, double> self;
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (std::size_t i = static_cast<std::size_t>(root) + 1; i < spans_.size();
       ++i) {
    const Span& s = spans_[i];
    if (s.op != spans_[root].op) break;
    const double ms = static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += ms;
  }
  for (std::size_t i = static_cast<std::size_t>(root) + 1; i < spans_.size();
       ++i) {
    const Span& s = spans_[i];
    if (s.op != spans_[root].op) break;
    self[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns) / 1e6 - child_ms[i];
  }
  return self;
}

uint64_t Tracer::CounterDelta(const std::string& layer,
                              const std::string& counter) const {
  auto it = deltas_.find(layer);
  if (it == deltas_.end()) return 0;
  auto jt = it->second.find(counter);
  return jt == it->second.end() ? 0 : jt->second;
}

Status Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"op\":" << s.op
        << ",\"parent\":" << s.parent << ",\"start_us\":" << s.start_ns / 1000
        << ",\"end_us\":" << s.end_ns / 1000 << "}\n";
  }
  if (!out) return Status::Internal(StrCat("cannot write ", path));
  return Status::OK();
}

namespace {

// Large intermediates are moved into `keep`, so that freeing them is
// timed in Replay's "release" span instead of escaping every span.
using Keep = std::vector<std::shared_ptr<void>>;

template <typename T>
T& Hold(Keep& keep, T value) {
  auto held = std::make_shared<T>(std::move(value));
  keep.push_back(held);
  return *held;
}

Result<std::string> ReplayLayers(serve::PlanCache& plans, const Op& op,
                                 Tracer& t, int root, Keep& keep,
                                 Keep& input) {
  rdx::ChaseOptions chase_options;
  if (!op.is_request) {
    RDX_ASSIGN_OR_RETURN(
        const serve::CompiledPlan* plan,
        t.Layer(root, "serve.lookup", [&] { return DecisionPlan(plans); }));
    const rdx::SchemaMapping& m = plan->mapping;
    if (op.decision == Decision::kExtendedUniversal) {
      RDX_ASSIGN_OR_RETURN(rdx::Instance chased_v, t.Layer(root, "chase", [&] {
        return rdx::ChaseMapping(m, op.left, chase_options);
      }));
      rdx::Instance& chased = Hold(keep, std::move(chased_v));
      RDX_ASSIGN_OR_RETURN(bool verdict, t.Layer(root, "hom", [&] {
        return rdx::AreHomEquivalent(chased, op.right);
      }));
      return std::string(verdict ? "true" : "false");
    }
    RDX_ASSIGN_OR_RETURN(rdx::Instance c1_v, t.Layer(root, "chase", [&] {
      return rdx::ChaseMapping(m, op.left, chase_options);
    }));
    rdx::Instance& c1 = Hold(keep, std::move(c1_v));
    RDX_ASSIGN_OR_RETURN(rdx::Instance c2_v, t.Layer(root, "chase", [&] {
      return rdx::ChaseMapping(m, op.right, chase_options);
    }));
    rdx::Instance& c2 = Hold(keep, std::move(c2_v));
    RDX_ASSIGN_OR_RETURN(bool verdict, t.Layer(root, "hom", [&] {
      return rdx::HasHomomorphism(c1, c2);
    }));
    return std::string(verdict ? "true" : "false");
  }

  const serve::Request& request = op.request;
  RDX_ASSIGN_OR_RETURN(
      const serve::CompiledPlan* plan, t.Layer(root, "serve.lookup", [&] {
        return plans.Get(request.mapping);
      }));
  RDX_ASSIGN_OR_RETURN(rdx::Instance instance_v, t.Layer(root, "columnar", [&] {
    return rdx::columnar::Deserialize(request.instance_rdxc);
  }));
  rdx::Instance& instance = Hold(input, std::move(instance_v));
  const uint64_t bound = t.Layer(root, "analysis", [&] {
    uint64_t b = plan->analysis.bound.FactBound(instance);
    if (b == rdx::ChaseSizeBound::kUnbounded) {
      b = plan->analysis.termination.bound.FactBound(instance);
    }
    return b;
  });
  if (bound > kAdmitBudget) {
    return Status::ResourceExhausted("replay: request over admission budget");
  }
  auto canonical = [&](const rdx::Instance& i) {
    return t.Layer(root, "canonical", [&] { return i.CanonicalText(); });
  };
  auto line = [&](const std::string& text) {
    return t.Layer(root, "serve", [&] { return StrCat(text, "\n"); });
  };

  switch (request.command) {
    case serve::Command::kChase: {
      if (request.has_flag(serve::kFlagLaconic)) {
        RDX_ASSIGN_OR_RETURN(rdx::LaconicChaseResult r_v,
                             t.Layer(root, "compile", [&] {
                               return rdx::LaconicChaseWithCompilation(
                                   plan->mapping, plan->laconic, instance,
                                   chase_options);
                             }));
        rdx::LaconicChaseResult& r = Hold(keep, std::move(r_v));
        return line(canonical(r.core));
      }
      RDX_ASSIGN_OR_RETURN(rdx::ChaseResult chased_v, t.Layer(root, "chase", [&] {
        return rdx::ChaseMappingWithStats(plan->mapping, instance,
                                          chase_options);
      }));
      rdx::ChaseResult& chased = Hold(keep, std::move(chased_v));
      if (request.has_flag(serve::kFlagToCore)) {
        RDX_ASSIGN_OR_RETURN(rdx::Instance core_v, t.Layer(root, "core", [&] {
          return rdx::ComputeCore(chased.added, rdx::HomomorphismOptions{});
        }));
        rdx::Instance& core = Hold(keep, std::move(core_v));
        return line(canonical(core));
      }
      return line(canonical(chased.added));
    }
    case serve::Command::kReverse: {
      RDX_ASSIGN_OR_RETURN(std::vector<rdx::Instance> worlds_v,
                           t.Layer(root, "dchase", [&] {
                             return rdx::DisjunctiveChaseMapping(
                                 plan->mapping, instance,
                                 rdx::DisjunctiveChaseOptions{});
                           }));
      std::vector<rdx::Instance>& worlds = Hold(keep, std::move(worlds_v));
      std::vector<std::string> rendered;
      for (const rdx::Instance& w : worlds) rendered.push_back(canonical(w));
      return t.Layer(root, "serve", [&] {
        std::sort(rendered.begin(), rendered.end());
        std::string payload = StrCat(worlds.size(), " possible world(s):\n");
        for (const std::string& w : rendered) payload += StrCat("  ", w, "\n");
        return payload;
      });
    }
    case serve::Command::kCertain: {
      RDX_ASSIGN_OR_RETURN(
          const serve::CompiledPlan* reverse,
          t.Layer(root, "serve.lookup",
                  [&] { return plans.Get(request.reverse_mapping); }));
      RDX_ASSIGN_OR_RETURN(rdx::ConjunctiveQuery query,
                           t.Layer(root, "query", [&] {
                             return rdx::ConjunctiveQuery::Parse(request.query);
                           }));
      RDX_ASSIGN_OR_RETURN(rdx::Instance forward_v, t.Layer(root, "chase", [&] {
        return rdx::ChaseMapping(plan->mapping, instance, chase_options);
      }));
      rdx::Instance& forward = Hold(keep, std::move(forward_v));
      RDX_ASSIGN_OR_RETURN(std::vector<rdx::Instance> worlds_v,
                           t.Layer(root, "dchase", [&] {
                             return rdx::DisjunctiveChaseMapping(
                                 reverse->mapping, forward,
                                 rdx::DisjunctiveChaseOptions{});
                           }));
      std::vector<rdx::Instance>& worlds = Hold(keep, std::move(worlds_v));
      RDX_ASSIGN_OR_RETURN(
          rdx::TupleSet certain,
          t.Layer(root, "query", [&]() -> Result<rdx::TupleSet> {
            if (worlds.empty()) return rdx::TupleSet{};
            std::vector<rdx::TupleSet> answers;
            for (const rdx::Instance& w : worlds) {
              RDX_ASSIGN_OR_RETURN(rdx::TupleSet a, query.Eval(w));
              answers.push_back(std::move(a));
            }
            return rdx::DiscardTuplesWithNulls(rdx::IntersectAll(answers));
          }));
      return line(
          t.Layer(root, "serve", [&] { return rdx::TupleSetToString(certain); }));
    }
    default:
      return Status::InvalidArgument("replay: not an execution command");
  }
}

}  // namespace

Result<std::string> Replay(serve::PlanCache& plans, const Op& op,
                           Tracer& t, int root) {
  Keep keep;
  Keep input;
  Result<std::string> payload = ReplayLayers(plans, op, t, root, keep, input);
  t.Layer(root, "release", [&] {
    keep.clear();
    return 0;
  });
  // ExecuteRequest frees the decoded request instance last, after its
  // serve.request_us timer has stopped.
  t.Layer(root, "release.input", [&] {
    input.clear();
    return 0;
  });
  return payload;
}

}  // namespace e2e
