// Seeded workload generators. Every input is a pure function of the seed;
// the engine only receives the RDXC bytes built from it.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <random>
#include <set>

#include "base/strings.h"
#include "columnar/serialize.h"
#include "core/fact.h"
#include "core/schema.h"
#include "core/value.h"
#include "e2e.h"

namespace e2e {

using rdx::Result;
using rdx::Status;
using rdx::StrCat;
namespace serve = rdx::serve;

namespace {

// Input sizes (source facts per request). README.md explains each.
constexpr std::size_t kBulkFacts = 10'000;
constexpr std::size_t kBulkPathLength = 1'000;
constexpr std::size_t kReverseFacts = 500;
constexpr std::size_t kReverseDiagonals = 4;
constexpr std::size_t kServeFacts = 1'000;
constexpr std::size_t kServePathLength = 100;
constexpr std::size_t kServeCertainFacts = 30;
constexpr std::size_t kServeReverseFacts = 60;
constexpr std::size_t kServeDiagonals = 2;
constexpr std::size_t kDecisionFacts = 500;
constexpr std::size_t kDecisionPathLength = 50;

struct PlanText {
  const char* name;
  const char* text;
};

// Relation names are private to the benchmark (Bx*), so they never clash
// with the arity of a relation the paper samples intern.
const PlanText kPlans[] = {
    {"decomposition",
     "source: BxDecP/3\ntarget: BxDecQ/2, BxDecR/2\n"
     "BxDecP(x, y, z) -> BxDecQ(x, y) & BxDecR(y, z)\n"},
    {"cotarget",
     "source: BxBlP/2\ntarget: BxBlQ/2\n"
     "BxBlP(x, y) -> EXISTS z: BxBlQ(x, z) & BxBlQ(y, z)\n"},
    {"pathsplit",
     "source: BxPsP/2\ntarget: BxPsQ/2\n"
     "BxPsP(x, y) -> EXISTS z: BxPsQ(x, z) & BxPsQ(z, y)\n"},
    {"pathsplit_reverse",
     "source: BxPsQ/2\ntarget: BxPsP/2\n"
     "BxPsQ(x, z) & BxPsQ(z, y) -> BxPsP(x, y)\n"},
    {"selfloop",
     "source: BxSlP/2, BxSlT/1\ntarget: BxSlPp/2\n"
     "BxSlP(x, y) -> BxSlPp(x, y);\nBxSlT(x) -> BxSlPp(x, x)\n"},
    {"selfloop_reverse",
     "source: BxSlPp/2\ntarget: BxSlP/2, BxSlT/1\n"
     "BxSlPp(x, y) & x != y -> BxSlP(x, y);\n"
     "BxSlPp(x, x) -> BxSlT(x) | BxSlP(x, x)\n"},
};

constexpr char kJoinQuery[] = "q(x, z) :- BxPsP(x, y) & BxPsP(y, z)";
constexpr char kSelfLoopQuery[] = "q(x, y) :- BxSlP(x, y)";

std::string Name(const char* prefix, std::size_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%06zu", prefix, i);
  return buf;
}

uint64_t Uniform(std::mt19937_64& rng, uint64_t bound) {
  return std::uniform_int_distribution<uint64_t>(0, bound - 1)(rng);
}

// decomposition: n ground BxDecP facts over a domain of n/2 constants, so
// projections collide and the chase deduplicates.
RawInstance DecompositionSource(std::mt19937_64& rng, std::size_t n) {
  std::set<RawFact> facts;
  const std::size_t domain = std::max<std::size_t>(n / 2, 2);
  while (facts.size() < n) {
    facts.insert({"BxDecP",
                  {Name("d", Uniform(rng, domain)),
                   Name("d", Uniform(rng, domain)),
                   Name("d", Uniform(rng, domain))}});
  }
  RawInstance out(facts.begin(), facts.end());
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

// Hubs {h, a, b}: the pairs {h,a} and {h,b} in one or both orientations,
// plus optional self-loops. The core keeps one null per pair, so 4 facts
// per hub; reversed pairs and self-loops are what the core folds away.
RawInstance CoTargetSource(std::mt19937_64& rng, std::size_t n,
                           std::size_t* hubs) {
  RawInstance out;
  *hubs = 0;
  while (out.size() < n) {
    const std::size_t i = (*hubs)++;
    const std::string h = Name("h", i), a = Name("a", i), b = Name("b", i);
    for (const std::string& s : {a, b}) {
      switch (Uniform(rng, 3)) {
        case 0: out.push_back({"BxBlP", {h, s}}); break;
        case 1: out.push_back({"BxBlP", {s, h}}); break;
        default:
          out.push_back({"BxBlP", {h, s}});
          out.push_back({"BxBlP", {s, h}});
          break;
      }
    }
    for (const std::string& v : {h, a, b}) {
      if (Uniform(rng, 2) == 0) out.push_back({"BxBlP", {v, v}});
    }
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

// Disjoint simple paths of `length` edges; interior vertices are labeled
// nulls with probability 1/10, endpoints are always constants.
RawInstance PathSource(std::mt19937_64& rng, std::size_t n,
                       std::size_t length, const char* prefix) {
  RawInstance out;
  std::size_t vertex = 0;
  while (out.size() < n) {
    const std::size_t edges = std::min(length, n - out.size());
    std::string prev = Name("p", vertex++);
    for (std::size_t e = 0; e < edges; ++e) {
      const bool last = e + 1 == edges;
      std::string next = (!last && Uniform(rng, 10) == 0)
                             ? StrCat("?", Name(prefix, vertex++))
                             : Name("p", vertex++);
      out.push_back({"BxPsP", {prev, next}});
      prev = std::move(next);
    }
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

// A random digraph of n distinct edges over 2n/3 vertices, 1 in 20 of
// them labeled nulls: the two-atom join has answers with and without
// nulls.
RawInstance JoinSource(std::mt19937_64& rng, std::size_t n) {
  const std::size_t vertices = std::max<std::size_t>(2 * n / 3, 3);
  auto vertex = [&](std::size_t i) {
    return i % 20 == 7 ? StrCat("?", Name("j", i)) : Name("v", i);
  };
  std::set<RawFact> facts;
  while (facts.size() < n) {
    const std::size_t x = Uniform(rng, vertices), y = Uniform(rng, vertices);
    if (x != y) facts.insert({"BxPsP", {vertex(x), vertex(y)}});
  }
  RawInstance out(facts.begin(), facts.end());
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

// SelfLoop source: n - k distinct non-diagonal BxSlP pairs plus k
// diagonal vertices, each carried by BxSlT(d) or BxSlP(d, d).
RawInstance SelfLoopSource(std::mt19937_64& rng, std::size_t n,
                           std::size_t k) {
  const std::size_t vertices = std::max<std::size_t>(n / 2, 4);
  std::set<RawFact> pairs;
  while (pairs.size() < n - k) {
    const std::size_t x = Uniform(rng, vertices), y = Uniform(rng, vertices);
    if (x != y) pairs.insert({"BxSlP", {Name("s", x), Name("s", y)}});
  }
  RawInstance out(pairs.begin(), pairs.end());
  std::vector<std::size_t> ids(vertices);
  std::iota(ids.begin(), ids.end(), 0);
  std::shuffle(ids.begin(), ids.end(), rng);
  for (std::size_t i = 0; i < k; ++i) {
    const std::string d = Name("s", ids[i]);
    if (Uniform(rng, 2) == 0) {
      out.push_back({"BxSlT", {d}});
    } else {
      out.push_back({"BxSlP", {d, d}});
    }
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

// chase_M(I) for the SelfLoop mapping, computed by the benchmark.
RawInstance SelfLoopTarget(const RawInstance& source) {
  std::set<RawFact> target;
  for (const RawFact& f : source) {
    const std::string& y = f.rel == "BxSlT" ? f.args[0] : f.args[1];
    target.insert({"BxSlPp", {f.args[0], y}});
  }
  return RawInstance(target.begin(), target.end());
}

// chase_M(I) for PathSplit up to null renaming, computed by the
// benchmark: one fresh null per source edge, facts shuffled.
RawInstance PathSplitChase(std::mt19937_64& rng, const RawInstance& source,
                           const char* prefix) {
  RawInstance out;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const std::string z = StrCat("?", Name(prefix, i));
    out.push_back({"BxPsQ", {source[i].args[0], z}});
    out.push_back({"BxPsQ", {z, source[i].args[1]}});
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

// `source` with its nulls renamed to fresh labels, facts shuffled.
RawInstance RenameNulls(std::mt19937_64& rng, RawInstance source,
                        const char* prefix) {
  for (RawFact& f : source) {
    for (std::string& v : f.args) {
      if (IsNullArg(v)) v = StrCat("?", prefix, v.substr(1));
    }
  }
  std::shuffle(source.begin(), source.end(), rng);
  return source;
}

RawInstance DropOne(std::mt19937_64& rng, RawInstance facts) {
  facts.erase(facts.begin() +
              static_cast<std::ptrdiff_t>(Uniform(rng, facts.size())));
  return facts;
}

Op RequestOp(std::string kind, serve::Command command, uint8_t flags,
             std::string plan, const RawInstance& instance, Checker check) {
  Op op;
  op.kind = std::move(kind);
  op.request.command = command;
  op.request.flags = flags | serve::kFlagCanonical;
  op.request.mapping = std::move(plan);
  op.request.instance_rdxc = ToRdxc(instance);
  op.check = std::move(check);
  return op;
}

Op CertainOp(std::string kind, std::string plan, std::string reverse,
             std::string query, const RawInstance& source, Checker check) {
  Op op = RequestOp(std::move(kind), serve::Command::kCertain, 0,
                    std::move(plan), source, std::move(check));
  op.request.reverse_mapping = std::move(reverse);
  op.request.query = std::move(query);
  return op;
}

Op DecisionOp(std::string kind, Decision decision, const RawInstance& left,
              const RawInstance& right, bool expected) {
  Op op;
  op.kind = std::move(kind);
  op.is_request = false;
  op.decision = decision;
  op.left = ToInstance(left);
  op.right = ToInstance(right);
  op.check = CheckVerdict(expected);
  return op;
}

// Each generator gets its own stream, so adding an op to one workload
// never changes another op's inputs.
std::mt19937_64 Stream(uint64_t seed, uint64_t salt) {
  std::seed_seq seq{seed, salt};
  return std::mt19937_64(seq);
}

void AddForwardOps(Workload& w, uint64_t seed, std::size_t facts,
                   std::size_t path_length) {
  auto r1 = Stream(seed, 1);
  RawInstance dec = DecompositionSource(r1, facts);
  w.ops.push_back(RequestOp("decomposition", serve::Command::kChase, 0,
                            "decomposition", dec, CheckDecomposition(dec)));
  auto r2 = Stream(seed, 2);
  std::size_t hubs = 0;
  RawInstance hub = CoTargetSource(r2, facts, &hubs);
  w.ops.push_back(RequestOp("cotarget_core", serve::Command::kChase,
                            serve::kFlagToCore, "cotarget", hub,
                            CheckCoTargetCore(hub, hubs)));
  auto r3 = Stream(seed, 3);
  RawInstance path = PathSource(r3, facts, path_length, "u");
  w.ops.push_back(RequestOp("pathsplit_laconic", serve::Command::kChase,
                            serve::kFlagLaconic, "pathsplit", path,
                            CheckPathSplit(path)));
}

void AddReverseOps(Workload& w, uint64_t seed, std::size_t join_facts,
                   std::size_t selfloop_facts, std::size_t diagonals,
                   bool selfloop_certain) {
  auto r4 = Stream(seed, 4);
  RawInstance join = JoinSource(r4, join_facts);
  w.ops.push_back(CertainOp("pathsplit_certain", "pathsplit",
                            "pathsplit_reverse", kJoinQuery, join,
                            CheckPathSplitCertain(join)));
  auto r5 = Stream(seed, 5);
  RawInstance loops = SelfLoopSource(r5, selfloop_facts, diagonals);
  if (selfloop_certain) {
    w.ops.push_back(CertainOp("selfloop_certain", "selfloop",
                              "selfloop_reverse", kSelfLoopQuery, loops,
                              CheckSelfLoopCertain(loops)));
  }
  RawInstance target = SelfLoopTarget(loops);
  w.ops.push_back(RequestOp("selfloop_reverse", serve::Command::kReverse, 0,
                            "selfloop_reverse", target,
                            CheckSelfLoopWorlds(target, diagonals)));
}

}  // namespace

rdx::Instance ToInstance(const RawInstance& raw) {
  std::vector<rdx::Fact> facts;
  facts.reserve(raw.size());
  for (const RawFact& f : raw) {
    std::vector<rdx::Value> args;
    args.reserve(f.args.size());
    for (const std::string& v : f.args) {
      args.push_back(IsNullArg(v) ? rdx::Value::MakeNull(v.substr(1))
                                  : rdx::Value::MakeConstant(v));
    }
    facts.push_back(rdx::Fact::MustMake(
        rdx::Relation::MustIntern(f.rel, static_cast<uint32_t>(f.args.size())),
        std::move(args)));
  }
  return rdx::Instance::FromFacts(facts);
}

std::string ToRdxc(const RawInstance& raw) {
  return rdx::columnar::Serialize(ToInstance(raw));
}

Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                              double scale) {
  const auto n = [scale](std::size_t base) {
    return std::max<std::size_t>(8, static_cast<std::size_t>(
                                        static_cast<double>(base) * scale));
  };
  Workload w;
  w.name = name;
  if (name == "exchange_bulk") {
    w.plans = {"decomposition", "cotarget", "pathsplit"};
    AddForwardOps(w, seed, n(kBulkFacts), kBulkPathLength);
    w.rss_rounds = 2;
  } else if (name == "reverse_certain") {
    w.plans = {"pathsplit", "pathsplit_reverse", "selfloop",
               "selfloop_reverse"};
    AddReverseOps(w, seed, n(kReverseFacts), n(kReverseFacts),
                  kReverseDiagonals, /*selfloop_certain=*/true);
    w.rss_rounds = 2;
  } else if (name == "serve_socket") {
    w.daemon = true;
    w.plans = {"decomposition", "cotarget", "pathsplit", "pathsplit_reverse",
               "selfloop_reverse"};
    AddForwardOps(w, seed, n(kServeFacts), kServePathLength);
    AddReverseOps(w, seed, n(kServeCertainFacts), n(kServeReverseFacts),
                  kServeDiagonals, /*selfloop_certain=*/false);
    // One request of each kind: a chase on a null-free plan
    // (decomposition), chases on null-creating plans (cotarget_core,
    // pathsplit_laconic), a certain request and a small reverse request.
    w.rss_rounds = 40;
  } else if (name == "extended_check") {
    w.plans = {"pathsplit"};
    auto rng = Stream(seed, 6);
    RawInstance source =
        PathSource(rng, n(kDecisionFacts), kDecisionPathLength, "u");
    RawInstance chased = PathSplitChase(rng, source, "z");
    w.ops.push_back(DecisionOp("universal_pos", Decision::kExtendedUniversal,
                               source, chased, true));
    w.ops.push_back(DecisionOp("universal_neg", Decision::kExtendedUniversal,
                               source, DropOne(rng, chased), false));
    w.ops.push_back(DecisionOp("arrow_pos", Decision::kArrowM, source,
                               RenameNulls(rng, source, "r"), true));
    // I - f ->_M I holds for every fact f (chase_M is monotone); I ->_M
    // I - f does not, since f links two constants on its path. Five kinds
    // per round keep the median inside one kind's samples.
    const RawInstance smaller = DropOne(rng, source);
    w.ops.push_back(
        DecisionOp("arrow_neg", Decision::kArrowM, source, smaller, false));
    w.ops.push_back(
        DecisionOp("arrow_sub", Decision::kArrowM, smaller, source, true));
    w.rss_rounds = 5;
  } else {
    return Status::InvalidArgument(StrCat("unknown workload '", name, "'"));
  }
  return w;
}

Result<std::string> WriteCatalog(const std::string& dir,
                                 const std::vector<std::string>& plans) {
  std::string catalog;
  for (const std::string& name : plans) {
    const PlanText* plan = nullptr;
    for (const PlanText& p : kPlans) {
      if (name == p.name) plan = &p;
    }
    if (plan == nullptr) {
      return Status::InvalidArgument(StrCat("unknown plan '", name, "'"));
    }
    const std::string file = StrCat(name, ".rdx");
    std::ofstream out(StrCat(dir, "/", file), std::ios::trunc);
    out << plan->text;
    if (!out) return Status::Internal(StrCat("cannot write ", dir, "/", file));
    catalog += StrCat(name, " = ", file, "\n");
  }
  const std::string path = StrCat(dir, "/plans.catalog");
  std::ofstream out(path, std::ios::trunc);
  out << catalog;
  if (!out) return Status::Internal(StrCat("cannot write ", path));
  return path;
}

}  // namespace e2e
