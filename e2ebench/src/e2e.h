// Shared declarations of the end-to-end benchmark (README.md).
//
// The benchmark keeps its own representation of instances (RawFact), so
// that its correctness checks never call into the engine under test: the
// engine only ever sees RDXC bytes built from RawFacts, and its replies
// are parsed back from their canonical text by the benchmark's own parser.
#ifndef RDX_E2EBENCH_E2E_H_
#define RDX_E2EBENCH_E2E_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "core/instance.h"
#include "serve/plan_cache.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// One fact in the benchmark's own representation. Arguments starting
/// with '?' are labeled nulls; everything else is a constant.
struct RawFact {
  std::string rel;
  std::vector<std::string> args;

  friend bool operator==(const RawFact&, const RawFact&) = default;
  friend auto operator<=>(const RawFact&, const RawFact&) = default;
};
using RawInstance = std::vector<RawFact>;

inline bool IsNullArg(const std::string& v) {
  return !v.empty() && v[0] == '?';
}

/// Interns `raw` into an engine instance (relation arities are pinned
/// process-wide on first use).
rdx::Instance ToInstance(const RawInstance& raw);

/// The RDXC encoding of `raw`: the request payload of every serve op.
std::string ToRdxc(const RawInstance& raw);

/// Length plus 64-bit FNV-1a hash of a byte sequence (or, for a fact set,
/// element count plus the hash of its sorted elements). The benchmark keeps
/// these instead of whole replies and expected sets, so that its own data
/// adds little to the memory of the process it measures.
struct Fingerprint {
  uint64_t size = 0;
  uint64_t hash = 0xcbf29ce484222325ULL;

  void Add(std::string_view bytes) {
    for (const char c : bytes) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ULL;
    }
  }
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

inline Fingerprint FingerprintOf(std::string_view bytes) {
  Fingerprint f;
  f.size = bytes.size();
  f.Add(bytes);
  return f;
}

/// Checks one operation's output; returns "" when it is correct and a
/// one-line reason otherwise.
using Checker = std::function<std::string(std::string_view output)>;

/// Which decision procedure of mapping/extended.h a decision op runs.
enum class Decision { kExtendedUniversal, kArrowM };

/// One operation of a workload round. Serve ops carry a protocol request
/// (executed in-process by serve::ExecuteRequest or sent to rdx_serve);
/// decision ops call IsExtendedUniversalSolution / ArrowM directly.
struct Op {
  std::string kind;  // reported as request.<kind>_ms
  bool is_request = true;
  rdx::serve::Request request;

  Decision decision = Decision::kExtendedUniversal;
  rdx::Instance left;   // I, or I1 for ArrowM
  rdx::Instance right;  // J, or I2 for ArrowM

  Checker check;
};

/// A workload: the catalog plans it uses and one round of operations.
/// Every run repeats whole rounds, so every run attempts the same mix.
struct Workload {
  std::string name;
  bool daemon = false;
  std::vector<std::string> plans;
  std::vector<Op> ops;
  /// peak_rss_mb is read after this many measured rounds, so it reflects
  /// the same served operations on every run whatever the machine speed.
  int rss_rounds = 1;
};

// ---- workloads.cc -------------------------------------------------------

/// Builds the named workload's inputs from `seed`, with every input size
/// multiplied by `scale` (1 in the benchmark proper; other values give
/// the size ladders of README.md). Fails on an unknown name.
rdx::Result<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                   double scale);

/// Writes the mapping files of `plans` and a catalog binding them into
/// `dir`; returns the catalog path.
rdx::Result<std::string> WriteCatalog(const std::string& dir,
                                      const std::vector<std::string>& plans);

/// Admission budget of every serve op, in-process and in the daemon. The
/// static FactBound is far above the real chase size at 10^4 facts
/// (README.md, "Admission"), so the default budget would refuse the
/// workloads; admission is still evaluated and timed on every request.
inline constexpr uint64_t kAdmitBudget = uint64_t{1} << 62;

/// The plan the decision ops of extended_check run against.
inline constexpr char kDecisionPlan[] = "pathsplit";

// ---- checks.cc ----------------------------------------------------------

// Each checker keeps only what it derives from its input (a fingerprint
// of the expected set, or the source paths as one string), never the
// input itself.
Checker CheckDecomposition(const RawInstance& source);
Checker CheckCoTargetCore(const RawInstance& source, std::size_t hubs);
Checker CheckPathSplit(const RawInstance& source);
Checker CheckPathSplitCertain(const RawInstance& source);
Checker CheckSelfLoopCertain(const RawInstance& source);
Checker CheckSelfLoopWorlds(const RawInstance& target, std::size_t diagonals);
Checker CheckVerdict(bool expected);

/// Corrupted copies of a correct output, every one of which each checker
/// must reject: the verdict flipped; or one element of the first set
/// dropped, and (when the set has two elements to swap between) the first
/// arguments of two of its elements swapped, which keeps the element
/// count and every value's number of occurrences.
std::vector<std::string> Corruptions(std::string_view output);

// ---- replay.cc ----------------------------------------------------------

/// The operation as a user runs it: serve::ExecuteRequest for serve ops,
/// the mapping/extended.h decision for decision ops. Returns the reply
/// payload (or "true"/"false"); a non-ok reply is an error.
rdx::Result<std::string> Execute(rdx::serve::PlanCache& plans, const Op& op);

/// In-memory spans plus counter deltas, recorded from the benchmark's own
/// code around calls into each layer's public functions.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;  // index into spans(), -1 for an operation root
    int64_t op = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// Opens an operation root span; returns its index.
  int BeginOp(const std::string& kind);
  void EndOp(int root);

  /// Runs `f` inside a child span of `root` named `layer`, and adds the
  /// deltas of the engine counters around it to that layer's totals.
  template <typename F>
  auto Layer(int root, const char* layer, F&& f) {
    const int span = Begin(root, layer);
    auto result = f();
    End(span, layer);
    return result;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (span minus its children) per layer name, over the spans
  /// of operation root `root` only.
  std::map<std::string, double> SelfMillis(int root) const;

  /// Counter delta of `counter` accumulated over the spans of `layer`.
  uint64_t CounterDelta(const std::string& layer,
                        const std::string& counter) const;

  /// Writes every span as one JSON object per line.
  rdx::Status WriteJsonl(const std::string& path) const;

 private:
  int Begin(int parent, const std::string& name);
  void End(int span, const char* layer);

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  int64_t next_op_ = 0;
  std::vector<uint64_t> open_counters_;
  std::map<std::string, std::map<std::string, uint64_t>> deltas_;
};

/// Replays `op` by calling the layer functions in ExecuteRequest's order,
/// each inside a span of `root`. Returns the replayed payload, which must
/// equal Execute's byte for byte.
rdx::Result<std::string> Replay(rdx::serve::PlanCache& plans, const Op& op,
                                Tracer& tracer, int root);

// ---- daemon.cc ----------------------------------------------------------

/// An rdx_serve child process. The destructor SIGKILLs and reaps a daemon
/// that was not stopped, so no path leaves it running.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns `binary serve` on `socket_path` and waits (by polling
  /// connect, and then one statsz request) until it answers.
  rdx::Status Start(const std::string& binary, const std::string& catalog,
                    const std::string& socket_path,
                    const std::string& log_path);

  /// SIGTERM, then waits up to `drain_ms`. Fails unless the daemon exits
  /// with status 0 in time (it is SIGKILLed in that case).
  rdx::Status Stop(int drain_ms, double* drained_ms);

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

/// One blocking client connection speaking the frame protocol. Every call
/// writes one whole frame and reads its whole reply.
class Client {
 public:
  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  rdx::Status Connect(const std::string& socket_path);
  rdx::Result<rdx::serve::Reply> Call(const rdx::serve::Request& request);
  void Close();

 private:
  int fd_ = -1;
};

/// VmHWM / VmRSS of a process, in MiB (0 if unreadable).
double PeakRssMb(pid_t pid);
double CurrentRssMb(pid_t pid);

/// Reads a counter's value from /statsz text (0 when absent).
uint64_t StatszCounter(std::string_view statsz, std::string_view name);

}  // namespace e2e

#endif  // RDX_E2EBENCH_E2E_H_
