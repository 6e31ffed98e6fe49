// rdx_e2e — one run of one end-to-end workload (README.md).
//
//   rdx_e2e --workload NAME --seed N --seconds S --trace 0|1
//           --serve-bin PATH --work-dir DIR [--scale F]
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits 0
// only when every correctness check passed.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/strings.h"
#include "e2e.h"
#include "serve/catalog.h"

namespace e2e {
namespace {

using rdx::Result;
using rdx::Status;
using rdx::StrCat;
namespace serve = rdx::serve;

// Set-up is repeated and its median reported, so one slow page-in or
// spawn does not move setup_s.
constexpr int kSetupRepeats = 21;
// A daemon must exit 0 within this long after SIGTERM.
constexpr int kDrainBoundMs = 5'000;
// trace.coverage outside [kCoverageMin, kCoverageMax] fails the run.
constexpr double kCoverageMin = 0.90;
constexpr double kCoverageMax = 1.10;

const char* const kAllKinds[] = {
    "decomposition",  "cotarget_core",     "pathsplit_laconic",
    "pathsplit_certain", "selfloop_certain", "selfloop_reverse",
    "universal_pos",  "universal_neg",     "arrow_pos",
    "arrow_neg",      "arrow_sub"};

// Spans a replay records. "serve" and "serve.lookup" belong to the serve
// layer; "release" frees the request's intermediate instances and
// "release.input" its decoded input.
const char* const kLayers[] = {"serve.lookup", "serve",     "columnar",
                               "analysis",     "chase",     "compile",
                               "core",         "hom",       "canonical",
                               "release",      "release.input", "dchase",
                               "query"};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  int trace = -1;
  std::string serve_bin;
  std::string work_dir;
  double scale = 1.0;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "rdx_e2e: %s\nusage: rdx_e2e --workload NAME --seed N "
               "--seconds S --trace 0|1 --serve-bin PATH --work-dir DIR "
               "[--scale F]\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    uint64_t n = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed" && rdx::ParseUint64(value, &n)) {
      args->seed = n;
    } else if (flag == "--seconds" && rdx::ParseUint64(value, &n) && n > 0) {
      args->seconds = n;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      args->trace = value == "1";
    } else if (flag == "--serve-bin") {
      args->serve_bin = value;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--scale") {
      char* end = nullptr;
      args->scale = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->scale > 0)) {
        return false;
      }
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 && args->trace >= 0 &&
         !args->serve_bin.empty() && !args->work_dir.empty();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Nearest-rank percentile.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * v.size()));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// Per-op samples, indexed by position in the round.
using Samples = std::vector<std::vector<double>>;

// The per-operation figure of a run: the median of each op's samples,
// averaged over the ops of one round.
double PerOp(const Samples& samples) {
  if (samples.empty()) return 0;
  double sum = 0;
  for (const std::vector<double>& s : samples) sum += Median(s);
  return sum / static_cast<double>(samples.size());
}

class Run {
 public:
  Run(Args args, Workload workload)
      : args_(std::move(args)), w_(std::move(workload)) {}

  int Main();

 private:
  void Fail(const std::string& what) {
    std::fprintf(stderr, "rdx_e2e: CHECK FAILED: %s\n", what.c_str());
    correct_ = false;
  }
  Status SetUp();
  Status SpawnDaemons();
  void VerifyReferences();
  void CheckSame(std::size_t i, const std::string& output, const char* what);
  bool Continue(int rounds, Clock::time_point deadline) const {
    return rounds < w_.rss_rounds || Clock::now() < deadline;
  }
  Status MeasureInProcess();
  Status MeasureSocket(double seconds, bool traced);
  bool TraceOp(std::size_t i, int round, Samples& real);
  Status TraceInProcess(double seconds);
  void EmitEndToEnd();
  void EmitPerLayer();
  void Print(const std::map<std::string, std::pair<double, std::string>>& m);

  Args args_;
  Workload w_;
  std::string run_dir_;
  std::string catalog_;
  std::unique_ptr<serve::PlanCache> plans_;
  std::unique_ptr<Daemon> daemon_;
  Client client_;
  std::vector<Fingerprint> reference_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;

  // End-to-end.
  std::vector<double> setup_s_;
  std::vector<double> compile_ms_;
  std::vector<double> spawn_ms_;
  std::vector<double> latency_ms_;
  std::vector<double> round_s_;  // closed-loop time of each measured round
  double peak_rss_mb_ = 0;

  // Per-layer.
  Tracer tracer_;
  std::map<std::string, Samples> layer_ms_;  // layer -> per-op self times
  Samples real_ms_;                          // untraced op latency
  // Per replayed op: layer self times / untraced wall time, and replay
  // wall time / untraced wall time - 1.
  std::vector<double> coverage_;
  std::vector<double> overhead_;
  uint64_t replayed_ = 0;
  double socket_rt_ms_ = 0;
  uint64_t socket_ops_ = 0;
  uint64_t daemon_request_us_ = 0;
  double rss_growth_mb_ = 0;
};

// Catalog load plus compiling every plan: the set-up a workload needs.
// `compile_ms`, when given, receives the compile part alone.
Result<std::unique_ptr<serve::PlanCache>> LoadPlans(
    const std::string& catalog, double* compile_ms = nullptr) {
  RDX_ASSIGN_OR_RETURN(std::vector<serve::CatalogEntry> entries,
                       serve::LoadCatalogFile(catalog));
  auto plans = std::make_unique<serve::PlanCache>(std::move(entries));
  const Clock::time_point start = Clock::now();
  RDX_RETURN_IF_ERROR(plans->CompileAll());
  if (compile_ms != nullptr) *compile_ms = MillisSince(start);
  return plans;
}

// `rdx_e2e --setup-probe CATALOG`: one set-up in this fresh process,
// timed from inside; prints its seconds.
int SetUpProbe(const std::string& catalog) {
  const Clock::time_point start = Clock::now();
  Result<std::unique_ptr<serve::PlanCache>> plans = LoadPlans(catalog);
  const double seconds = MillisSince(start) / 1000.0;
  if (!plans.ok()) {
    std::fprintf(stderr, "rdx_e2e: %s\n", plans.status().ToString().c_str());
    return 1;
  }
  std::printf("%.9g\n", seconds);
  return 0;
}

// The set-up a fresh process pays (cold interner, relation tables and
// heap): run by a child rdx_e2e, so that exec and dynamic loading stay
// out of the figure.
Result<double> ColdSetUpSeconds(const std::string& catalog) {
  int fds[2];
  if (pipe(fds) != 0) return Status::Internal("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execl("/proc/self/exe", "rdx_e2e", "--setup-probe", catalog.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[64];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  char* end = nullptr;
  const double seconds = std::strtod(out.c_str(), &end);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || end == out.c_str()) {
    return Status::Internal("set-up probe failed");
  }
  return seconds;
}

Status Run::SetUp() {
  run_dir_ = StrCat(args_.work_dir, "/run-", getpid());
  std::error_code ec;
  std::filesystem::create_directories(run_dir_, ec);
  if (ec) return Status::Internal(StrCat("mkdir ", run_dir_, ": ", ec.message()));
  RDX_ASSIGN_OR_RETURN(catalog_, WriteCatalog(run_dir_, w_.plans));
  for (int i = 0; i < kSetupRepeats; ++i) {
    RDX_ASSIGN_OR_RETURN(const double cold, ColdSetUpSeconds(catalog_));
    setup_s_.push_back(cold);
  }
  // The plans this process serves from; their compile time, warm, is
  // serve.plan_compile_ms.
  for (int i = 0; i < kSetupRepeats; ++i) {
    double ms = 0;
    RDX_ASSIGN_OR_RETURN(plans_, LoadPlans(catalog_, &ms));
    compile_ms_.push_back(ms);
  }
  return Status::OK();
}

// Daemon spawn until it answers its first request. Reported per layer
// only: exec and dynamic loading dominate it and track the host's load.
Status Run::SpawnDaemons() {
  for (int i = 0; i < kSetupRepeats; ++i) {
    auto daemon = std::make_unique<Daemon>();
    const Clock::time_point start = Clock::now();
    RDX_RETURN_IF_ERROR(daemon->Start(args_.serve_bin, catalog_,
                                      StrCat(run_dir_, "/d.sock"),
                                      StrCat(run_dir_, "/daemon.log")));
    spawn_ms_.push_back(MillisSince(start));
    if (i + 1 < kSetupRepeats) {
      double drained = 0;
      RDX_RETURN_IF_ERROR(daemon->Stop(kDrainBoundMs, &drained));
    } else {
      daemon_ = std::move(daemon);
    }
  }
  return client_.Connect(StrCat(run_dir_, "/d.sock"));
}

// The first in-process execution of every op is checked against the
// benchmark's own checker, and a corrupted copy must be rejected; later
// outputs (repeats, replays, daemon replies) must equal it byte for byte.
// This round is also the warm-up.
void Run::VerifyReferences() {
  for (const Op& op : w_.ops) {
    Result<std::string> out = Execute(*plans_, op);
    if (!out.ok()) {
      Fail(StrCat(op.kind, ": ", out.status().ToString()));
      reference_.emplace_back();
      continue;
    }
    if (std::string err = op.check(*out); !err.empty()) {
      Fail(StrCat(op.kind, ": ", err));
    }
    const std::vector<std::string> corrupted = Corruptions(*out);
    for (std::size_t c = 0; c < corrupted.size(); ++c) {
      if (op.check(corrupted[c]).empty()) {
        Fail(StrCat(op.kind, ": checker accepted corrupted output ", c));
      }
    }
    reference_.push_back(FingerprintOf(*out));
  }
}

void Run::CheckSame(std::size_t i, const std::string& output,
                    const char* what) {
  if (FingerprintOf(output) != reference_[i]) {
    Fail(StrCat(w_.ops[i].kind, ": ", what,
                " differs from the first in-process reply"));
  }
}

Status Run::MeasureInProcess() {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::seconds(args_.seconds);
  for (int rounds = 0; Continue(rounds, deadline); ++rounds) {
    round_s_.push_back(0);
    for (std::size_t i = 0; i < w_.ops.size(); ++i) {
      ++attempted_;
      const Clock::time_point t0 = Clock::now();
      Result<std::string> out = Execute(*plans_, w_.ops[i]);
      latency_ms_.push_back(MillisSince(t0));
      round_s_.back() += latency_ms_.back() / 1000.0;
      if (!out.ok()) {
        ++failed_;
        continue;
      }
      CheckSame(i, *out, "repeated reply");
    }
    if (rounds + 1 == w_.rss_rounds) peak_rss_mb_ = PeakRssMb(getpid());
  }
  return Status::OK();
}

// With `traced`, every request is followed by TraceOp on the same op, so
// the daemon's figures and the in-process layer split of each request are
// taken at the same time, and /statsz is read before and after.
Status Run::MeasureSocket(double seconds, bool traced) {
  // Warm-up round over the socket, excluded from the numbers.
  for (std::size_t i = 0; i < w_.ops.size(); ++i) {
    RDX_ASSIGN_OR_RETURN(serve::Reply reply, client_.Call(w_.ops[i].request));
    CheckSame(i, reply.payload, "daemon reply");
  }
  serve::Request statsz_request;
  statsz_request.command = serve::Command::kStatsz;
  uint64_t request_us0 = 0;
  const double rss0 = CurrentRssMb(daemon_->pid());
  if (traced) {
    for (const char* layer : kLayers) {
      layer_ms_[layer].assign(w_.ops.size(), {});
    }
    RDX_ASSIGN_OR_RETURN(serve::Reply s, client_.Call(statsz_request));
    request_us0 = StatszCounter(s.payload, "serve.request_us");
  }
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  Samples in_process(w_.ops.size());
  int rounds = 0;
  for (; Continue(rounds, deadline); ++rounds) {
    round_s_.push_back(0);
    for (std::size_t i = 0; i < w_.ops.size(); ++i) {
      ++attempted_;
      const Clock::time_point t0 = Clock::now();
      Result<serve::Reply> reply = client_.Call(w_.ops[i].request);
      const double ms = MillisSince(t0);
      latency_ms_.push_back(ms);
      round_s_.back() += ms / 1000.0;
      real_ms_[i].push_back(ms);
      if (!reply.ok()) return reply.status();  // the stream is unusable
      if (reply->status != serve::ReplyStatus::kOk) {
        ++failed_;
        continue;
      }
      CheckSame(i, reply->payload, "daemon reply");
      if (traced && !TraceOp(i, rounds, in_process)) {
        Fail(StrCat(w_.ops[i].kind, ": in-process op failed"));
      }
    }
    if (rounds + 1 == w_.rss_rounds) {
      peak_rss_mb_ = PeakRssMb(daemon_->pid());
    }
  }
  if (traced) {
    RDX_ASSIGN_OR_RETURN(serve::Reply s, client_.Call(statsz_request));
    daemon_request_us_ =
        StatszCounter(s.payload, "serve.request_us") - request_us0;
    rss_growth_mb_ = CurrentRssMb(daemon_->pid()) - rss0;
    for (double ms : latency_ms_) socket_rt_ms_ += ms;
    socket_ops_ = latency_ms_.size();
  }
  // Lifecycle: close the connection, SIGTERM, bounded drain, exit 0.
  client_.Close();
  double drained_ms = 0;
  Status stopped = daemon_->Stop(kDrainBoundMs, &drained_ms);
  if (!stopped.ok()) Fail(stopped.ToString());
  std::fprintf(stderr, "rdx_e2e: daemon drained in %.1f ms\n", drained_ms);
  return Status::OK();
}

// Runs op `i` once untraced (its wall time is the operation's) and once
// replayed layer by layer; the replay must reproduce the reply exactly.
// Returns false if the untraced op failed.
bool Run::TraceOp(std::size_t i, int round, Samples& real) {
  const Op& op = w_.ops[i];
  // Alternate which of the pair runs first, so neither always finds the
  // caches and allocator in the state the other left.
  double real_ms = 0;
  Result<std::string> out = std::string();
  auto run_real = [&] {
    const Clock::time_point t0 = Clock::now();
    out = Execute(*plans_, op);
    real_ms = MillisSince(t0);
  };
  int root = -1;
  Result<std::string> replayed = std::string();
  auto run_replay = [&] {
    root = tracer_.BeginOp(op.kind);
    replayed = Replay(*plans_, op, tracer_, root);
    tracer_.EndOp(root);
  };
  if (round % 2 == 0) {
    run_real();
    run_replay();
  } else {
    run_replay();
    run_real();
  }
  if (!out.ok()) return false;
  CheckSame(i, *out, "repeated reply");
  if (!replayed.ok()) {
    Fail(StrCat(op.kind, ": replay: ", replayed.status().ToString()));
    return true;
  }
  CheckSame(i, *replayed, "replayed reply");
  ++replayed_;
  const Tracer::Span& span = tracer_.spans()[root];
  const double replay_ms =
      static_cast<double>(span.end_ns - span.start_ns) / 1e6;
  real[i].push_back(real_ms);
  double self_sum_ms = 0;
  const std::map<std::string, double> self = tracer_.SelfMillis(root);
  for (const char* layer : kLayers) {
    auto it = self.find(layer);
    const double ms = it == self.end() ? 0.0 : it->second;
    layer_ms_[layer][i].push_back(ms);
    self_sum_ms += ms;
  }
  coverage_.push_back(self_sum_ms / real_ms);
  overhead_.push_back(replay_ms / real_ms - 1);
  return true;
}

Status Run::TraceInProcess(double seconds) {
  const Clock::time_point deadline =
      Clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  for (int rounds = 0; rounds < 1 || Clock::now() < deadline; ++rounds) {
    for (std::size_t i = 0; i < w_.ops.size(); ++i) {
      ++attempted_;
      if (!TraceOp(i, rounds, real_ms_)) ++failed_;
    }
  }
  return Status::OK();
}

void Run::Print(
    const std::map<std::string, std::pair<double, std::string>>& metrics) {
  std::string json = StrCat("{\"correct\": ", correct_ ? "true" : "false",
                            ", \"attempted\": ", attempted_,
                            ", \"failed\": ", failed_, ", \"metrics\": {");
  bool first = true;
  for (const auto& [name, value] : metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value.first);
    json += StrCat(first ? "" : ", ", "\"", name, "\": {\"value\": ", buf,
                   ", \"unit\": \"", value.second, "\"}");
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void Run::EmitEndToEnd() {
  // Throughput of the median round: a host stall during a few rounds
  // does not move it. Failed ops do not count as completed.
  const double ok_per_round =
      static_cast<double>(w_.ops.size()) *
      (1.0 - static_cast<double>(failed_) / static_cast<double>(attempted_));
  Print({
      {"ops_per_s", {ok_per_round / Median(round_s_), "1/s"}},
      {"latency_p50_ms", {Percentile(latency_ms_, 0.50), "ms"}},
      {"setup_s", {Median(setup_s_), "s"}},
      {"peak_rss_mb", {peak_rss_mb_, "MB"}},
  });
}

void Run::EmitPerLayer() {
  std::map<std::string, std::pair<double, std::string>> m;
  auto ms = [&](const char* layer) { return PerOp(layer_ms_[layer]); };
  const double ops = static_cast<double>(std::max<uint64_t>(replayed_, 1));
  auto count = [&](std::initializer_list<const char*> layers,
                   const char* counter) {
    double total = 0;
    for (const char* layer : layers) {
      total += static_cast<double>(tracer_.CounterDelta(layer, counter));
    }
    return total;
  };
  auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  const std::initializer_list<const char*> std_chase = {"chase", "compile"};
  const std::initializer_list<const char*> all = {"chase", "compile", "core",
                                                  "hom",   "dchase",  "query"};

  m["serve.plan_compile_ms"] = {Median(compile_ms_), "ms"};
  m["serve.spawn_ms"] = {Median(spawn_ms_), "ms"};
  // The daemon's serve.request_us starts after plan lookup, RDXC decode
  // and admission, and stops before the decoded instance is freed. Those
  // steps' in-process replay times are taken off the round trip too, so
  // serve.overhead_ms is framing, the socket, the connection thread and
  // the pool hand-off.
  if (socket_ops_ > 0) {
    const double n = static_cast<double>(socket_ops_);
    const double request_ms = daemon_request_us_ / 1000.0 / n;
    const double untimed_ms = ms("serve.lookup") + ms("columnar") +
                              ms("analysis") + ms("release.input");
    m["serve.overhead_ms"] = {socket_rt_ms_ / n - request_ms - untimed_ms,
                              "ms"};
    m["serve.request_ms"] = {request_ms, "ms"};
  } else {
    m["serve.overhead_ms"] = {0.0, "ms"};
    m["serve.request_ms"] = {0.0, "ms"};
  }
  m["serve.rss_growth_mb"] = {rss_growth_mb_, "MB"};
  m["columnar.decode_ms"] = {ms("columnar"), "ms"};
  m["analysis.admission_us"] = {ms("analysis") * 1000.0, "us"};

  const double fired = count(std_chase, "chase.triggers_fired");
  const double enumerated = count(std_chase, "chase.triggers_enumerated");
  m["chase.ms"] = {ms("chase"), "ms"};
  m["chase.triggers_fired"] = {fired / ops, "count"};
  m["chase.triggers_enumerated"] = {enumerated / ops, "count"};
  m["chase.fired_per_enumerated"] = {ratio(fired, enumerated), "ratio"};
  m["chase.rounds"] = {count(std_chase, "chase.rounds") / ops, "count"};
  m["match.steps"] = {count(std_chase, "match.steps") / ops, "count"};
  m["match.candidates"] = {count(std_chase, "match.candidates") / ops,
                           "count"};
  m["compile.laconic_ms"] = {ms("compile"), "ms"};

  const double attempts = count(all, "core.retraction_attempts");
  const double folds = count(all, "core.successful_folds");
  m["core.ms"] = {ms("core"), "ms"};
  m["core.retraction_attempts"] = {attempts / ops, "count"};
  m["core.successful_folds"] = {folds / ops, "count"};
  m["core.folds_per_attempt"] = {ratio(folds, attempts), "ratio"};
  m["core.blocks"] = {count(all, "core.blocks") / ops, "count"};
  m["hom.ms"] = {ms("hom"), "ms"};
  m["hom.searches"] = {count(all, "hom.searches") / ops, "count"};
  m["hom.steps"] = {count(all, "hom.steps") / ops, "count"};
  m["hom.backtracks"] = {count(all, "hom.backtracks") / ops, "count"};
  m["instance.canonical_ms"] = {ms("canonical"), "ms"};
  m["instance.release_ms"] = {ms("release") + ms("release.input"), "ms"};

  const double dsteps = count({"dchase"}, "dchase.steps");
  const double expanded = count({"dchase"}, "dchase.branches_expanded");
  m["dchase.ms"] = {ms("dchase"), "ms"};
  m["dchase.steps"] = {dsteps / ops, "count"};
  m["dchase.branches_expanded"] = {expanded / ops, "count"};
  m["dchase.deduped_per_expanded"] = {
      ratio(count({"dchase"}, "dchase.branches_deduped"), expanded), "ratio"};
  m["dchase.match_steps_per_step"] = {
      ratio(count({"dchase"}, "match.steps"), dsteps), "ratio"};
  m["query.eval_ms"] = {ms("query"), "ms"};

  std::vector<double> all_real;
  for (const std::vector<double>& s : real_ms_) {
    all_real.insert(all_real.end(), s.begin(), s.end());
  }
  m["request.p99_ms"] = {Percentile(all_real, 0.99), "ms"};
  for (const char* kind : kAllKinds) {
    std::vector<double> samples;
    for (std::size_t i = 0; i < w_.ops.size(); ++i) {
      if (w_.ops[i].kind == kind) {
        samples.insert(samples.end(), real_ms_[i].begin(), real_ms_[i].end());
      }
    }
    m[StrCat("request.", kind, "_ms")] = {Median(samples), "ms"};
  }

  // Coverage is checked on the in-process replay, as the median over ops
  // so that one host stall during either half of a pair does not move it.
  // Over the socket the daemon's own engine time is only visible as the
  // serve.request_us total, reported as serve.request_ms.
  const double coverage = Median(coverage_);
  m["trace.coverage"] = {coverage, "ratio"};
  m["trace.overhead_pct"] = {Median(overhead_) * 100, "%"};
  if (coverage < kCoverageMin || coverage > kCoverageMax) {
    Fail(StrCat("trace.coverage ", coverage, " outside [", kCoverageMin, ", ",
                kCoverageMax, "]"));
  }
  Print(m);
}

int Run::Main() {
  if (Status s = SetUp(); !s.ok()) {
    std::fprintf(stderr, "rdx_e2e: set-up: %s\n", s.ToString().c_str());
    return 1;
  }
  VerifyReferences();
  Status measured = Status::OK();
  if (w_.daemon) {
    real_ms_.assign(w_.ops.size(), {});
    measured = SpawnDaemons();
    if (measured.ok()) {
      const double seconds = static_cast<double>(args_.seconds);
      measured = MeasureSocket(seconds, /*traced=*/args_.trace == 1);
    }
  } else if (args_.trace) {
    real_ms_.assign(w_.ops.size(), {});
    for (const char* layer : kLayers) {
      layer_ms_[layer].assign(w_.ops.size(), {});
    }
    measured = TraceInProcess(static_cast<double>(args_.seconds));
  } else {
    measured = MeasureInProcess();
  }
  if (!measured.ok()) {
    std::fprintf(stderr, "rdx_e2e: %s\n", measured.ToString().c_str());
    return 1;
  }
  if (args_.trace) {
    const std::string spans =
        StrCat(args_.work_dir, "/spans-", w_.name, ".jsonl");
    if (Status s = tracer_.WriteJsonl(spans); !s.ok()) Fail(s.ToString());
    EmitPerLayer();
  } else {
    EmitEndToEnd();
  }
  if (correct_) {
    std::error_code ec;
    std::filesystem::remove_all(run_dir_, ec);
  }
  return correct_ ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--setup-probe") == 0) {
    return e2e::SetUpProbe(argv[2]);
  }
  signal(SIGPIPE, SIG_IGN);
  e2e::Args args;
  if (!e2e::ParseArgs(argc, argv, &args)) return e2e::Usage("bad arguments");
  rdx::Result<e2e::Workload> workload =
      e2e::MakeWorkload(args.workload, args.seed, args.scale);
  if (!workload.ok()) return e2e::Usage(workload.status().ToString().c_str());
  e2e::Run run(std::move(args), std::move(*workload));
  return run.Main();
}
