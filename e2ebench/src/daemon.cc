// rdx_serve lifecycle and a blocking frame-protocol client.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "base/strings.h"
#include "e2e.h"

namespace e2e {

using rdx::Result;
using rdx::Status;
using rdx::StrCat;
namespace serve = rdx::serve;

namespace {

// How long a freshly spawned daemon may take to answer its first request.
constexpr int kReadyTimeoutMs = 30'000;

double StatusField(pid_t pid, const char* field) {
  std::ifstream in(StrCat("/proc/", pid, "/status"));
  std::string line;
  const std::string key = StrCat(field, ":");
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream fields(line.substr(key.size()));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb(pid_t pid) { return StatusField(pid, "VmHWM"); }
double CurrentRssMb(pid_t pid) { return StatusField(pid, "VmRSS"); }

uint64_t StatszCounter(std::string_view statsz, std::string_view name) {
  std::size_t pos = 0;
  while (pos < statsz.size()) {
    std::size_t end = statsz.find('\n', pos);
    if (end == std::string_view::npos) end = statsz.size();
    std::string_view line = statsz.substr(pos, end - pos);
    if (line.substr(0, name.size()) == name && line.size() > name.size() &&
        line[name.size()] == ' ') {
      uint64_t value = 0;
      rdx::ParseUint64(line.substr(line.find_last_of(' ') + 1), &value);
      return value;
    }
    pos = end + 1;
  }
  return 0;
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
}

Status Daemon::Start(const std::string& binary, const std::string& catalog,
                     const std::string& socket_path,
                     const std::string& log_path) {
  const std::string budget = StrCat(kAdmitBudget);
  const pid_t pid = fork();
  if (pid < 0) return Status::Internal(StrCat("fork: ", std::strerror(errno)));
  if (pid == 0) {
    // Dies with the benchmark even if the benchmark itself is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      dup2(log, STDOUT_FILENO);
      dup2(log, STDERR_FILENO);
      close(log);
    }
    execl(binary.c_str(), binary.c_str(), "serve", "--socket",
          socket_path.c_str(), "--catalog", catalog.c_str(), "--threads", "1",
          "--admit-budget", budget.c_str(), "--precompile",
          static_cast<char*>(nullptr));
    _exit(127);
  }
  pid_ = pid;

  // Readiness: poll connect (the socket is bound only after the catalog
  // is loaded and every plan compiled), then one statsz round trip.
  const Clock::time_point start = Clock::now();
  while (true) {
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return Status::Internal(StrCat("rdx_serve exited during start-up; see ",
                                     log_path));
    }
    Client probe;
    if (probe.Connect(socket_path).ok()) {
      serve::Request statsz;
      statsz.command = serve::Command::kStatsz;
      RDX_ASSIGN_OR_RETURN(serve::Reply reply, probe.Call(statsz));
      if (reply.status != serve::ReplyStatus::kOk) {
        return Status::Internal("statsz probe failed");
      }
      return Status::OK();
    }
    if (MillisSince(start) > kReadyTimeoutMs) {
      return Status::Internal("rdx_serve did not become ready");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

Status Daemon::Stop(int drain_ms, double* drained_ms) {
  if (pid_ <= 0) return Status::Internal("daemon not running");
  const Clock::time_point start = Clock::now();
  kill(pid_, SIGTERM);
  int status = 0;
  while (true) {
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (MillisSince(start) > drain_ms) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
      pid_ = -1;
      return Status::Internal(
          StrCat("rdx_serve did not drain within ", drain_ms, " ms"));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  *drained_ms = MillisSince(start);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal(StrCat("rdx_serve exit status ", status));
  }
  return Status::OK();
}

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
}

Status Client::Connect(const std::string& socket_path) {
  Close();
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long");
  }
  std::memcpy(addr.sun_path, socket_path.data(), socket_path.size());
  fd_ = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Status::Internal(StrCat("socket: ", std::strerror(errno)));
  if (connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Close();
    return Status::Internal(StrCat("connect: ", std::strerror(errno)));
  }
  return Status::OK();
}

Result<serve::Reply> Client::Call(const serve::Request& request) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  // WriteFrame sends the header and body as one buffer and retries short
  // writes, so the daemon never holds a partial frame from this client.
  RDX_RETURN_IF_ERROR(serve::WriteFrame(fd_, serve::EncodeRequest(request)));
  bool eof = false;
  RDX_ASSIGN_OR_RETURN(std::string body, serve::ReadFrame(fd_, &eof));
  if (eof) return Status::Internal("daemon closed the connection");
  return serve::DecodeReply(body);
}

}  // namespace e2e
