#include "ipc/process_group.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <mutex>
#include <thread>
#include <utility>

namespace fastbns {
namespace {

/// Writing to a rank that already died must surface as EPIPE on the
/// write, not as a process-killing SIGPIPE. Installed once, before the
/// first fork, so ranks inherit it too (they write to the parent's pipe
/// and the parent can die first in teardown races).
void ignore_sigpipe_once() {
  static std::once_flag flag;
  std::call_once(flag, [] { ::signal(SIGPIPE, SIG_IGN); });
}

void close_fd(int& fd) noexcept {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// Non-throwing waitpid status probe: "exited with status 3", "killed by
/// signal 9", or "still running" — the forensic detail a RankDeathError
/// carries so a dead rank is diagnosable from the message alone.
///
/// `grace_ms` keeps re-probing for that long before settling on "still
/// running". Callers that just saw the rank's pipe close (EOF, EPIPE)
/// pass a small grace: the kernel closes a dying process's fds — which
/// is what delivers the EOF — before the process becomes a
/// waitpid-visible zombie, so the EOF can win that race by a beat.
/// Without the grace the message would misreport a cleanly dead rank as
/// wedged. Timeout paths pass 0: there the rank really may be alive,
/// and stalling the recovery ladder to re-ask would cost latency for no
/// information.
std::string describe_waitpid(pid_t pid, int grace_ms = 0) noexcept {
  for (;;) {
    int status = 0;
    const pid_t reaped = ::waitpid(pid, &status, WNOHANG);
    if (reaped == pid) {
      if (WIFEXITED(status)) {
        return "exited with status " + std::to_string(WEXITSTATUS(status));
      }
      if (WIFSIGNALED(status)) {
        return "killed by signal " + std::to_string(WTERMSIG(status));
      }
      return "terminated";
    }
    if (reaped != 0) return "already reaped";
    if (grace_ms <= 0) return "still running (wedged or slow)";
    const int slice_ms = grace_ms < 2 ? grace_ms : 2;
    ::usleep(static_cast<useconds_t>(slice_ms) * 1000);
    grace_ms -= slice_ms;
  }
}

/// The grace for channel-closed forensics (see describe_waitpid).
constexpr int kEofForensicsGraceMs = 500;

}  // namespace

ProcessGroup::~ProcessGroup() { shutdown(); }

ProcessGroup::ProcessGroup(ProcessGroup&& other) noexcept
    : ranks_(std::move(other.ranks_)) {
  other.ranks_.clear();
}

ProcessGroup& ProcessGroup::operator=(ProcessGroup&& other) noexcept {
  if (this != &other) {
    shutdown();
    ranks_ = std::move(other.ranks_);
    other.ranks_.clear();
  }
  return *this;
}

ProcessGroup ProcessGroup::spawn(int rank_count, const RankMain& rank_main) {
  if (rank_count < 1) {
    throw std::runtime_error("ProcessGroup::spawn: rank_count must be >= 1, got " +
                             std::to_string(rank_count));
  }
  ignore_sigpipe_once();
  ProcessGroup group;
  group.ranks_.resize(static_cast<std::size_t>(rank_count));
  for (int rank = 0; rank < rank_count; ++rank) {
    try {
      group.fork_into_slot(rank, rank_main);
    } catch (...) {
      group.shutdown();
      throw;
    }
  }
  return group;
}

void ProcessGroup::close_rank_fds(Rank& slot) noexcept {
  close_fd(slot.command_fd);
  close_fd(slot.result_fd);
}

void ProcessGroup::fork_into_slot(int rank, const RankMain& rank_main) {
  Rank& slot = ranks_.at(static_cast<std::size_t>(rank));
  int command[2] = {-1, -1};  // parent writes [1], rank reads [0]
  int result[2] = {-1, -1};   // rank writes [1], parent reads [0]
  if (::pipe(command) != 0) {
    throw std::runtime_error("ProcessGroup: pipe() failed for rank " +
                             std::to_string(rank) + "'s command channel");
  }
  if (::pipe(result) != 0) {
    close_fd(command[0]);
    close_fd(command[1]);
    throw std::runtime_error("ProcessGroup: pipe() failed for rank " +
                             std::to_string(rank) + "'s result channel");
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (int* fd : {&command[0], &command[1], &result[0], &result[1]}) {
      close_fd(*fd);
    }
    throw std::runtime_error("ProcessGroup: fork() failed for rank " +
                             std::to_string(rank));
  }
  if (pid == 0) {
    // Rank side. Drop every fd that belongs to the parent or to the
    // sibling ranks alive at fork time: a rank holding a sibling's
    // command write-end would keep that sibling alive past the parent's
    // EOF-based shutdown. (Respawned ranks inherit every current
    // sibling's fds, so the loop covers the whole table, skipping the
    // closed slots.) Then drop the parent's ends of this rank's pipes.
    for (Rank& sibling : ranks_) {
      close_rank_fds(sibling);
    }
    close_fd(command[1]);
    close_fd(result[0]);
    int status = 1;
    try {
      status = rank_main(rank, command[0], result[1]);
    } catch (...) {
      status = 1;
    }
    // _exit, not exit: the rank shares the parent's atexit stack,
    // gtest state and sanitizer hooks, none of which may run twice.
    ::_exit(status);
  }
  close_fd(command[0]);
  close_fd(result[1]);
  slot = {pid, command[1], result[0]};
}

void ProcessGroup::respawn(int rank, const RankMain& rank_main) {
  ignore_sigpipe_once();
  kill_rank(rank);  // idempotent on a dead slot; frees channels + reaps
  fork_into_slot(rank, rank_main);
}

void ProcessGroup::kill_rank(int rank) noexcept {
  if (rank < 0 || static_cast<std::size_t>(rank) >= ranks_.size()) return;
  Rank& slot = ranks_[static_cast<std::size_t>(rank)];
  close_rank_fds(slot);
  if (slot.pid >= 0) {
    // SIGKILL then a blocking reap: after a SIGKILL the reap cannot
    // hang, and on a rank that already exited the kill is a no-op while
    // the reap still collects the zombie.
    ::kill(slot.pid, SIGKILL);
    ::waitpid(slot.pid, nullptr, 0);
    slot.pid = -1;
  }
}

bool ProcessGroup::rank_open(int rank) const noexcept {
  if (rank < 0 || static_cast<std::size_t>(rank) >= ranks_.size()) return false;
  const Rank& slot = ranks_[static_cast<std::size_t>(rank)];
  return slot.command_fd >= 0 && slot.result_fd >= 0;
}

bool ProcessGroup::try_send(int rank, std::uint32_t tag,
                            std::span<const std::uint8_t> payload) noexcept {
  if (!rank_open(rank)) return false;
  return write_frame(ranks_[static_cast<std::size_t>(rank)].command_fd, tag,
                     payload);
}

FrameReadStatus ProcessGroup::try_receive(
    int rank, Frame& out, int timeout_ms,
    std::span<const std::uint32_t> allowed_tags) {
  if (!rank_open(rank)) return FrameReadStatus::kEof;
  return read_frame(ranks_[static_cast<std::size_t>(rank)].result_fd, out,
                    timeout_ms, allowed_tags);
}

std::string ProcessGroup::describe_rank(int rank) const noexcept {
  if (rank < 0 || static_cast<std::size_t>(rank) >= ranks_.size()) {
    return "no such rank";
  }
  const Rank& slot = ranks_[static_cast<std::size_t>(rank)];
  if (slot.pid < 0) return "already reaped";
  return describe_waitpid(slot.pid);
}

void ProcessGroup::send(int rank, std::uint32_t tag,
                        std::span<const std::uint8_t> payload) {
  Rank& target = ranks_.at(static_cast<std::size_t>(rank));
  if (!write_frame(target.command_fd, tag, payload)) {
    fail_rank(rank, "its command pipe broke mid-send — the rank " +
                        describe_waitpid(target.pid, kEofForensicsGraceMs));
  }
}

Frame ProcessGroup::receive(int rank, int timeout_ms) {
  Rank& source = ranks_.at(static_cast<std::size_t>(rank));
  Frame frame;
  switch (read_frame(source.result_fd, frame, timeout_ms)) {
    case FrameReadStatus::kOk:
      return frame;
    case FrameReadStatus::kEof:
      fail_rank(rank, "its result pipe closed before a reply — the rank " +
                          describe_waitpid(source.pid, kEofForensicsGraceMs));
    case FrameReadStatus::kTimeout:
      fail_rank(rank, "it sent no reply within " + std::to_string(timeout_ms) +
                          " ms — the rank " + describe_waitpid(source.pid));
    case FrameReadStatus::kCorrupt:
      fail_rank(rank, "its reply failed the frame checksum");
    case FrameReadStatus::kBadTag:
      fail_rank(rank, "its reply carried a disallowed tag " +
                          std::to_string(frame.tag));
  }
  // Unreachable; fail_rank never returns.
  throw RankDeathError(rank, "ProcessGroup::receive: unreachable");
}

void ProcessGroup::fail_rank(int rank, const std::string& reason) {
  const std::string message =
      "ProcessGroup: rank " + std::to_string(rank) + " failed: " + reason;
  // One dead rank dooms the allreduce; tear the whole group down so the
  // error propagates from a clean state (no half-alive ranks holding
  // shared segments).
  shutdown();
  throw RankDeathError(rank, message);
}

void ProcessGroup::shutdown(int timeout_ms) noexcept {
  if (ranks_.empty()) return;
  // Phase 1: EOF every command channel — a healthy rank's read loop ends
  // and it _exit(0)s on its own.
  for (Rank& rank : ranks_) {
    close_rank_fds(rank);
  }
  // Phase 2: reap with a deadline.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  bool all_reaped = false;
  while (!all_reaped && std::chrono::steady_clock::now() < deadline) {
    all_reaped = true;
    for (Rank& rank : ranks_) {
      if (rank.pid < 0) continue;
      const pid_t reaped = ::waitpid(rank.pid, nullptr, WNOHANG);
      if (reaped == rank.pid || (reaped < 0 && errno == ECHILD)) {
        rank.pid = -1;
      } else {
        all_reaped = false;
      }
    }
    if (!all_reaped) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Phase 3: whatever ignored the EOF gets SIGKILL; the blocking reap
  // after a SIGKILL cannot hang.
  for (Rank& rank : ranks_) {
    if (rank.pid < 0) continue;
    ::kill(rank.pid, SIGKILL);
    ::waitpid(rank.pid, nullptr, 0);
    rank.pid = -1;
  }
  ranks_.clear();
}

}  // namespace fastbns
