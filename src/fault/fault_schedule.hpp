// Deterministic, seedable fault schedules for the multi-process engine.
//
// A schedule is a semicolon-separated list of fault events parsed from
// PcOptions::fault_schedule or FASTBNS_FAULT_SCHEDULE. Each event names a
// kind, a target rank (or any), the depth it arms at, the rank generation
// it applies to (0 = the initially forked rank, g = the g-th respawn — so
// a schedule can kill a respawned rank mid-replay), and a millisecond
// parameter for the delay kinds:
//
//   schedule := entry (';' entry)*
//   entry    := kind ('@' kv (',' kv)*)?  |  'seed=' N
//   kind     := kill | wedge | slow-rank | delay-frame | corrupt-frame
//             | truncate-frame | spawn-fail | drop-conn | partial-write
//   kv       := rank=N | depth=N | gen=N | ms=N
//
// Two consumers split the kinds: the forked rank's main loop executes
// kill (exit without replying), wedge (stop responding until the
// supervisor's per-frame deadline kills it), slow-rank (sleep ms before
// every reply from `depth` on), drop-conn (sever the channel — close the
// fds with the process still alive, a lost connection where the kernel
// reports EOF but waitpid says "still running"), and the frame faults
// (delay-frame, corrupt-frame, truncate-frame, partial-write — applied
// to the outgoing result frame, where the checksummed retrying frame
// protocol must recover; partial-write sends a frame prefix and then
// severs the channel, the shape of a writer that crashes mid-frame);
// the supervisor executes spawn-fail (a
// fork/respawn that is declared to have failed — the deterministic
// trigger of the degrade rung, which runs edge-parallel in-process). All
// randomness (which payload byte a corrupt-frame flips) derives from the
// schedule's seed plus the event coordinates, so every injected fault —
// and therefore every recovery path — replays bit-identically.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fastbns {

enum class FaultKind : std::uint8_t {
  /// _exit(42) without replying when a depth >= the event's arms.
  kKill,
  /// Stop responding (sleep) instead of replying; only the supervisor's
  /// per-frame deadline + SIGKILL can clear it.
  kWedge,
  /// Sleep `ms` before every reply from the event's depth on — a
  /// persistently slow rank that must NOT trigger recovery as long as it
  /// stays inside the frame deadline.
  kSlowRank,
  /// Sleep `ms` mid-frame (between header and payload) once, on the
  /// reply of the first depth >= the event's — exercises the per-frame
  /// deadline's tolerance and, past it, the retransmit path.
  kDelayFrame,
  /// Flip one seed-derived payload byte after the checksum is computed,
  /// once — the receiver's CRC must catch it and the retransmit must
  /// deliver the clean frame.
  kCorruptFrame,
  /// Write only a prefix of the frame and stay alive, once — the
  /// receiver's deadline expires mid-frame and its resync scan must find
  /// the retransmitted frame behind the garbage.
  kTruncateFrame,
  /// Declare the fork of this rank (gen > 0: its gen-th respawn;
  /// rank=-1, gen=0: the initial whole-group spawn) to have failed —
  /// the supervisor must degrade to the in-process edge-parallel engine.
  kSpawnFail,
  /// Sever the channel without replying when a depth >= the event's
  /// arms: close both channel fds (EOF at the supervisor) while the
  /// process parks alive — a lost connection: the channel dies before
  /// the process does. The supervisor's EOF handling must run the
  /// respawn ladder exactly as for a kill.
  kDropConn,
  /// Write only a prefix of the reply frame and then sever the channel,
  /// once — a peer crashing mid-write. The receiver sees a
  /// partial frame ending in EOF (kEof, not kTimeout) and must respawn +
  /// replay.
  kPartialWrite,
};

[[nodiscard]] std::string_view to_string(FaultKind kind) noexcept;
/// Throws std::invalid_argument naming the offending text.
[[nodiscard]] FaultKind fault_kind_from_string(std::string_view text);

struct FaultEvent {
  FaultKind kind = FaultKind::kKill;
  /// Target rank; -1 matches every rank.
  std::int32_t rank = -1;
  /// The event arms at this depth (fires at the first depth >= it).
  std::int32_t depth = 0;
  /// Rank generation the event applies to: 0 = the initially forked
  /// process, g = the rank's g-th respawn.
  std::int32_t generation = 0;
  /// Milliseconds for kSlowRank / kDelayFrame.
  std::int32_t ms = 20;

  [[nodiscard]] std::string describe() const;
};

struct FaultSchedule {
  std::vector<FaultEvent> events;
  /// Folded into every derived choice (e.g. which byte a corrupt-frame
  /// flips) so distinct seeds explore distinct corruptions, each
  /// reproducibly.
  std::uint64_t seed = 0;

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
  [[nodiscard]] std::string describe() const;

  /// Parses the grammar above. Throws std::invalid_argument naming the
  /// offending entry (never a silently ignored fault — a typo in a CI
  /// fault sweep must fail the sweep, not skip the injection).
  [[nodiscard]] static FaultSchedule parse(std::string_view text);

  /// FASTBNS_FAULT_SCHEDULE. Environment parse errors are ignored (with a
  /// warning on stderr) — an env-injected schedule must never turn a
  /// production run into a crash; PcOptions::fault_schedule is the
  /// validated path.
  [[nodiscard]] static FaultSchedule from_env();

  /// True when any event declares the fork of `rank` at `generation`
  /// failed (kSpawnFail; rank -1 in the event or as the query matches
  /// whole-group spawns).
  [[nodiscard]] bool spawn_should_fail(std::int32_t rank,
                                       std::int32_t generation) const noexcept;
};

/// The rank-side consumer: filters the schedule down to one rank and
/// tracks which one-shot events already fired inside this process
/// generation. Lives in the forked rank; a respawned rank starts a fresh
/// injector at its new generation.
class RankFaultInjector {
 public:
  RankFaultInjector(FaultSchedule schedule, std::int32_t rank)
      : schedule_(std::move(schedule)),
        fired_(schedule_.events.size(), false),
        rank_(rank) {}

  /// The generation this process believes it is (set from the replay
  /// command on respawned ranks; 0 on the initial fork).
  void set_generation(std::int32_t generation) noexcept {
    generation_ = generation;
  }
  [[nodiscard]] std::int32_t generation() const noexcept { return generation_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return schedule_.seed; }

  /// The first armed kill/wedge/drop-conn event for `depth`, or nullptr.
  /// The caller executes it (these do not return control, so no fired
  /// bookkeeping is needed).
  [[nodiscard]] const FaultEvent* lethal_fault(std::int32_t depth) const;

  /// Claims the first unfired frame fault (delay/corrupt/truncate/
  /// partial-write) armed at `depth`, marking it fired; nullptr when
  /// none. One-shot: the retransmitted frame after a caught corruption
  /// goes out clean. (partial-write does not return control either — the
  /// rank severs its channel after the prefix — but it rides the frame-
  /// fault channel because it fires on a specific outgoing reply.)
  [[nodiscard]] const FaultEvent* take_frame_fault(std::int32_t depth);

  /// Total slow-rank sleep for a reply at `depth` (0 when none apply).
  [[nodiscard]] std::int32_t slow_rank_ms(std::int32_t depth) const;

 private:
  [[nodiscard]] bool matches(const FaultEvent& event,
                             std::int32_t depth) const noexcept;

  FaultSchedule schedule_;
  std::vector<bool> fired_;
  std::int32_t rank_ = 0;
  std::int32_t generation_ = 0;
};

/// Writes one frame to `fd` while applying `event` (nullptr = clean
/// write, exactly write_frame). The corrupted byte is derived from
/// (seed, rank, depth) so the same schedule corrupts the same byte every
/// run. Returns false on write errors; a truncate-frame "succeeds" after
/// its deliberate partial write (the writer stays alive — that is the
/// fault being modeled).
bool send_frame_with_fault(int fd, std::uint32_t tag,
                           std::span<const std::uint8_t> payload,
                           const FaultEvent* event, std::uint64_t seed,
                           std::int32_t rank, std::int32_t depth);

}  // namespace fastbns
