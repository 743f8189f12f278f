// The multi-process rank-partition engine: a contiguous variable
// partition, one process per part, and an explicit allreduce for the
// commit barrier — the fork-based first step of the roadmap's distributed
// (MPI-style) skeleton learning.
//
// Topology of a run:
//  - The driver process (this engine) forks rank_count worker ranks at
//    the first run_depth (never at construction — the registry probes a
//    factory instance, which must stay fork-free). Each rank inherits
//    the CiTest prototype copy-on-write and the dataset through the
//    MAP_SHARED segment learn_structure mounts (ipc/shared_dataset.hpp):
//    mapped once, zero copies per rank.
//  - Every rank keeps a full replica of the skeleton graph and derives
//    each depth's work list itself with the same build_depth_works the
//    driver uses — identical inputs give identical lists, so a work is
//    addressed across the process boundary by nothing more than its
//    index (endpoint ids double-check every reply; a divergent replica
//    is a protocol error, not silent corruption). Of that list a rank
//    executes its shard of edges (VariableShards / shard_work_indices —
//    ranks *are* shards of contiguous variable ranges) plus whatever
//    explicit indices its command names (re-partitioned work inherited
//    from retired ranks).
//  - The per-depth commit barrier is an allreduce rooted at the driver:
//    RUN_DEPTH(depth, previous depth's union removal set) goes out to
//    every rank; each rank applies the removals to its replica, runs its
//    works, and replies with its removal set + sepsets + test count; the
//    driver merges the replies into the works vector (the same outcome
//    slots every engine fills) and carries the union forward to the next
//    broadcast.
//
// Fault tolerance (the supervisor's recovery ladder, mildest rung
// first; every rung preserves result identity):
//  1. Retransmit — a reply that fails its CRC or its per-frame deadline
//     is re-requested up to frame_retry_limit times with linear backoff;
//     ranks buffer their last encoded reply and resend it verbatim, and
//     per-command sequence numbers make duplicate replies (a late
//     original racing its own retransmission) harmlessly discardable.
//  2. Respawn + replay — a rank that died (EOF) or wedged (deadline,
//     retries exhausted — then SIGKILLed) is forked again and rebuilds
//     its graph replica by replaying the committed removal log (the
//     DepthCheckpoint batches the supervisor accumulates as a byproduct
//     of broadcasting), then re-runs its works for the depth as an
//     explicit index list. Each respawn is a new generation; the fault
//     injector matches events per generation, so a gen-0 kill does not
//     re-fire on the replacement (and a gen-1 event deliberately does —
//     the death-during-recovery test).
//  3. Re-partition — once a rank's max_rank_restarts budget is spent it
//     is retired and its works are dealt round-robin onto the surviving
//     ranks as explicit RUN_DEPTH commands; later depths fold the
//     retired rank's shard into the survivors' assignments the same way.
//  4. Degrade — when fork itself fails (initial spawn or a respawn) or
//     no rank survives, the supervisor finishes the current depth's
//     unmerged works in-process (std::thread clones with the exact rank
//     semantics) and hands every subsequent depth to the in-process
//     edge-parallel engine, whose per-work semantics are the ranks'. The
//     run completes; only where the works ran changed.
//
// Result identity: a rank runs each of its works whole, in canonical
// rank order with first-accept early stop — the edge-parallel engine's
// per-work semantics — so adjacency, sepsets, removal depths and
// executed-test counts are bit-identical to the sequential reference at
// any rank_count / rank_threads combination, under every recovery rung:
// a failed rank never contributes a partial reply (frames are atomic at
// merge time), so each work is merged exactly once no matter who
// eventually ran it.
//
// fork() discipline (see also ipc/process_group.hpp): ranks never enter
// an OpenMP parallel region — libgomp's team threads do not exist in the
// child — so rank_threads parallelism is plain std::thread over
// per-thread CiTest clones forced to serial table builds; ranks leave
// through _exit, never the parent's atexit/gtest/sanitizer epilogue.
#include "engine/process_engine.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/omp_utils.hpp"
#include "common/timer.hpp"
#include "engine/engines.hpp"
#include "fault/fault_schedule.hpp"
#include "ipc/process_group.hpp"
#include "ipc/wire.hpp"

namespace fastbns {
namespace {

// Protocol tags. Commands flow parent→rank, replies rank→parent;
// shutdown is the command pipe's EOF. Both directions validate the tag
// set on receive (read_frame's allowed_tags) — an unknown tag is a loud
// protocol error naming rank and tag, never a misparsed payload.
constexpr std::uint32_t kTagRunDepth = 1;    ///< parent → rank
constexpr std::uint32_t kTagDepthResult = 2; ///< rank → parent
constexpr std::uint32_t kTagError = 3;       ///< rank → parent (fatal)
constexpr std::uint32_t kTagReplay = 4;      ///< parent → respawned rank
constexpr std::uint32_t kTagRetransmit = 5;  ///< parent → rank (resend)

constexpr int kDefaultRankTimeoutMs = 120000;
/// Stale replies (duplicates of already-merged frames left over from a
/// retransmit race) tolerated per gather before the rank is declared
/// failed: a sane rank can queue at most retry-limit duplicates.
constexpr int kMaxStaleReplies = 32;

/// Strictly-parsed positive int from the environment; `fallback` when
/// unset or malformed (a malformed timeout must not become timeout 0).
int env_positive_int(const char* name, int fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == nullptr || *end != '\0' || value <= 0 || value > 1 << 30) {
    return fallback;
  }
  return static_cast<int>(value);
}

/// Everything a rank needs beyond the COW-inherited prototype, fixed at
/// spawn time in the parent (ranks parse nothing themselves).
struct RankConfig {
  int rank = 0;
  VarId num_vars = 0;
  std::int32_t rank_count = 1;
  std::int32_t rank_threads = 1;
  /// The run's deterministic fault schedule; the rank filters it down to
  /// itself through a RankFaultInjector (fault/fault_schedule.hpp).
  FaultSchedule schedule;
};

/// The command payload of one depth. `explicit_only` distinguishes the
/// normal broadcast (the rank runs its own shard plus the listed extra
/// indices) from recovery commands (the rank runs exactly the listed
/// indices — respawn re-issues and re-partitioned work).
void encode_run_depth(WireWriter& writer, std::int32_t depth,
                      std::uint32_t seq, bool grouped, bool explicit_only,
                      std::span<const DepthCheckpoint::Removal> removals,
                      std::span<const std::int64_t> indices) {
  writer.put_i32(depth);
  writer.put_u32(seq);
  writer.put_u8(grouped ? 1 : 0);
  writer.put_u8(explicit_only ? 1 : 0);
  writer.put_u32(static_cast<std::uint32_t>(removals.size()));
  for (const DepthCheckpoint::Removal& removal : removals) {
    writer.put_i32(removal.x);
    writer.put_i32(removal.y);
  }
  writer.put_u32(static_cast<std::uint32_t>(indices.size()));
  for (const std::int64_t index : indices) {
    writer.put_u64(static_cast<std::uint64_t>(index));
  }
}

/// Runs one rank's shard of a depth with `threads` std::threads (the
/// calling thread serves stride 0). Works are disjoint across threads,
/// so no synchronization beyond the joins. Rethrows the first worker
/// exception after all joins. Also the degrade rung's local executor —
/// the semantics must stay byte-for-byte those of a rank.
std::int64_t run_shard_works(std::vector<EdgeWork>& works,
                             const std::vector<std::int64_t>& mine,
                             std::int32_t depth,
                             std::vector<std::unique_ptr<CiTest>>& clones) {
  const auto threads = clones.size();
  std::vector<std::int64_t> tests(threads, 0);
  std::vector<std::exception_ptr> errors(threads);
  const auto worker = [&](std::size_t t) {
    try {
      CiTest& test = *clones[t];
      for (std::size_t p = t; p < mine.size(); p += threads) {
        EdgeWork& work = works[static_cast<std::size_t>(mine[p])];
        if (work.total_tests() == 0) continue;
        tests[t] += process_work_tests_early_stop(work, depth,
                                                  work.total_tests(), test,
                                                  /*use_group_protocol=*/true);
      }
    } catch (...) {
      errors[t] = std::current_exception();
    }
  };
  std::vector<std::thread> team;
  team.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) team.emplace_back(worker, t);
  worker(0);
  for (std::thread& thread : team) thread.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  std::int64_t total = 0;
  for (const std::int64_t count : tests) total += count;
  return total;
}

/// The rank main loop (runs inside the forked process — no OpenMP, no
/// gtest, exit only through the return value / _exit).
int run_rank(const RankConfig& config, const CiTest& prototype, int command_fd,
             int result_fd) {
  try {
    RankFaultInjector injector(config.schedule, config.rank);
    UndirectedGraph replica = UndirectedGraph::complete(config.num_vars);
    const VariableShards shards(config.num_vars, config.rank_count);
    std::vector<std::unique_ptr<CiTest>> clones;
    // The last encoded reply, kept verbatim for retransmission: after a
    // corrupt or truncated frame the supervisor asks for these exact
    // bytes again instead of re-running the depth.
    std::vector<std::uint8_t> last_reply;
    Frame frame;
    for (;;) {
      static constexpr std::uint32_t kCommandTags[] = {
          kTagRunDepth, kTagReplay, kTagRetransmit};
      const FrameReadStatus status =
          read_frame(command_fd, frame, /*timeout_ms=*/-1, kCommandTags);
      if (status == FrameReadStatus::kEof) {
        return 0;  // command pipe EOF: the parent shut the group down
      }
      if (status != FrameReadStatus::kOk) {
        // kBadTag (an unknown command is a supervisor logic bug — frames
        // are checksummed) or kCorrupt: fail loudly with the
        // offending tag / status named; the parent surfaces the error.
        throw std::runtime_error(
            "process engine rank " + std::to_string(config.rank) +
            ": command channel " + std::string(to_string(status)) +
            (status == FrameReadStatus::kBadTag
                 ? " — unknown command tag " + std::to_string(frame.tag)
                 : ""));
      }
      if (frame.tag == kTagReplay) {
        // Checkpoint replay after a respawn: rebuild the replica from
        // the committed removal log. Sepsets ride along for forensics
        // but the replica only needs the edges; no reply — the explicit
        // RUN_DEPTH that follows produces the next frame.
        WireReader reader(frame.payload);
        injector.set_generation(reader.get_i32());
        const std::uint32_t batches = reader.get_u32();
        for (std::uint32_t b = 0; b < batches; ++b) {
          (void)reader.get_i32();  // batch depth (log metadata)
          const std::uint32_t removals = reader.get_u32();
          for (std::uint32_t i = 0; i < removals; ++i) {
            const VarId x = reader.get_i32();
            const VarId y = reader.get_i32();
            (void)reader.get_vars();  // sepset
            replica.remove_edge(x, y);
          }
        }
        continue;
      }
      if (frame.tag == kTagRetransmit) {
        if (last_reply.empty()) {
          throw std::runtime_error(
              "process engine rank " + std::to_string(config.rank) +
              ": asked to retransmit before any reply was sent");
        }
        if (!write_frame_bytes(result_fd, last_reply)) {
          return 1;  // parent is gone; nothing left to report to
        }
        continue;
      }
      // kTagRunDepth.
      WireReader reader(frame.payload);
      const std::int32_t depth = reader.get_i32();
      const std::uint32_t seq = reader.get_u32();
      const bool grouped = reader.get_u8() != 0;
      const bool explicit_only = reader.get_u8() != 0;
      // The previous depth's union removal set — every rank's replica
      // replays the same removal stream the driver committed, so every
      // replica agrees with the driver's graph by induction. (Recovery
      // commands carry zero removals: a respawned replica was already
      // rebuilt through the replay frame, this depth's batch included.)
      const std::uint32_t removals = reader.get_u32();
      for (std::uint32_t i = 0; i < removals; ++i) {
        const VarId x = reader.get_i32();
        const VarId y = reader.get_i32();
        replica.remove_edge(x, y);
      }
      std::vector<std::int64_t> listed(reader.get_u32());
      for (std::int64_t& index : listed) {
        index = static_cast<std::int64_t>(reader.get_u64());
      }
      if (const FaultEvent* lethal = injector.lethal_fault(depth)) {
        if (lethal->kind == FaultKind::kKill) {
          ::_exit(42);  // injected mid-depth death; the parent must notice
        }
        if (lethal->kind == FaultKind::kDropConn) {
          // Sever the channel with the process still alive: the
          // supervisor sees EOF on the result pipe while waitpid still
          // says "running" — a dropped connection rather than a death —
          // and must run the same respawn ladder a death triggers. Park
          // (capped, like wedge) so an orphan cannot outlive a crashed
          // parent forever.
          ::close(result_fd);
          ::close(command_fd);
          for (int i = 0; i < 6000; ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
          }
          ::_exit(44);
        }
        // Wedge: alive but unresponsive — only the supervisor's
        // per-frame deadline and SIGKILL clear it. Capped so an orphan
        // cannot outlive a crashed parent forever.
        for (int i = 0; i < 6000; ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        ::_exit(43);
      }
      const WallTimer compute_timer;
      std::vector<EdgeWork> works = build_depth_works(replica, depth, grouped);
      std::vector<std::int64_t> mine;
      if (explicit_only) {
        mine = std::move(listed);
      } else {
        std::vector<std::vector<std::int64_t>> by_rank =
            shard_work_indices(works, shards);
        mine = std::move(by_rank[static_cast<std::size_t>(config.rank)]);
        mine.insert(mine.end(), listed.begin(), listed.end());
      }
      for (const std::int64_t index : mine) {
        if (index < 0 || static_cast<std::size_t>(index) >= works.size()) {
          throw std::runtime_error(
              "process engine rank " + std::to_string(config.rank) +
              ": commanded work #" + std::to_string(index) +
              " is outside its depth-" + std::to_string(depth) +
              " work list (" + std::to_string(works.size()) +
              " works) — replica divergence");
        }
      }
      if (clones.empty()) {
        clones.reserve(static_cast<std::size_t>(config.rank_threads));
        for (std::int32_t t = 0; t < config.rank_threads; ++t) {
          clones.push_back(prototype.clone());
          // Serial table builds, always: sample-parallel builds are
          // OpenMP regions, and OpenMP must never run in a forked rank.
          clones.back()->set_sample_parallel(false);
        }
      }
      const std::int64_t tests = run_shard_works(works, mine, depth, clones);
      if (const std::int32_t slow = injector.slow_rank_ms(depth); slow > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(slow));
      }
      WireWriter writer;
      writer.put_i32(depth);
      writer.put_u32(seq);
      writer.put_i64(tests);
      writer.put_i64(
          static_cast<std::int64_t>(compute_timer.seconds() * 1e6));
      std::uint32_t removed = 0;
      for (const std::int64_t index : mine) {
        if (works[static_cast<std::size_t>(index)].removed) ++removed;
      }
      writer.put_u32(removed);
      for (const std::int64_t index : mine) {
        const EdgeWork& work = works[static_cast<std::size_t>(index)];
        if (!work.removed) continue;
        writer.put_u64(static_cast<std::uint64_t>(index));
        writer.put_i32(work.x);
        writer.put_i32(work.y);
        writer.put_vars(work.sepset);
      }
      last_reply = encode_frame(kTagDepthResult, writer.payload());
      const FaultEvent* frame_fault = injector.take_frame_fault(depth);
      const bool sent =
          frame_fault != nullptr
              ? send_frame_with_fault(result_fd, kTagDepthResult,
                                      writer.payload(), frame_fault,
                                      injector.seed(), config.rank, depth)
              : write_frame_bytes(result_fd, last_reply);
      if (frame_fault != nullptr &&
          frame_fault->kind == FaultKind::kPartialWrite) {
        // The prefix went out (send_frame_with_fault wrote half the
        // frame); now sever the channel — the supervisor reads a partial
        // frame ending in EOF, the shape of a writer that crashed
        // mid-frame, and must respawn + replay. Park alive, capped like
        // wedge.
        ::close(result_fd);
        ::close(command_fd);
        for (int i = 0; i < 6000; ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        ::_exit(45);
      }
      if (!sent) {
        return 1;  // parent is gone; nothing left to report to
      }
    }
  } catch (const std::exception& error) {
    WireWriter writer;
    writer.put_string(error.what());
    (void)write_frame(result_fd, kTagError, writer.payload());
    return 1;
  }
}

class ProcessEngine final : public SkeletonEngine {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "process(rank-partition)";
  }

  void prepare_run() override {
    group_.shutdown();
    spawned_ = false;
    rank_main_ = nullptr;
    state_.clear();
    current_assignment_.clear();
    checkpoint_log_.clear();
    pending_removals_.clear();
    depth_stats_.clear();
    events_.clear();
    fallback_.reset();
    local_clones_.clear();
    next_seq_ = 1;
  }

  std::int64_t run_depth(std::vector<EdgeWork>& works, std::int32_t depth,
                         const CiTest& prototype,
                         const PcOptions& options) override {
    if (fallback_ != nullptr) {
      // A previous depth degraded; the rest of the run is the in-process
      // edge-parallel engine's.
      return fallback_->run_depth(works, depth, prototype, options);
    }
    const WallTimer depth_timer;
    const std::size_t events_before = events_.size();
    if (!spawned_ && !spawn_ranks(works, depth, prototype, options)) {
      // Initial spawn failed (fork error or an injected spawn-fail):
      // the whole depth runs locally and the run degrades from here.
      return finish_depth_degraded(works, depth, prototype, options,
                                   all_indices(works), /*total_so_far=*/0,
                                   depth_timer, events_before);
    }
    const bool grouped = options.group_endpoints;

    // This depth's assignments: the parent derives the same works-index
    // shards the ranks do; retired ranks' shards are dealt round-robin
    // onto the survivors as explicit extras.
    const VariableShards shards(num_vars_, rank_count_);
    std::vector<std::vector<std::int64_t>> shard_assign =
        shard_work_indices(works, shards);
    std::vector<int> active;
    for (int rank = 0; rank < rank_count_; ++rank) {
      if (!state_[static_cast<std::size_t>(rank)].retired) {
        active.push_back(rank);
      }
    }
    if (active.empty()) {
      return finish_depth_degraded(works, depth, prototype, options,
                                   all_indices(works), /*total_so_far=*/0,
                                   depth_timer, events_before);
    }
    std::vector<std::vector<std::int64_t>> extras(
        static_cast<std::size_t>(rank_count_));
    std::size_t deal = 0;
    for (int rank = 0; rank < rank_count_; ++rank) {
      if (!state_[static_cast<std::size_t>(rank)].retired) continue;
      for (const std::int64_t index :
           shard_assign[static_cast<std::size_t>(rank)]) {
        extras[static_cast<std::size_t>(active[deal++ % active.size()])]
            .push_back(index);
      }
      shard_assign[static_cast<std::size_t>(rank)].clear();
    }
    current_assignment_.assign(static_cast<std::size_t>(rank_count_), {});
    for (const int rank : active) {
      auto& assignment = current_assignment_[static_cast<std::size_t>(rank)];
      assignment = std::move(shard_assign[static_cast<std::size_t>(rank)]);
      const auto& extra = extras[static_cast<std::size_t>(rank)];
      assignment.insert(assignment.end(), extra.begin(), extra.end());
    }

    // Commit this depth's broadcast to the checkpoint log *before*
    // sending it: a rank respawned mid-depth replays a log that already
    // includes the batch its peers just received, so the explicit
    // re-issue carries zero removals.
    checkpoint_log_.push_back({depth, pending_removals_});

    // Broadcast: this depth plus the previous depth's union removal set
    // (the downward half of the allreduce). Per-rank payloads, because
    // the re-partitioned extras differ. A rank that already died fails
    // its try_send silently here — the gather discovers the EOF and
    // runs the recovery ladder.
    std::vector<std::uint32_t> seq(static_cast<std::size_t>(rank_count_), 0);
    for (const int rank : active) {
      seq[static_cast<std::size_t>(rank)] = next_seq_++;
      WireWriter writer;
      encode_run_depth(writer, depth, seq[static_cast<std::size_t>(rank)],
                       grouped, /*explicit_only=*/false, pending_removals_,
                       extras[static_cast<std::size_t>(rank)]);
      (void)group_.try_send(rank, kTagRunDepth, writer.payload());
    }
    pending_removals_.clear();

    // Gather + merge (the upward half). Ranks own disjoint works, so
    // merge order cannot change an outcome; reading them in rank order
    // keeps the error attribution deterministic. Each rank's failure is
    // handled inside gather_rank (retransmit → respawn ladder); what
    // comes back is merged, retired-with-orphans, or a degrade verdict.
    const WallTimer gather_timer;
    std::int64_t total_tests = 0;
    double max_rank_seconds = 0.0;
    std::vector<std::int64_t> orphans;
    std::vector<char> merged(static_cast<std::size_t>(rank_count_), 0);
    bool degraded = false;
    for (std::size_t i = 0; i < active.size() && !degraded; ++i) {
      const int rank = active[i];
      switch (gather_rank(works, depth, grouped, rank,
                          seq[static_cast<std::size_t>(rank)],
                          current_assignment_[static_cast<std::size_t>(rank)],
                          total_tests, max_rank_seconds)) {
        case Gather::kMerged:
          merged[static_cast<std::size_t>(rank)] = 1;
          break;
        case Gather::kRetired: {
          auto& assignment =
              current_assignment_[static_cast<std::size_t>(rank)];
          orphans.insert(orphans.end(), assignment.begin(), assignment.end());
          assignment.clear();
          break;
        }
        case Gather::kDegraded:
          degraded = true;
          break;
      }
    }

    // Re-partition rounds: deal the orphaned works of retired ranks onto
    // the survivors as explicit commands for the *same* depth (their
    // replicas are unchanged, so the same works list resolves the
    // indices). A survivor that fails here re-enters the same ladder and
    // may re-orphan its deal; the loop converges because every round
    // either merges everything or retires at least one more rank.
    while (!degraded && !orphans.empty()) {
      std::vector<int> survivors;
      for (int rank = 0; rank < rank_count_; ++rank) {
        if (!state_[static_cast<std::size_t>(rank)].retired) {
          survivors.push_back(rank);
        }
      }
      if (survivors.empty()) {
        degraded = true;
        record_event(depth, -1, RecoveryAction::kDegrade,
                     "no rank survived the depth — finishing in-process");
        break;
      }
      std::vector<std::vector<std::int64_t>> dealt(
          static_cast<std::size_t>(rank_count_));
      for (std::size_t i = 0; i < orphans.size(); ++i) {
        dealt[static_cast<std::size_t>(survivors[i % survivors.size()])]
            .push_back(orphans[i]);
      }
      orphans.clear();
      std::vector<int> dealt_ranks;
      for (const int rank : survivors) {
        if (dealt[static_cast<std::size_t>(rank)].empty()) continue;
        dealt_ranks.push_back(rank);
        seq[static_cast<std::size_t>(rank)] = next_seq_++;
        current_assignment_[static_cast<std::size_t>(rank)] =
            dealt[static_cast<std::size_t>(rank)];
        merged[static_cast<std::size_t>(rank)] = 0;
        WireWriter writer;
        encode_run_depth(writer, depth, seq[static_cast<std::size_t>(rank)],
                         grouped, /*explicit_only=*/true, {},
                         dealt[static_cast<std::size_t>(rank)]);
        (void)group_.try_send(rank, kTagRunDepth, writer.payload());
      }
      for (const int rank : dealt_ranks) {
        if (degraded) break;
        switch (gather_rank(
            works, depth, grouped, rank, seq[static_cast<std::size_t>(rank)],
            current_assignment_[static_cast<std::size_t>(rank)], total_tests,
            max_rank_seconds)) {
          case Gather::kMerged:
            merged[static_cast<std::size_t>(rank)] = 1;
            break;
          case Gather::kRetired: {
            auto& assignment =
                current_assignment_[static_cast<std::size_t>(rank)];
            orphans.insert(orphans.end(), assignment.begin(),
                           assignment.end());
            assignment.clear();
            break;
          }
          case Gather::kDegraded:
            degraded = true;
            break;
        }
      }
    }

    if (degraded) {
      // Everything not yet merged — the failed rank's works, ranks never
      // gathered, and undealt orphans — finishes locally; then the run
      // switches to the in-process engine.
      std::vector<std::int64_t> unmerged = std::move(orphans);
      for (int rank = 0; rank < rank_count_; ++rank) {
        if (state_[static_cast<std::size_t>(rank)].retired) continue;
        if (merged[static_cast<std::size_t>(rank)]) continue;
        const auto& assignment =
            current_assignment_[static_cast<std::size_t>(rank)];
        unmerged.insert(unmerged.end(), assignment.begin(), assignment.end());
      }
      return finish_depth_degraded(works, depth, prototype, options, unmerged,
                                   total_tests, depth_timer, events_before);
    }

    depth_stats_.push_back(
        {depth, total_tests, depth_timer.seconds(), gather_timer.seconds(),
         max_rank_seconds,
         static_cast<std::int32_t>(events_.size() - events_before)});
    return total_tests;
  }

  [[nodiscard]] const std::vector<ProcessDepthStats>& depth_stats()
      const noexcept {
    return depth_stats_;
  }

  [[nodiscard]] const std::vector<RecoveryEvent>& recovery_events()
      const noexcept {
    return events_;
  }

 private:
  enum class Gather : std::uint8_t {
    kMerged,    ///< reply merged into the works vector
    kRetired,   ///< restart budget spent; caller re-partitions its works
    kDegraded,  ///< fork machinery failed; caller degrades the run
  };

  struct RankState {
    std::int32_t generation = 0;  ///< 0 = initial fork, g = g-th respawn
    std::int32_t restarts = 0;    ///< respawn budget already consumed
    bool retired = false;         ///< permanently re-partitioned away
  };

  void record_event(std::int32_t depth, int rank, RecoveryAction action,
                    std::string detail) {
    events_.push_back({depth, rank, action, std::move(detail)});
  }

  static std::vector<std::int64_t> all_indices(
      const std::vector<EdgeWork>& works) {
    std::vector<std::int64_t> indices(works.size());
    for (std::size_t i = 0; i < works.size(); ++i) {
      indices[i] = static_cast<std::int64_t>(i);
    }
    return indices;
  }

  /// Receives and merges one rank's reply for (depth, seq), running the
  /// retransmit rung and, past it, the respawn ladder.
  Gather gather_rank(std::vector<EdgeWork>& works, std::int32_t depth,
                     bool grouped, int rank, std::uint32_t seq,
                     const std::vector<std::int64_t>& indices,
                     std::int64_t& total_tests, double& max_rank_seconds) {
    int attempt = 0;
    int stale = 0;
    std::string failure;
    for (;;) {
      Frame frame;
      static constexpr std::uint32_t kReplyTags[] = {kTagDepthResult,
                                                     kTagError};
      const FrameReadStatus status =
          group_.try_receive(rank, frame, deadline_ms_, kReplyTags);
      if (status == FrameReadStatus::kOk) {
        if (frame.tag == kTagError) {
          // The rank itself hit an exception (bad data, replica
          // divergence, a logic bug): unrecoverable by design — a
          // respawn would deterministically hit it again.
          WireReader reader(frame.payload);
          const std::string message = reader.get_string();
          group_.shutdown();
          throw std::runtime_error("process engine: rank " +
                                   std::to_string(rank) +
                                   " failed: " + message);
        }
        WireReader reader(frame.payload);
        const std::int32_t reply_depth = reader.get_i32();
        const std::uint32_t reply_seq = reader.get_u32();
        if (reply_depth != depth || reply_seq != seq) {
          // A duplicate of an already-merged reply (a late original
          // racing its own retransmission). Harmless; discard and read
          // on — bounded, so a rank stuck replaying old frames still
          // fails over to the ladder.
          if (++stale <= kMaxStaleReplies) continue;
          failure = "it kept replaying stale frames (last: depth " +
                    std::to_string(reply_depth) + ", seq " +
                    std::to_string(reply_seq) + ")";
        } else {
          merge_reply(works, reader, rank, total_tests, max_rank_seconds);
          return Gather::kMerged;
        }
      } else if (status == FrameReadStatus::kBadTag) {
        // The frame is CRC-valid, so an unknown tag is a protocol logic
        // bug, not line noise — fail loudly naming rank and tag, never
        // merge.
        group_.shutdown();
        throw std::runtime_error(
            "process engine: rank " + std::to_string(rank) +
            " replied with unknown protocol tag " + std::to_string(frame.tag) +
            " — protocol error (frames are checksummed, so this is "
            "a logic bug, not wire corruption)");
      } else if ((status == FrameReadStatus::kCorrupt ||
                  status == FrameReadStatus::kTimeout) &&
                 attempt < retry_limit_) {
        // Rung 1: ask for the buffered reply again, with linear backoff.
        ++attempt;
        record_event(depth, rank, RecoveryAction::kRetransmit,
                     "its depth-" + std::to_string(depth) + " reply " +
                         std::string(status == FrameReadStatus::kCorrupt
                                         ? "failed the frame checksum"
                                         : "missed the frame deadline") +
                         "; retransmit request " + std::to_string(attempt) +
                         "/" + std::to_string(retry_limit_));
        if (group_.try_send(rank, kTagRetransmit, {})) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(attempt * backoff_ms_));
          continue;
        }
        failure = "its command pipe broke when asked to retransmit — the "
                  "rank " +
                  group_.describe_rank(rank);
      } else if (status == FrameReadStatus::kEof) {
        failure = "its result pipe closed before its depth-" +
                  std::to_string(depth) + " reply — the rank " +
                  group_.describe_rank(rank);
      } else if (status == FrameReadStatus::kTimeout) {
        failure = "no usable reply within " + std::to_string(deadline_ms_) +
                  " ms after " + std::to_string(attempt) +
                  " retransmit request(s) — the rank " +
                  group_.describe_rank(rank);
      } else {
        failure = "its replies kept failing the frame checksum after " +
                  std::to_string(attempt) + " retransmit request(s)";
      }
      return respawn_ladder(works, depth, grouped, rank, indices, total_tests,
                            max_rank_seconds, failure);
    }
  }

  /// Rungs 2 and 3: respawn-with-replay while the restart budget lasts,
  /// then retire the rank (the caller re-partitions its works). A fork
  /// that fails — really or by injected decree — returns the degrade
  /// verdict instead.
  Gather respawn_ladder(std::vector<EdgeWork>& works, std::int32_t depth,
                        bool grouped, int rank,
                        const std::vector<std::int64_t>& indices,
                        std::int64_t& total_tests, double& max_rank_seconds,
                        const std::string& reason) {
    RankState& state = state_[static_cast<std::size_t>(rank)];
    while (state.restarts < max_restarts_) {
      const std::int32_t generation = ++state.restarts;
      if (schedule_.spawn_should_fail(rank, generation)) {
        record_event(depth, rank, RecoveryAction::kDegrade,
                     reason + "; respawn generation " +
                         std::to_string(generation) +
                         " declared failed by the fault schedule — "
                         "degrading to the in-process edge-parallel engine");
        return Gather::kDegraded;
      }
      try {
        group_.respawn(rank, rank_main_);
      } catch (const std::exception& error) {
        record_event(depth, rank, RecoveryAction::kDegrade,
                     reason + "; respawn generation " +
                         std::to_string(generation) + " failed (" +
                         error.what() +
                         ") — degrading to the in-process edge-parallel "
                         "engine");
        return Gather::kDegraded;
      }
      state.generation = generation;
      std::size_t logged = 0;
      for (const DepthCheckpoint& batch : checkpoint_log_) {
        logged += batch.removals.size();
      }
      record_event(
          depth, rank, RecoveryAction::kRespawn,
          reason + "; respawned as generation " + std::to_string(generation) +
              ", replaying " + std::to_string(checkpoint_log_.size()) +
              " checkpoint batch(es) (" + std::to_string(logged) +
              " removals) and re-running its " +
              std::to_string(indices.size()) + " works");
      // Rebuild the replica from the committed log (which already holds
      // this depth's broadcast batch), then re-issue the depth as an
      // explicit index list with zero removals. A send that fails here
      // means the replacement died instantly; the loop charges another
      // restart and tries again.
      WireWriter replay;
      replay.put_i32(generation);
      replay.put_u32(static_cast<std::uint32_t>(checkpoint_log_.size()));
      for (const DepthCheckpoint& batch : checkpoint_log_) {
        replay.put_i32(batch.depth);
        replay.put_u32(static_cast<std::uint32_t>(batch.removals.size()));
        for (const DepthCheckpoint::Removal& removal : batch.removals) {
          replay.put_i32(removal.x);
          replay.put_i32(removal.y);
          replay.put_vars(removal.sepset);
        }
      }
      if (!group_.try_send(rank, kTagReplay, replay.payload())) continue;
      const std::uint32_t seq = next_seq_++;
      WireWriter command;
      encode_run_depth(command, depth, seq, grouped, /*explicit_only=*/true,
                       {}, indices);
      if (!group_.try_send(rank, kTagRunDepth, command.payload())) continue;
      return gather_rank(works, depth, grouped, rank, seq, indices,
                         total_tests, max_rank_seconds);
    }
    record_event(depth, rank, RecoveryAction::kRepartition,
                 reason + "; restart budget (" +
                     std::to_string(max_restarts_) +
                     ") exhausted — retiring the rank and re-partitioning "
                     "its " +
                     std::to_string(indices.size()) +
                     " works onto the survivors");
    group_.kill_rank(rank);
    state.retired = true;
    return Gather::kRetired;
  }

  /// Merges one validated DepthResult payload (cursor past depth + seq)
  /// into the works vector and the pending-removal set.
  void merge_reply(std::vector<EdgeWork>& works, WireReader& reader, int rank,
                   std::int64_t& total_tests, double& max_rank_seconds) {
    total_tests += reader.get_i64();
    max_rank_seconds = std::max(
        max_rank_seconds, static_cast<double>(reader.get_i64()) * 1e-6);
    const std::uint32_t removed = reader.get_u32();
    for (std::uint32_t i = 0; i < removed; ++i) {
      const auto index = static_cast<std::size_t>(reader.get_u64());
      const VarId x = reader.get_i32();
      const VarId y = reader.get_i32();
      std::vector<VarId> sepset = reader.get_vars();
      // The index addresses the rank's replica-built list; it is only
      // meaningful if that list matches the driver's. The endpoint
      // check turns a divergent replica into a loud protocol error.
      if (index >= works.size() || works[index].x != x ||
          works[index].y != y) {
        group_.shutdown();
        throw std::runtime_error(
            "process engine: rank " + std::to_string(rank) +
            " removed work #" + std::to_string(index) + " (" +
            std::to_string(x) + ", " + std::to_string(y) +
            "), which does not match the driver's work list — replica "
            "divergence");
      }
      works[index].removed = true;
      works[index].sepset = std::move(sepset);
      // The sepset rides into the checkpoint log so a future respawn
      // replays the complete committed record, not just the edge list.
      pending_removals_.push_back({x, y, works[index].sepset});
    }
  }

  /// Rung 4: the group is gone (or never existed). Finish this depth's
  /// unmerged works in-process with rank-identical semantics, then hand
  /// the rest of the run to the in-process edge-parallel engine.
  std::int64_t finish_depth_degraded(std::vector<EdgeWork>& works,
                                     std::int32_t depth,
                                     const CiTest& prototype,
                                     const PcOptions& options,
                                     const std::vector<std::int64_t>& indices,
                                     std::int64_t total_so_far,
                                     const WallTimer& depth_timer,
                                     std::size_t events_before) {
    group_.shutdown();
    std::int64_t local = 0;
    if (!indices.empty()) {
      if (local_clones_.empty()) {
        const auto threads = static_cast<std::size_t>(std::max<std::int32_t>(
            1, rank_count_ > 0 ? rank_count_ * rank_threads_ : 1));
        local_clones_.reserve(threads);
        for (std::size_t t = 0; t < threads; ++t) {
          local_clones_.push_back(prototype.clone());
          local_clones_.back()->set_sample_parallel(false);
        }
      }
      local = run_shard_works(works, indices, depth, local_clones_);
    }
    fallback_ = make_edge_parallel_engine();
    fallback_->prepare_run();
    (void)options;
    depth_stats_.push_back(
        {depth, total_so_far + local, depth_timer.seconds(),
         /*gather_seconds=*/0.0, /*max_rank_seconds=*/0.0,
         static_cast<std::int32_t>(events_.size() - events_before)});
    return total_so_far + local;
  }

  /// Resolves the run's configuration and forks the group. Returns false
  /// — after recording the degrade event — when the spawn fails for
  /// real or by injected decree; the engine then never retries forking.
  bool spawn_ranks(const std::vector<EdgeWork>& works, std::int32_t depth,
                   const CiTest& prototype, const PcOptions& options) {
    spawned_ = true;  // one attempt per run, success or not
    schedule_ = options.fault_schedule.empty()
                    ? FaultSchedule::from_env()
                    : FaultSchedule::parse(options.fault_schedule);
    deadline_ms_ =
        options.frame_deadline_ms > 0
            ? options.frame_deadline_ms
            : env_positive_int("FASTBNS_RANK_TIMEOUT_MS",
                               kDefaultRankTimeoutMs);
    retry_limit_ = options.frame_retry_limit;
    backoff_ms_ = options.frame_retry_backoff_ms;
    max_restarts_ = options.max_rank_restarts;
    // The variable domain comes from the first depth's works — depth 0's
    // complete graph covers every variable.
    num_vars_ = 0;
    for (const EdgeWork& work : works) {
      num_vars_ = std::max(num_vars_, std::max(work.x, work.y) + 1);
    }
    rank_count_ = resolve_rank_count(options.rank_count);
    rank_threads_ = resolve_rank_threads(options.rank_threads, rank_count_,
                                         options.num_threads);
    std::vector<RankConfig> configs(static_cast<std::size_t>(rank_count_));
    for (std::int32_t rank = 0; rank < rank_count_; ++rank) {
      RankConfig& config = configs[static_cast<std::size_t>(rank)];
      config.rank = rank;
      config.num_vars = num_vars_;
      config.rank_count = rank_count_;
      config.rank_threads = rank_threads_;
      config.schedule = schedule_;
    }
    const CiTest* prototype_ptr = &prototype;
    rank_main_ = [configs = std::move(configs), prototype_ptr](
                     int rank, int command_fd, int result_fd) {
      return run_rank(configs[static_cast<std::size_t>(rank)], *prototype_ptr,
                      command_fd, result_fd);
    };
    state_.assign(static_cast<std::size_t>(rank_count_), {});
    if (schedule_.spawn_should_fail(/*rank=*/-1, /*generation=*/0)) {
      record_event(depth, -1, RecoveryAction::kDegrade,
                   "initial spawn declared failed by the fault schedule — "
                   "running in-process with the edge-parallel engine");
      return false;
    }
    try {
      group_ = ProcessGroup::spawn(rank_count_, rank_main_);
    } catch (const std::exception& error) {
      record_event(depth, -1, RecoveryAction::kDegrade,
                   std::string("initial spawn failed (") + error.what() +
                       ") — running in-process with the edge-parallel "
                       "engine");
      return false;
    }
    return true;
  }

  ProcessGroup group_;
  ProcessGroup::RankMain rank_main_;
  bool spawned_ = false;
  std::int32_t rank_count_ = 0;
  std::int32_t rank_threads_ = 1;
  VarId num_vars_ = 0;
  FaultSchedule schedule_;
  int deadline_ms_ = kDefaultRankTimeoutMs;
  std::int32_t retry_limit_ = 2;
  std::int32_t backoff_ms_ = 10;
  std::int32_t max_restarts_ = 1;
  /// Per-command sequence numbers, echoed in replies: the duplicate
  /// detector of the retransmit rung.
  std::uint32_t next_seq_ = 1;
  std::vector<RankState> state_;
  /// The works each rank is answerable for in the depth being gathered
  /// (own shard + inherited extras, or the explicit recovery deal).
  std::vector<std::vector<std::int64_t>> current_assignment_;
  /// The committed removal log, one batch per broadcast — the replayable
  /// checkpoint of the respawn rung.
  std::vector<DepthCheckpoint> checkpoint_log_;
  /// The union removal set of the previous depth, pending broadcast with
  /// the next RUN_DEPTH command (sepsets kept for the checkpoint log).
  std::vector<DepthCheckpoint::Removal> pending_removals_;
  std::vector<ProcessDepthStats> depth_stats_;
  std::vector<RecoveryEvent> events_;
  /// Non-null once rung 4 fired: the in-process engine running the rest
  /// of the run.
  std::unique_ptr<SkeletonEngine> fallback_;
  /// Clones for the degrade rung's local completion of a depth.
  std::vector<std::unique_ptr<CiTest>> local_clones_;
};

}  // namespace

std::unique_ptr<SkeletonEngine> make_process_engine() {
  return std::make_unique<ProcessEngine>();
}

std::string_view to_string(RecoveryAction action) noexcept {
  switch (action) {
    case RecoveryAction::kRetransmit:
      return "retransmit";
    case RecoveryAction::kRespawn:
      return "respawn";
    case RecoveryAction::kRepartition:
      return "re-partition";
    case RecoveryAction::kDegrade:
      return "degrade";
  }
  return "unknown";
}

const std::vector<ProcessDepthStats>* process_engine_depth_stats(
    const SkeletonEngine& engine) {
  const auto* process = dynamic_cast<const ProcessEngine*>(&engine);
  return process == nullptr ? nullptr : &process->depth_stats();
}

const std::vector<RecoveryEvent>* process_engine_recovery_events(
    const SkeletonEngine& engine) {
  const auto* process = dynamic_cast<const ProcessEngine*>(&engine);
  return process == nullptr ? nullptr : &process->recovery_events();
}

std::int32_t resolve_rank_count(std::int32_t requested) noexcept {
  if (requested > 0) return requested;
  return std::max(1, std::min(2, hardware_threads()));
}

std::int32_t resolve_rank_threads(std::int32_t requested,
                                  std::int32_t rank_count,
                                  int num_threads) noexcept {
  if (requested > 0) return requested;
  const int budget = num_threads > 0 ? num_threads : hardware_threads();
  return std::max(1, budget / std::max(1, rank_count));
}

}  // namespace fastbns
