// The multi-process engine's channel layer in isolation: wire
// round-trips, frames across real pipes (including payloads far beyond
// the kernel buffer), deadline-bounded reads that report EOF vs timeout
// distinctly, the fork-based ProcessGroup supervisor (dead rank → clear
// error, never a hang), and the MAP_SHARED dataset segment forked ranks
// read without copies.
#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dataset/discrete_dataset.hpp"
#include "ipc/process_group.hpp"
#include "ipc/shared_dataset.hpp"
#include "ipc/wire.hpp"

namespace fastbns {
namespace {

// ---------------------------------------------------------------------
// Pure-buffer wire tests — no channel.
// ---------------------------------------------------------------------

TEST(Wire, WriterReaderRoundTripAllTypes) {
  WireWriter writer;
  writer.put_u8(0xAB);
  writer.put_u32(0xDEADBEEFu);
  writer.put_i32(-12345);
  writer.put_u64(0x0123456789ABCDEFull);
  writer.put_i64(-9876543210ll);
  const std::vector<VarId> vars = {3, 1, 4, 1, 5};
  writer.put_vars(vars);
  writer.put_string("sepset \"payload\"\n");

  WireReader reader(writer.payload());
  EXPECT_EQ(reader.get_u8(), 0xAB);
  EXPECT_EQ(reader.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.get_i32(), -12345);
  EXPECT_EQ(reader.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.get_i64(), -9876543210ll);
  EXPECT_EQ(reader.get_vars(), vars);
  EXPECT_EQ(reader.get_string(), "sepset \"payload\"\n");
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(Wire, TruncatedPayloadThrowsInsteadOfReadingPastTheEnd) {
  WireWriter writer;
  writer.put_u32(7);
  WireReader reader(writer.payload());
  (void)reader.get_u32();
  EXPECT_THROW((void)reader.get_u32(), std::runtime_error);
  // A var list whose count claims more ids than the payload holds is the
  // protocol-error shape a confused peer would actually produce.
  WireWriter liar;
  liar.put_u32(1000);  // count with no ids following
  WireReader lied_to(liar.payload());
  EXPECT_THROW((void)lied_to.get_vars(), std::runtime_error);
}

TEST(Wire, Crc32MatchesTheReferenceVector) {
  // The standard CRC-32 check value: crc32("123456789") = 0xCBF43926.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(digits), 0xCBF43926u);
  // Incremental composition through the seed parameter equals one pass.
  const std::uint32_t head = crc32(std::span(digits).first(4));
  EXPECT_EQ(crc32(std::span(digits).subspan(4), head), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

// ---------------------------------------------------------------------
// Channel-level contracts over a pipe pair.
// ---------------------------------------------------------------------

/// One connected channel: the test reads on `near` (the pipe's read end)
/// what a peer writes on `far` (its write end), and closes `far` to
/// signal EOF — the direction the engine's result channel uses.
struct Channel {
  int near = -1;
  int far = -1;

  Channel() = default;
  Channel(Channel&& other) noexcept
      : near(std::exchange(other.near, -1)), far(std::exchange(other.far, -1)) {}
  Channel& operator=(Channel&&) = delete;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;
  ~Channel() {
    close_far();
    close_near();
  }

  void close_near() noexcept {
    if (near >= 0) ::close(near);
    near = -1;
  }
  void close_far() noexcept {
    if (far >= 0) ::close(far);
    far = -1;
  }
};

[[nodiscard]] Channel make_channel() {
  Channel channel;
  int fds[2] = {-1, -1};
  EXPECT_EQ(pipe(fds), 0);
  channel.near = fds[0];
  channel.far = fds[1];
  return channel;
}

TEST(PipeChannel, FramesCrossTheChannelIncludingBeyondBufferCapacity) {
  Channel channel = make_channel();
  ASSERT_GE(channel.near, 0);
  ASSERT_GE(channel.far, 0);
  // 1 MiB payload: far beyond the 64 KiB default pipe capacity, so the
  // writer must loop over short writes while the
  // reader drains — the write side runs in a thread to avoid deadlocking
  // the test itself.
  std::vector<std::uint8_t> big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  std::thread writer([&] {
    EXPECT_TRUE(write_frame(channel.far, 42, big));
    channel.close_far();
  });
  Frame frame;
  EXPECT_EQ(read_frame(channel.near, frame, /*timeout_ms=*/10000),
            FrameReadStatus::kOk);
  writer.join();
  EXPECT_EQ(frame.tag, 42u);
  EXPECT_EQ(frame.payload, big);
  // The closed peer now reads as EOF, not a timeout.
  EXPECT_EQ(read_frame(channel.near, frame, /*timeout_ms=*/10000),
            FrameReadStatus::kEof);
}

TEST(PipeChannel, ReadFrameDistinguishesTimeoutFromEof) {
  Channel channel = make_channel();
  ASSERT_GE(channel.near, 0);
  Frame frame;
  // Nothing written, writer still alive: the deadline expires.
  EXPECT_EQ(read_frame(channel.near, frame, /*timeout_ms=*/50),
            FrameReadStatus::kTimeout);
  // A partial frame followed by peer death is EOF (died mid-frame), not
  // a hang waiting for the rest.
  const std::uint32_t claimed_length = 1000;
  ASSERT_EQ(write(channel.far, &claimed_length, sizeof(claimed_length)),
            static_cast<ssize_t>(sizeof(claimed_length)));
  channel.close_far();
  EXPECT_EQ(read_frame(channel.near, frame, /*timeout_ms=*/10000),
            FrameReadStatus::kEof);
}

TEST(PipeChannel, GarbageLengthPrefixFailsInsteadOfAllocatingGigabytes) {
  Channel channel = make_channel();
  ASSERT_GE(channel.near, 0);
  const std::uint32_t garbage = 0xFFFFFFFFu;  // > kMaxFramePayload
  ASSERT_EQ(write(channel.far, &garbage, sizeof(garbage)),
            static_cast<ssize_t>(sizeof(garbage)));
  Frame frame;
  EXPECT_NE(read_frame(channel.near, frame, /*timeout_ms=*/1000),
            FrameReadStatus::kOk);
}

TEST(PipeChannel, CorruptedPayloadReportsCorruptAndLeavesTheStreamAligned) {
  Channel channel = make_channel();
  ASSERT_GE(channel.near, 0);
  WireWriter payload;
  payload.put_string("checksummed");
  std::vector<std::uint8_t> bad = encode_frame(5, payload.payload());
  bad[kFrameHeaderBytes + 3] ^= 0x40;  // flip one payload bit post-CRC
  ASSERT_TRUE(write_frame_bytes(channel.far, bad));
  ASSERT_TRUE(write_frame(channel.far, 6, payload.payload()));
  Frame frame;
  // The corrupted frame is detected — never delivered as kOk — and the
  // reader stays frame-aligned: the clean follow-up parses normally,
  // which is what makes a retransmission sufficient recovery.
  EXPECT_EQ(read_frame(channel.near, frame, /*timeout_ms=*/5000),
            FrameReadStatus::kCorrupt);
  EXPECT_EQ(read_frame(channel.near, frame, /*timeout_ms=*/5000),
            FrameReadStatus::kOk);
  EXPECT_EQ(frame.tag, 6u);
  WireReader reader(frame.payload);
  EXPECT_EQ(reader.get_string(), "checksummed");
}

TEST(PipeChannel, ResyncScanRecoversFramingAfterATruncatedFrame) {
  Channel channel = make_channel();
  ASSERT_GE(channel.near, 0);
  // Half a frame (the truncate-frame / partial-write fault shape: the
  // writer stalled or was killed mid-record), followed by two clean
  // frames. The reader misparses the first clean frame's bytes as the
  // truncated frame's payload (CRC catches it), then the magic scan
  // re-finds alignment on the second — one truncated frame costs
  // retransmissions, not the whole connection.
  const std::vector<std::uint8_t> filler(100, 0);  // no fake magic inside
  const std::vector<std::uint8_t> full = encode_frame(7, filler);
  ASSERT_TRUE(
      write_frame_bytes(channel.far, std::span(full).first(full.size() / 2)));
  ASSERT_TRUE(write_frame(channel.far, 8, filler));
  ASSERT_TRUE(write_frame(channel.far, 9, filler));
  Frame frame;
  EXPECT_EQ(read_frame(channel.near, frame, /*timeout_ms=*/5000),
            FrameReadStatus::kCorrupt);
  EXPECT_EQ(read_frame(channel.near, frame, /*timeout_ms=*/5000),
            FrameReadStatus::kOk);
  EXPECT_EQ(frame.tag, 9u);
  EXPECT_EQ(frame.payload, filler);
}

TEST(PipeChannel, TagOutsideTheAllowedSetReportsBadTagWithTheOffender) {
  Channel channel = make_channel();
  ASSERT_GE(channel.near, 0);
  ASSERT_TRUE(write_frame(channel.far, 99, {}));
  ASSERT_TRUE(write_frame(channel.far, 2, {}));
  static constexpr std::uint32_t kAllowed[] = {1, 2};
  Frame frame;
  // CRC-valid but unknown tag: rejected loudly with the offending tag
  // surfaced, and the stream stays aligned for the next frame.
  EXPECT_EQ(read_frame(channel.near, frame, /*timeout_ms=*/5000, kAllowed),
            FrameReadStatus::kBadTag);
  EXPECT_EQ(frame.tag, 99u);
  EXPECT_EQ(read_frame(channel.near, frame, /*timeout_ms=*/5000, kAllowed),
            FrameReadStatus::kOk);
  EXPECT_EQ(frame.tag, 2u);
}

// Counts SIGUSR1 deliveries; the handler is installed WITHOUT SA_RESTART
// so every blocked syscall in the target thread returns EINTR — the
// harshest signal environment the wire layer must survive.
std::atomic<int> g_usr1_count{0};
void count_usr1(int) { g_usr1_count.fetch_add(1, std::memory_order_relaxed); }

TEST(PipeChannel, BlockedFrameReadSurvivesSignalDeliveryWithoutSaRestart) {
  Channel channel = make_channel();
  ASSERT_GE(channel.near, 0);
  struct sigaction action {};
  struct sigaction previous {};
  action.sa_handler = count_usr1;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART: poll/read see EINTR
  ASSERT_EQ(sigaction(SIGUSR1, &action, &previous), 0);
  g_usr1_count.store(0);

  std::atomic<bool> reading{false};
  Frame frame;
  FrameReadStatus status = FrameReadStatus::kEof;
  std::thread reader([&] {
    reading.store(true);
    status = read_frame(channel.near, frame, /*timeout_ms=*/20000);
  });
  while (!reading.load()) std::this_thread::yield();
  // Pepper the blocked reader with signals: each one interrupts the
  // poll() (and, once bytes start flowing, potentially a read()) with
  // EINTR. A wire layer that treats EINTR as EOF or corruption fails
  // here with kEof/kCorrupt instead of kOk.
  for (int i = 0; i < 8; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    pthread_kill(reader.native_handle(), SIGUSR1);
  }
  WireWriter payload;
  payload.put_string("delivered despite signals");
  ASSERT_TRUE(write_frame(channel.far, 11, payload.payload()));
  // Keep interrupting while the (large enough to need several reads)
  // frame drains.
  pthread_kill(reader.native_handle(), SIGUSR1);
  reader.join();
  ASSERT_EQ(sigaction(SIGUSR1, &previous, nullptr), 0);

  EXPECT_GE(g_usr1_count.load(), 1) << "no signal was actually delivered";
  EXPECT_EQ(status, FrameReadStatus::kOk);
  EXPECT_EQ(frame.tag, 11u);
  WireReader reader_view(frame.payload);
  EXPECT_EQ(reader_view.get_string(), "delivered despite signals");
}

// ---------------------------------------------------------------------
// The ProcessGroup supervisor over fork-inherited pipe pairs.
// ---------------------------------------------------------------------

TEST(PipeRankGroup, RanksEchoFramesAndShutDownCleanly) {
  ProcessGroup group = ProcessGroup::spawn(
      3,
      [](int rank, int command_fd, int result_fd) {
        Frame frame;
        while (read_frame(command_fd, frame, -1) == FrameReadStatus::kOk) {
          WireWriter reply;
          reply.put_i32(rank);
          WireReader request(frame.payload);
          reply.put_i32(request.get_i32() * 2);
          if (!write_frame(result_fd, frame.tag + 1, reply.payload()))
            return 1;
        }
        return 0;  // EOF on the command channel is the shutdown signal
      });
  ASSERT_EQ(group.rank_count(), 3);
  for (int round = 0; round < 3; ++round) {
    for (int rank = 0; rank < group.rank_count(); ++rank) {
      WireWriter command;
      command.put_i32(10 * round + rank);
      group.send(rank, /*tag=*/7, command.payload());
    }
    for (int rank = 0; rank < group.rank_count(); ++rank) {
      Frame reply = group.receive(rank, /*timeout_ms=*/10000);
      EXPECT_EQ(reply.tag, 8u);
      WireReader reader(reply.payload);
      EXPECT_EQ(reader.get_i32(), rank);
      EXPECT_EQ(reader.get_i32(), 2 * (10 * round + rank));
    }
  }
  group.shutdown();
  EXPECT_TRUE(group.empty());
  group.shutdown();  // idempotent
}

TEST(PipeRankGroup, DeadRankYieldsAClearErrorNamingTheRankNotAHang) {
  ProcessGroup group = ProcessGroup::spawn(
      2,
      [](int rank, int command_fd, int result_fd) {
        Frame frame;
        if (read_frame(command_fd, frame, -1) != FrameReadStatus::kOk)
          return 0;
        if (rank == 1) return 17;  // dies instead of replying
        WireWriter reply;
        reply.put_i32(rank);
        (void)write_frame(result_fd, 2, reply.payload());
        // Keep the healthy rank alive until shutdown so the failure can
        // only come from rank 1.
        (void)read_frame(command_fd, frame, -1);
        return 0;
      });
  for (int rank = 0; rank < 2; ++rank) {
    group.send(rank, 1, {});
  }
  (void)group.receive(0, /*timeout_ms=*/10000);
  try {
    // The rank is already dead; EOF surfaces long before the deadline —
    // a generous timeout here must NOT translate into a slow test.
    (void)group.receive(1, /*timeout_ms=*/60000);
    FAIL() << "expected RankDeathError";
  } catch (const RankDeathError& error) {
    EXPECT_EQ(error.rank(), 1);
    const std::string message = error.what();
    EXPECT_NE(message.find("rank 1"), std::string::npos) << message;
    EXPECT_NE(message.find("17"), std::string::npos)
        << "expected the waitpid exit status in: " << message;
  }
  // The whole group was torn down by the failure.
  EXPECT_TRUE(group.empty());
}

TEST(PipeRankGroup, KillRankAndRespawnRefillTheSlotWithAFreshChannel) {
  const ProcessGroup::RankMain echo = [](int rank, int command_fd,
                                         int result_fd) {
    Frame frame;
    while (read_frame(command_fd, frame, -1) == FrameReadStatus::kOk) {
      WireWriter reply;
      reply.put_i32(rank);
      if (!write_frame(result_fd, frame.tag, reply.payload())) return 1;
    }
    return 0;
  };
  ProcessGroup group = ProcessGroup::spawn(2, echo);
  ASSERT_TRUE(group.rank_open(1));
  group.kill_rank(1);
  // The slot is dead until respawned: sends fail, receives report EOF
  // immediately, and none of it throws or tears the group down.
  EXPECT_FALSE(group.rank_open(1));
  EXPECT_FALSE(group.try_send(1, 1, {}));
  Frame frame;
  EXPECT_EQ(group.try_receive(1, frame, /*timeout_ms=*/1000),
            FrameReadStatus::kEof);
  EXPECT_TRUE(group.rank_open(0));  // the sibling is untouched
  // Respawning allocates fresh pipe pairs.
  group.respawn(1, echo);
  ASSERT_TRUE(group.rank_open(1));
  ASSERT_TRUE(group.try_send(1, 3, {}));
  ASSERT_EQ(group.try_receive(1, frame, /*timeout_ms=*/10000),
            FrameReadStatus::kOk);
  EXPECT_EQ(frame.tag, 3u);
  WireReader reader(frame.payload);
  EXPECT_EQ(reader.get_i32(), 1);
}

TEST(PipeRankGroup, RankDeathDuringShutdownNeitherHangsNorThrows) {
  // Ranks that exit on their own — possibly in the middle of the
  // shutdown sequence's EOF/reap window — must still be reaped cleanly.
  ProcessGroup group = ProcessGroup::spawn(
      3,
      [](int rank, int command_fd, int result_fd) {
        (void)command_fd;
        (void)result_fd;
        // Rank 0 dies instantly, rank 1 a beat later (racing the
        // reap loop), rank 2 waits for the EOF like a healthy rank.
        if (rank == 0) return 9;
        if (rank == 1) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          return 9;
        }
        Frame frame;
        (void)read_frame(command_fd, frame, -1);
        return 0;
      });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  group.shutdown();  // must return promptly with every zombie collected
  EXPECT_TRUE(group.empty());
  group.shutdown();  // idempotent, also after self-exits
  // kill_rank on an already-gone group is a harmless no-op too.
  group.kill_rank(0);
  group.kill_rank(99);
}

TEST(PipeRankGroup, SharedMemoryWritesInForkedRanksAreVisibleToTheParent) {
  SharedMemoryRegion region = SharedMemoryRegion::create(64);
  ASSERT_FALSE(region.empty());
  std::byte* cells = region.data();
  ProcessGroup group = ProcessGroup::spawn(
      2,
      [cells](int rank, int command_fd, int result_fd) {
        Frame frame;
        if (read_frame(command_fd, frame, -1) != FrameReadStatus::kOk)
          return 1;
        // MAP_SHARED, not COW: this store must land in the parent's
        // mapping too.
        cells[rank] = static_cast<std::byte>(0x50 + rank);
        return write_frame(result_fd, 2, {}) ? 0 : 1;
      });
  for (int rank = 0; rank < 2; ++rank) group.send(rank, 1, {});
  for (int rank = 0; rank < 2; ++rank) {
    (void)group.receive(rank, /*timeout_ms=*/10000);
    EXPECT_EQ(cells[rank], static_cast<std::byte>(0x50 + rank));
  }
}

// ---------------------------------------------------------------------
// Shared dataset segments.
// ---------------------------------------------------------------------

TEST(SharedDataset, SegmentViewMatchesTheSourceValueForValue) {
  const VarId n = 5;
  const Count m = 97;  // deliberately not a multiple of kCodes8Pad
  DiscreteDataset source(n, m, {2, 3, 4, 2, 3}, DataLayout::kBoth);
  for (Count s = 0; s < m; ++s) {
    for (VarId v = 0; v < n; ++v) {
      source.set(s, v,
                 static_cast<DataValue>((s * 31 + v * 7) %
                                        source.cardinality(v)));
    }
  }
  const SharedDatasetSegment segment = SharedDatasetSegment::create(source);
  const DiscreteDataset& view = segment.view();
  EXPECT_GT(segment.byte_size(), 0u);
  ASSERT_EQ(view.num_vars(), n);
  ASSERT_EQ(view.num_samples(), m);
  EXPECT_EQ(view.cardinalities(), source.cardinalities());
  EXPECT_EQ(view.has_column_major(), source.has_column_major());
  EXPECT_EQ(view.has_row_major(), source.has_row_major());
  for (Count s = 0; s < m; ++s) {
    for (VarId v = 0; v < n; ++v) {
      ASSERT_EQ(view.value(s, v), source.value(s, v)) << s << "," << v;
    }
  }
  for (VarId v = 0; v < n; ++v) {
    ASSERT_EQ(view.has_codes8(v), source.has_codes8(v)) << v;
    const std::span<const std::uint8_t> expected = source.codes8(v);
    const std::span<const std::uint8_t> actual = view.codes8(v);
    ASSERT_EQ(actual.size(), expected.size()) << v;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(actual[i], expected[i]) << v << "@" << i;
    }
    // Every variable's column bytes must be reachable through the view
    // too.
    EXPECT_FALSE(view.column_bytes(v).empty()) << v;
  }
  // Copies of the view share the shm buffers rather than deep-copying —
  // the property that makes per-rank CiTest clones cheap.
  const DiscreteDataset copy = view;
  EXPECT_EQ(copy.column(0).data(), view.column(0).data());
}

TEST(SharedDataset, ColumnMajorOnlySourceYieldsColumnMajorOnlyView) {
  DiscreteDataset source(3, 10, {2, 2, 2}, DataLayout::kColumnMajor);
  for (Count s = 0; s < 10; ++s) {
    for (VarId v = 0; v < 3; ++v) {
      source.set(s, v, static_cast<DataValue>((s + v) % 2));
    }
  }
  const SharedDatasetSegment segment = SharedDatasetSegment::create(source);
  EXPECT_TRUE(segment.view().has_column_major());
  EXPECT_FALSE(segment.view().has_row_major());
  EXPECT_EQ(segment.view().value(9, 2), source.value(9, 2));
}

}  // namespace
}  // namespace fastbns
