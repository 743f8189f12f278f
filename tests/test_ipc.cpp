// The multi-process engine's transport layer in isolation: wire
// round-trips, frames across real channels (including payloads far
// beyond the kernel buffer), deadline-bounded reads that report EOF vs
// timeout distinctly, the fork-based ProcessGroup supervisor (dead rank
// → clear error, never a hang), and the MAP_SHARED dataset segment
// forked ranks read without copies.
//
// Everything that touches a channel runs TWICE — once over a pipe pair
// and once over a connected TCP loopback socket (the transport matrix) —
// because the frame protocol's contract ("a pipe end and an accepted
// socket are interchangeable fds") is exactly the kind of claim that
// silently rots unless a test instantiates both sides of it. The
// socket-only machinery (hello handshake, session token, pre-connect
// child death) gets its own battery below.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dataset/continuous_dataset.hpp"
#include "dataset/discrete_dataset.hpp"
#include "ipc/process_group.hpp"
#include "ipc/shared_dataset.hpp"
#include "ipc/socket_transport.hpp"
#include "ipc/transport.hpp"
#include "ipc/wire.hpp"

namespace fastbns {
namespace {

// ---------------------------------------------------------------------
// Pure-buffer wire tests — no channel, nothing to parameterize.
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
// Transport name resolution — the PcOptions::ipc_transport vocabulary.
// ---------------------------------------------------------------------

TEST(Transport, NamesRoundTripAndUnknownOnesThrowWithTheVocabulary) {
  EXPECT_EQ(transport_from_string("pipe"), TransportKind::kPipe);
  EXPECT_EQ(transport_from_string("socket"), TransportKind::kSocket);
  EXPECT_EQ(to_string(TransportKind::kPipe), "pipe");
  EXPECT_EQ(to_string(TransportKind::kSocket), "socket");
  try {
    (void)transport_from_string("carrier-pigeon");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("carrier-pigeon"), std::string::npos) << message;
    EXPECT_NE(message.find("pipe"), std::string::npos) << message;
    EXPECT_NE(message.find("socket"), std::string::npos) << message;
  }
  const std::vector<std::string> names = list_transports();
  EXPECT_EQ(names, (std::vector<std::string>{"auto", "pipe", "socket"}));
}

TEST(Transport, AutoFollowsTheEnvironmentAndIgnoresInvalidValues) {
  // Explicit names win regardless of the environment.
  ASSERT_EQ(setenv("FASTBNS_IPC_TRANSPORT", "socket", 1), 0);
  EXPECT_EQ(resolve_transport("pipe"), TransportKind::kPipe);
  // "auto" (and the empty legacy spelling) follow the env override.
  EXPECT_EQ(resolve_transport("auto"), TransportKind::kSocket);
  EXPECT_EQ(resolve_transport(""), TransportKind::kSocket);
  // An invalid env value must degrade to the pipe default, never crash a
  // run that merely inherited a typoed shell export.
  ASSERT_EQ(setenv("FASTBNS_IPC_TRANSPORT", "quantum", 1), 0);
  EXPECT_EQ(resolve_transport("auto"), TransportKind::kPipe);
  ASSERT_EQ(unsetenv("FASTBNS_IPC_TRANSPORT"), 0);
  EXPECT_EQ(resolve_transport("auto"), TransportKind::kPipe);
  // Explicit garbage throws (the PcOptions::validate path).
  EXPECT_THROW((void)resolve_transport("quantum"), std::invalid_argument);
}

// ---------------------------------------------------------------------
// The transport matrix: every channel-level contract, over both a pipe
// pair and a connected loopback socket.
// ---------------------------------------------------------------------

/// One connected channel: the test reads on `near` what a peer writes on
/// `far` (and closes `far` to signal EOF). For the pipe transport these
/// are the two pipe ends; for the socket transport they are the accepted
/// and connecting sides of one loopback connection (each duplex, but the
/// tests only drive the far→near direction — the direction the engine's
/// result channel uses).
struct Channel {
  int near = -1;
  int far = -1;

  Channel() = default;
  Channel(Channel&& other) noexcept
      : near(std::exchange(other.near, -1)), far(std::exchange(other.far, -1)) {}
  Channel& operator=(Channel&& other) noexcept {
    if (this != &other) {
      close_near();
      close_far();
      near = std::exchange(other.near, -1);
      far = std::exchange(other.far, -1);
    }
    return *this;
  }
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

class TransportTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  /// Builds one connected channel over the parameterized transport. The
  /// socket side runs the real production handshake (connect_as_rank ↔
  /// accept_rank), so the matrix also re-proves the handshake on every
  /// channel test. `pid` is -1: no child process to watch.
  [[nodiscard]] Channel make_channel() const {
    Channel channel;
    if (GetParam() == TransportKind::kPipe) {
      int fds[2] = {-1, -1};
      EXPECT_EQ(pipe(fds), 0);
      channel.near = fds[0];
      channel.far = fds[1];
      return channel;
    }
    SocketListener listener = SocketListener::create(1);
    std::thread connector([&] {
      try {
        channel.far = connect_as_rank(listener.connect_string(), /*rank=*/0,
                                      listener.token(), /*timeout_ms=*/10000);
      } catch (const std::exception&) {
        channel.far = -1;
      }
    });
    try {
      channel.near = listener.accept_rank(/*rank=*/0, /*pid=*/-1,
                                          /*timeout_ms=*/10000);
    } catch (const std::exception&) {
      channel.near = -1;
    }
    connector.join();
    return channel;
  }
};

INSTANTIATE_TEST_SUITE_P(
    Transports, TransportTest,
    ::testing::Values(TransportKind::kPipe, TransportKind::kSocket),
    [](const ::testing::TestParamInfo<TransportKind>& info) {
      return std::string(to_string(info.param));
    });

TEST_P(TransportTest, FramesCrossTheChannelIncludingBeyondBufferCapacity) {
  Channel channel = make_channel();
  ASSERT_GE(channel.near, 0);
  ASSERT_GE(channel.far, 0);
  // 1 MiB payload: far beyond the 64 KiB default pipe capacity (and any
  // socket buffer), so the writer must loop over short writes while the
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

TEST_P(TransportTest, ReadFrameDistinguishesTimeoutFromEof) {
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

TEST_P(TransportTest, GarbageLengthPrefixFailsInsteadOfAllocatingGigabytes) {
  Channel channel = make_channel();
  ASSERT_GE(channel.near, 0);
  const std::uint32_t garbage = 0xFFFFFFFFu;  // > kMaxFramePayload
  ASSERT_EQ(write(channel.far, &garbage, sizeof(garbage)),
            static_cast<ssize_t>(sizeof(garbage)));
  Frame frame;
  EXPECT_NE(read_frame(channel.near, frame, /*timeout_ms=*/1000),
            FrameReadStatus::kOk);
}

TEST_P(TransportTest, CorruptedPayloadReportsCorruptAndLeavesTheStreamAligned) {
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

TEST_P(TransportTest, ResyncScanRecoversFramingAfterATruncatedFrame) {
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

TEST_P(TransportTest, TagOutsideTheAllowedSetReportsBadTagWithTheOffender) {
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

TEST_P(TransportTest, BlockedFrameReadSurvivesSignalDeliveryWithoutSaRestart) {
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
// ProcessGroup over both transports: the same supervisor battery must
// hold whether ranks inherit pipe ends or connect back over TCP.
// ---------------------------------------------------------------------

TEST_P(TransportTest, RanksEchoFramesAndShutDownCleanly) {
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
      },
      GetParam());
  ASSERT_EQ(group.rank_count(), 3);
  EXPECT_EQ(group.transport_kind(), GetParam());
  // The connect string names the transport: an address a worker could
  // dial for sockets, the no-address marker for fork-inherited pipes.
  if (GetParam() == TransportKind::kSocket) {
    EXPECT_EQ(group.connect_string().rfind("tcp://127.0.0.1:", 0), 0u)
        << group.connect_string();
  } else {
    EXPECT_EQ(group.connect_string(), "pipe://fork");
  }
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

TEST_P(TransportTest, DeadRankYieldsAClearErrorNamingTheRankNotAHang) {
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
      },
      GetParam());
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

TEST_P(TransportTest, KillRankAndRespawnRefillTheSlotWithAFreshChannel) {
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
  ProcessGroup group = ProcessGroup::spawn(2, echo, GetParam());
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
  // Respawning over sockets re-runs the whole handshake against the
  // persistent listener; over pipes it allocates fresh pipe pairs.
  group.respawn(1, echo);
  ASSERT_TRUE(group.rank_open(1));
  ASSERT_TRUE(group.try_send(1, 3, {}));
  ASSERT_EQ(group.try_receive(1, frame, /*timeout_ms=*/10000),
            FrameReadStatus::kOk);
  EXPECT_EQ(frame.tag, 3u);
  WireReader reader(frame.payload);
  EXPECT_EQ(reader.get_i32(), 1);
}

TEST_P(TransportTest, RankDeathDuringShutdownNeitherHangsNorThrows) {
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
      },
      GetParam());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  group.shutdown();  // must return promptly with every zombie collected
  EXPECT_TRUE(group.empty());
  group.shutdown();  // idempotent, also after self-exits
  // kill_rank on an already-gone group is a harmless no-op too.
  group.kill_rank(0);
  group.kill_rank(99);
}

TEST_P(TransportTest, SharedMemoryWritesInForkedRanksAreVisibleToTheParent) {
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
      },
      GetParam());
  for (int rank = 0; rank < 2; ++rank) group.send(rank, 1, {});
  for (int rank = 0; rank < 2; ++rank) {
    (void)group.receive(rank, /*timeout_ms=*/10000);
    EXPECT_EQ(cells[rank], static_cast<std::byte>(0x50 + rank));
  }
}

// ---------------------------------------------------------------------
// Socket-only machinery: the hello handshake and its failure modes.
// ---------------------------------------------------------------------

TEST(SocketHandshake, StrayConnectorsAreRejectedAndTheLoopKeepsListening) {
  SocketListener listener = SocketListener::create(2);
  ASSERT_TRUE(listener.is_open());
  Channel channel;
  std::thread connector([&] {
    // A connector from "another session" (wrong token) must be dropped:
    // the driver closes its socket before acking, so connect_as_rank
    // surfaces the refusal as an exception instead of a live channel.
    EXPECT_THROW((void)connect_as_rank(listener.connect_string(), /*rank=*/0,
                                       listener.token() ^ 0xBAD, 10000),
                 std::runtime_error);
    // A connector claiming the wrong rank is equally rejected — the
    // driver is waiting on rank 1, this hello says rank 0.
    EXPECT_THROW((void)connect_as_rank(listener.connect_string(), /*rank=*/0,
                                       listener.token(), 10000),
                 std::runtime_error);
    // The genuine rank 1 then completes against the same accept call.
    channel.far = connect_as_rank(listener.connect_string(), /*rank=*/1,
                                  listener.token(), 10000);
  });
  // One accept_rank call survives both rejections and returns the
  // genuine rank's connection.
  channel.near = listener.accept_rank(/*rank=*/1, /*pid=*/-1,
                                      /*timeout_ms=*/20000);
  connector.join();
  ASSERT_GE(channel.near, 0);
  ASSERT_GE(channel.far, 0);
  // The surviving pair really is connected end to end.
  ASSERT_TRUE(write_frame(channel.far, 5, {}));
  Frame frame;
  EXPECT_EQ(read_frame(channel.near, frame, /*timeout_ms=*/10000),
            FrameReadStatus::kOk);
  EXPECT_EQ(frame.tag, 5u);
}

TEST(SocketHandshake, AckNamesTheDriverAsProtoRankZero) {
  SocketListener listener = SocketListener::create(1);
  std::thread accepter([&] {
    try {
      const int fd = listener.accept_rank(/*rank=*/3, /*pid=*/-1,
                                          /*timeout_ms=*/10000);
      ::close(fd);
    } catch (const std::exception&) {
    }
  });
  // Speak the handshake by hand so the ack's fields can be inspected
  // rather than merely survived.
  Channel channel;
  channel.far = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(channel.far, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(listener.port()));
  ASSERT_EQ(::connect(channel.far, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  WireWriter hello;
  hello.put_u32(kSocketHandshakeVersion);
  hello.put_i32(proto_rank_of_worker(3));  // worker 3 speaks as proto rank 4
  hello.put_u64(listener.token());
  ASSERT_TRUE(write_frame(channel.far, kTagSocketHello, hello.payload()));
  Frame ack;
  static constexpr std::uint32_t kAllowed[] = {kTagSocketHelloAck};
  ASSERT_EQ(read_frame(channel.far, ack, /*timeout_ms=*/10000, kAllowed),
            FrameReadStatus::kOk);
  accepter.join();
  WireReader reader(ack.payload);
  EXPECT_EQ(reader.get_u32(), kSocketHandshakeVersion);
  // The driver occupies rank 0 of the protocol — the convention a
  // multi-host launcher inherits (workers are proto ranks 1..N).
  EXPECT_EQ(reader.get_i32(), kDriverProtoRank);
  EXPECT_EQ(reader.get_string(), listener.connect_string());
}

TEST(SocketHandshake, ChildDeathBeforeConnectingFailsTheAcceptFast) {
  SocketListener listener = SocketListener::create(1);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) _exit(7);  // dies without ever connecting
  const auto started = std::chrono::steady_clock::now();
  try {
    // A 60 s deadline must NOT mean a 60 s wait: the accept loop watches
    // the pid and fails as soon as the child is gone.
    (void)listener.accept_rank(/*rank=*/0, pid, /*timeout_ms=*/60000);
    FAIL() << "expected the dead child to fail the accept";
  } catch (const std::runtime_error& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("rank 0"), std::string::npos) << message;
    EXPECT_NE(message.find(std::to_string(pid)), std::string::npos) << message;
  }
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            10000);
  // WNOWAIT left the zombie for the supervisor's forensics: the exit
  // status is still collectible here.
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 7);
}

// ---------------------------------------------------------------------
// Shared dataset segments: anonymous and file-backed.
// ---------------------------------------------------------------------

[[nodiscard]] DiscreteDataset make_discrete_source(VarId n, Count m,
                                                   DataLayout layout) {
  DiscreteDataset source(n, m, std::vector<std::int32_t>(n, 3), layout);
  for (Count s = 0; s < m; ++s) {
    for (VarId v = 0; v < n; ++v) {
      source.set(s, v,
                 static_cast<DataValue>((s * 31 + v * 7) %
                                        source.cardinality(v)));
    }
  }
  return source;
}

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
  EXPECT_FALSE(segment.is_file_backed());
  EXPECT_TRUE(segment.path().empty());
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

TEST(SharedDataset, FileBackedDiscreteSegmentRoundTripsThroughOpenFile) {
  const VarId n = 4;
  const Count m = 61;  // not a multiple of kCodes8Pad
  const DiscreteDataset source = make_discrete_source(n, m, DataLayout::kBoth);
  const SharedDatasetSegment created =
      SharedDatasetSegment::create_file_backed(source);
  ASSERT_TRUE(created.is_file_backed());
  ASSERT_FALSE(created.path().empty());
  EXPECT_EQ(access(created.path().c_str(), R_OK), 0);

  // The creator's own view matches the source, like the anonymous mode.
  for (Count s = 0; s < m; ++s) {
    for (VarId v = 0; v < n; ++v) {
      ASSERT_EQ(created.view().value(s, v), source.value(s, v));
    }
  }

  // A second segment mounted from nothing but the path — the shape a
  // rank without a shared address space uses — reconstructs the full
  // dataset: dims, cardinalities, layouts, values, codes8 mirror.
  const SharedDatasetSegment opened =
      SharedDatasetSegment::open_file(created.path());
  EXPECT_EQ(opened.path(), created.path());
  const DiscreteDataset& view = opened.view();
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
  }
}

TEST(SharedDataset, FileBackedContinuousSegmentRoundTripsThroughOpenFile) {
  const VarId n = 3;
  const Count m = 29;
  ContinuousDataset source(n, m);
  for (Count s = 0; s < m; ++s) {
    for (VarId v = 0; v < n; ++v) {
      source.set(s, v, 0.25 * static_cast<double>(s) - 1.5 * v);
    }
  }
  const SharedDatasetSegment created =
      SharedDatasetSegment::create_file_backed(source);
  ASSERT_TRUE(created.is_file_backed());
  const SharedDatasetSegment opened =
      SharedDatasetSegment::open_file(created.path());
  ASSERT_FALSE(opened.dataset().is_discrete());
  const ContinuousDataset& view = opened.dataset().continuous();
  ASSERT_EQ(view.num_vars(), n);
  ASSERT_EQ(view.num_samples(), m);
  for (Count s = 0; s < m; ++s) {
    for (VarId v = 0; v < n; ++v) {
      ASSERT_EQ(view.value(s, v), source.value(s, v)) << s << "," << v;
    }
  }
}

TEST(SharedDataset, FileBackedSegmentUnlinksItsFileOnDestruction) {
  std::string path;
  {
    const SharedDatasetSegment segment = SharedDatasetSegment::create_file_backed(
        make_discrete_source(2, 8, DataLayout::kColumnMajor));
    path = segment.path();
    ASSERT_EQ(access(path.c_str(), F_OK), 0);
    // An opener coexists and must NOT steal the unlink.
    const SharedDatasetSegment opened = SharedDatasetSegment::open_file(path);
    EXPECT_EQ(opened.view().num_vars(), 2);
  }
  // Both segments destroyed: the creator (and only the creator) unlinked.
  EXPECT_NE(access(path.c_str(), F_OK), 0);
}

TEST(SharedDataset, OpenFileRejectsFilesThatAreNotDatasetSegments) {
  EXPECT_THROW((void)SharedDatasetSegment::open_file("/nonexistent/nope"),
               std::runtime_error);
  // A real file with garbage contents fails the header validation, not
  // some later mapping step.
  char tmpl[] = "/tmp/fastbns-test-XXXXXX";
  const int fd = mkstemp(tmpl);
  ASSERT_GE(fd, 0);
  const char junk[64] = "this is not a dataset";
  ASSERT_EQ(write(fd, junk, sizeof(junk)), static_cast<ssize_t>(sizeof(junk)));
  ::close(fd);
  EXPECT_THROW((void)SharedDatasetSegment::open_file(tmpl), std::runtime_error);
  unlink(tmpl);
}

TEST(SharedDataset, FileBackedSegmentIsReadableFromForkedRanks) {
  // The socket-transport data path end to end in miniature: the driver
  // writes the file once, ranks mount it read-only by path and verify
  // the contents — no inherited mapping involved.
  const DiscreteDataset source = make_discrete_source(3, 41, DataLayout::kBoth);
  const SharedDatasetSegment segment =
      SharedDatasetSegment::create_file_backed(source);
  const std::string path = segment.path();
  ProcessGroup group = ProcessGroup::spawn(
      2,
      [&path, &source](int rank, int command_fd, int result_fd) {
        (void)rank;
        Frame frame;
        if (read_frame(command_fd, frame, -1) != FrameReadStatus::kOk)
          return 1;
        try {
          const SharedDatasetSegment mounted =
              SharedDatasetSegment::open_file(path);
          const DiscreteDataset& view = mounted.view();
          if (view.num_vars() != source.num_vars()) return 2;
          if (view.num_samples() != source.num_samples()) return 3;
          for (Count s = 0; s < view.num_samples(); ++s) {
            for (VarId v = 0; v < view.num_vars(); ++v) {
              if (view.value(s, v) != source.value(s, v)) return 4;
            }
          }
        } catch (const std::exception&) {
          return 5;
        }
        return write_frame(result_fd, 2, {}) ? 0 : 1;
      },
      TransportKind::kSocket);
  for (int rank = 0; rank < 2; ++rank) group.send(rank, 1, {});
  for (int rank = 0; rank < 2; ++rank) {
    const Frame reply = group.receive(rank, /*timeout_ms=*/10000);
    EXPECT_EQ(reply.tag, 2u);
  }
}

}  // namespace
}  // namespace fastbns
