#include "fault/fault_schedule.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "ipc/wire.hpp"

namespace fastbns {
namespace {

struct KindName {
  FaultKind kind;
  std::string_view name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::kKill, "kill"},
    {FaultKind::kWedge, "wedge"},
    {FaultKind::kSlowRank, "slow-rank"},
    {FaultKind::kDelayFrame, "delay-frame"},
    {FaultKind::kCorruptFrame, "corrupt-frame"},
    {FaultKind::kTruncateFrame, "truncate-frame"},
    {FaultKind::kSpawnFail, "spawn-fail"},
    {FaultKind::kDropConn, "drop-conn"},
    {FaultKind::kPartialWrite, "partial-write"},
};

/// Strict non-negative integer parse; throws naming `entry` otherwise.
std::int64_t parse_number(std::string_view text, std::string_view entry) {
  if (text.empty()) {
    throw std::invalid_argument("FaultSchedule: empty number in entry \"" +
                                std::string(entry) + '"');
  }
  std::int64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("FaultSchedule: \"" + std::string(text) +
                                  "\" is not a non-negative integer in "
                                  "entry \"" +
                                  std::string(entry) + '"');
    }
    value = value * 10 + (c - '0');
    if (value > (std::int64_t{1} << 31)) {
      throw std::invalid_argument("FaultSchedule: \"" + std::string(text) +
                                  "\" is out of range in entry \"" +
                                  std::string(entry) + '"');
    }
  }
  return value;
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    if (end == std::string_view::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t')) {
    text.remove_suffix(1);
  }
  return text;
}

}  // namespace

std::string_view to_string(FaultKind kind) noexcept {
  for (const KindName& entry : kKindNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "unknown";
}

FaultKind fault_kind_from_string(std::string_view text) {
  for (const KindName& entry : kKindNames) {
    if (entry.name == text) return entry.kind;
  }
  std::string message =
      "FaultSchedule: unknown fault kind \"" + std::string(text) +
      "\"; known kinds:";
  for (const KindName& entry : kKindNames) {
    message += ' ';
    message += entry.name;
  }
  throw std::invalid_argument(message);
}

std::string FaultEvent::describe() const {
  std::string text(to_string(kind));
  text += "@rank=";
  text += rank < 0 ? "any" : std::to_string(rank);
  text += ",depth=" + std::to_string(depth);
  text += ",gen=" + std::to_string(generation);
  if (kind == FaultKind::kSlowRank || kind == FaultKind::kDelayFrame) {
    text += ",ms=" + std::to_string(ms);
  }
  return text;
}

std::string FaultSchedule::describe() const {
  if (events.empty()) return "none";
  std::string text;
  for (const FaultEvent& event : events) {
    if (!text.empty()) text += ';';
    text += event.describe();
  }
  if (seed != 0) text += ";seed=" + std::to_string(seed);
  return text;
}

FaultSchedule FaultSchedule::parse(std::string_view text) {
  FaultSchedule schedule;
  for (std::string_view raw_entry : split(text, ';')) {
    const std::string_view entry = trim(raw_entry);
    if (entry.empty()) continue;
    if (entry.substr(0, 5) == "seed=") {
      schedule.seed =
          static_cast<std::uint64_t>(parse_number(entry.substr(5), entry));
      continue;
    }
    const std::size_t at = entry.find('@');
    FaultEvent event;
    event.kind = fault_kind_from_string(trim(entry.substr(0, at)));
    if (at != std::string_view::npos) {
      for (std::string_view kv : split(entry.substr(at + 1), ',')) {
        kv = trim(kv);
        const std::size_t eq = kv.find('=');
        if (eq == std::string_view::npos) {
          throw std::invalid_argument(
              "FaultSchedule: expected key=value, got \"" + std::string(kv) +
              "\" in entry \"" + std::string(entry) + '"');
        }
        const std::string_view key = trim(kv.substr(0, eq));
        const std::string_view value_text = trim(kv.substr(eq + 1));
        // "rank=any" round-trips describe()'s spelling of rank -1.
        if (key == "rank" && value_text == "any") {
          event.rank = -1;
          continue;
        }
        const auto value =
            static_cast<std::int32_t>(parse_number(value_text, entry));
        if (key == "rank") {
          event.rank = value;
        } else if (key == "depth") {
          event.depth = value;
        } else if (key == "gen") {
          event.generation = value;
        } else if (key == "ms") {
          event.ms = value;
        } else {
          throw std::invalid_argument(
              "FaultSchedule: unknown key \"" + std::string(key) +
              "\" in entry \"" + std::string(entry) +
              "\"; known keys: rank depth gen ms");
        }
      }
    }
    schedule.events.push_back(event);
  }
  return schedule;
}

FaultSchedule FaultSchedule::from_env() {
  FaultSchedule schedule;
  if (const char* text = std::getenv("FASTBNS_FAULT_SCHEDULE")) {
    try {
      schedule = parse(text);
    } catch (const std::exception& error) {
      // Env-injected schedules degrade to "no faults" on parse errors —
      // but loudly: a CI sweep with a typoed schedule must be
      // diagnosable from its log.
      std::fprintf(stderr, "FASTBNS_FAULT_SCHEDULE ignored: %s\n",
                   error.what());
      schedule = FaultSchedule{};
    }
  }
  return schedule;
}

bool FaultSchedule::spawn_should_fail(std::int32_t rank,
                                      std::int32_t generation) const noexcept {
  for (const FaultEvent& event : events) {
    if (event.kind != FaultKind::kSpawnFail) continue;
    if (event.generation != generation) continue;
    if (event.rank >= 0 && rank >= 0 && event.rank != rank) continue;
    return true;
  }
  return false;
}

bool RankFaultInjector::matches(const FaultEvent& event,
                                std::int32_t depth) const noexcept {
  if (event.rank >= 0 && event.rank != rank_) return false;
  return event.generation == generation_ && depth >= event.depth;
}

const FaultEvent* RankFaultInjector::lethal_fault(std::int32_t depth) const {
  for (const FaultEvent& event : schedule_.events) {
    if (event.kind != FaultKind::kKill && event.kind != FaultKind::kWedge &&
        event.kind != FaultKind::kDropConn) {
      continue;
    }
    if (matches(event, depth)) return &event;
  }
  return nullptr;
}

const FaultEvent* RankFaultInjector::take_frame_fault(std::int32_t depth) {
  for (std::size_t i = 0; i < schedule_.events.size(); ++i) {
    const FaultEvent& event = schedule_.events[i];
    if (event.kind != FaultKind::kDelayFrame &&
        event.kind != FaultKind::kCorruptFrame &&
        event.kind != FaultKind::kTruncateFrame &&
        event.kind != FaultKind::kPartialWrite) {
      continue;
    }
    if (fired_[i] || !matches(event, depth)) continue;
    fired_[i] = true;
    return &event;
  }
  return nullptr;
}

std::int32_t RankFaultInjector::slow_rank_ms(std::int32_t depth) const {
  std::int32_t total = 0;
  for (const FaultEvent& event : schedule_.events) {
    if (event.kind == FaultKind::kSlowRank && matches(event, depth)) {
      total += event.ms;
    }
  }
  return total;
}

bool send_frame_with_fault(int fd, std::uint32_t tag,
                           std::span<const std::uint8_t> payload,
                           const FaultEvent* event, std::uint64_t seed,
                           std::int32_t rank, std::int32_t depth) {
  if (event == nullptr) return write_frame(fd, tag, payload);
  std::vector<std::uint8_t> frame = encode_frame(tag, payload);
  switch (event->kind) {
    case FaultKind::kDelayFrame: {
      // Header out, stall, then the payload: the receiver sees a frame
      // that starts arriving and then goes quiet mid-record — the shape
      // a descheduled or paging writer produces.
      const std::size_t head = std::min<std::size_t>(frame.size(),
                                                     kFrameHeaderBytes);
      if (!write_frame_bytes(fd, std::span(frame).first(head))) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(event->ms));
      return write_frame_bytes(fd, std::span(frame).subspan(head));
    }
    case FaultKind::kCorruptFrame: {
      if (frame.size() > kFrameHeaderBytes) {
        // Deterministic corruption: the flipped payload byte derives
        // from the schedule seed and the event coordinates, after the
        // checksum was computed — the CRC must catch it.
        const std::size_t body = frame.size() - kFrameHeaderBytes;
        const std::uint64_t mix =
            (seed + 0x9E3779B97F4A7C15ull) * 0x2545F4914F6CDD1Dull +
            static_cast<std::uint64_t>(rank) * 131 +
            static_cast<std::uint64_t>(depth) * 31;
        frame[kFrameHeaderBytes + static_cast<std::size_t>(mix % body)] ^=
            0x5A;
      } else {
        frame[frame.size() - 1] ^= 0x5A;  // empty payload: corrupt the CRC
      }
      return write_frame_bytes(fd, frame);
    }
    case FaultKind::kTruncateFrame:
    case FaultKind::kPartialWrite: {
      // Half a frame, then silence with the writer still alive: the
      // reader's per-frame deadline must expire and its resync scan must
      // recover on the retransmission. (For kPartialWrite the caller
      // follows up by severing the channel — the receiver then sees the
      // partial frame end in EOF instead of a timeout.)
      const std::size_t half = std::max<std::size_t>(1, frame.size() / 2);
      (void)write_frame_bytes(fd, std::span(frame).first(half));
      return true;
    }
    case FaultKind::kKill:
    case FaultKind::kWedge:
    case FaultKind::kSlowRank:
    case FaultKind::kSpawnFail:
    case FaultKind::kDropConn:
      break;  // not frame faults; fall through to a clean write
  }
  return write_frame_bytes(fd, frame);
}

}  // namespace fastbns
