#include "topology/numa_topology.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "common/logging.hpp"
#include "common/omp_utils.hpp"

#if defined(__linux__)
#include <sched.h>
#endif

namespace fastbns {
namespace {

constexpr std::size_t kPageBytes = 4096;

/// Balanced contiguous deal of `cpus` into `domains` physical domains.
std::vector<NumaDomain> deal_contiguous(const std::vector<int>& cpus,
                                        std::int32_t domains) {
  std::vector<NumaDomain> result(static_cast<std::size_t>(domains));
  const std::size_t n = cpus.size();
  const auto d = static_cast<std::size_t>(domains);
  std::size_t begin = 0;
  for (std::size_t k = 0; k < d; ++k) {
    const std::size_t size = n / d + (k < n % d ? 1 : 0);
    result[k].id = static_cast<std::int32_t>(k);
    result[k].cpus.assign(cpus.begin() + static_cast<std::ptrdiff_t>(begin),
                          cpus.begin() +
                              static_cast<std::ptrdiff_t>(begin + size));
    begin += size;
  }
  return result;
}

/// Strictly-parsed positive integer; returns -1 on anything else.
int parse_positive_int(std::string_view text) {
  if (text.empty() || text.size() > 9) return -1;
  int value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return -1;
    value = value * 10 + (c - '0');
  }
  return value > 0 ? value : -1;
}

}  // namespace

std::vector<int> parse_cpulist(std::string_view text) {
  // Strip trailing whitespace (sysfs files end in '\n').
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back())) != 0) {
    text.remove_suffix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front())) != 0) {
    text.remove_prefix(1);
  }
  if (text.empty()) {
    throw std::invalid_argument("parse_cpulist: empty cpu list");
  }
  // Digits-only cpu number; -1 on anything else (including empty).
  const auto parse_cpu = [](std::string_view token) -> int {
    if (token.empty() || token.size() > 7 ||
        token.find_first_not_of("0123456789") != std::string_view::npos) {
      return -1;
    }
    int value = 0;
    for (const char c : token) value = value * 10 + (c - '0');
    return value;
  };
  std::vector<int> cpus;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string_view token = text.substr(pos, comma - pos);
    const std::size_t dash = token.find('-');
    const int lo = parse_cpu(dash == std::string_view::npos
                                 ? token
                                 : token.substr(0, dash));
    const int hi = dash == std::string_view::npos
                       ? lo
                       : parse_cpu(token.substr(dash + 1));
    if (lo < 0 || hi < lo) {
      throw std::invalid_argument("parse_cpulist: malformed token \"" +
                                  std::string(token) + "\" in \"" +
                                  std::string(text) + "\"");
    }
    for (int cpu = lo; cpu <= hi; ++cpu) cpus.push_back(cpu);
    if (comma == text.size()) break;
    pos = comma + 1;
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

std::vector<int> current_affinity_cpus() {
#if defined(__linux__)
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
    }
    if (!cpus.empty()) return cpus;
  }
#endif
  std::vector<int> cpus(static_cast<std::size_t>(
      std::max(1, hardware_threads())));
  std::iota(cpus.begin(), cpus.end(), 0);
  return cpus;
}

NumaTopology::NumaTopology(std::vector<NumaDomain> domains, bool physical)
    : domains_(std::move(domains)), physical_(physical) {}

NumaTopology::NumaTopology() : NumaTopology(single_node()) {}

NumaTopology NumaTopology::single_node(std::vector<int> cpus) {
  if (cpus.empty()) cpus = current_affinity_cpus();
  NumaDomain domain;
  domain.id = 0;
  domain.cpus = std::move(cpus);
  return NumaTopology({std::move(domain)}, /*physical=*/true);
}

NumaTopology NumaTopology::simulated(std::int32_t domains,
                                     int cpus_per_domain) {
  if (domains < 1 || cpus_per_domain < 1) {
    throw std::invalid_argument(
        "NumaTopology::simulated: domains and cpus_per_domain must be >= 1, "
        "got " +
        std::to_string(domains) + "x" + std::to_string(cpus_per_domain));
  }
  std::vector<NumaDomain> result(static_cast<std::size_t>(domains));
  for (std::int32_t k = 0; k < domains; ++k) {
    auto& domain = result[static_cast<std::size_t>(k)];
    domain.id = k;
    domain.cpus.resize(static_cast<std::size_t>(cpus_per_domain));
    std::iota(domain.cpus.begin(), domain.cpus.end(), k * cpus_per_domain);
  }
  return NumaTopology(std::move(result), /*physical=*/false);
}

NumaTopology NumaTopology::split_affinity(std::int32_t domains) {
  if (domains < 1) {
    throw std::invalid_argument(
        "NumaTopology::split_affinity: domains must be >= 1, got " +
        std::to_string(domains));
  }
  const std::vector<int> cpus = current_affinity_cpus();
  const auto clamped = static_cast<std::int32_t>(std::min<std::size_t>(
      static_cast<std::size_t>(domains), cpus.size()));
  return NumaTopology(deal_contiguous(cpus, std::max(clamped, 1)),
                      /*physical=*/true);
}

NumaTopology NumaTopology::from_sysfs(const std::string& node_dir) {
  std::vector<NumaDomain> domains;
  std::error_code ec;
  // Node ids need not be dense; scan an id range well past any real box.
  for (std::int32_t node = 0; node < 1024; ++node) {
    const std::filesystem::path cpulist =
        std::filesystem::path(node_dir) / ("node" + std::to_string(node)) /
        "cpulist";
    if (!std::filesystem::exists(cpulist, ec)) continue;
    std::ifstream file(cpulist);
    std::stringstream buffer;
    buffer << file.rdbuf();
    try {
      NumaDomain domain;
      domain.id = static_cast<std::int32_t>(domains.size());
      domain.cpus = parse_cpulist(buffer.str());
      domains.push_back(std::move(domain));
    } catch (const std::invalid_argument& error) {
      Log(LogLevel::kWarn) << "numa: malformed " << cpulist.string() << " ("
                           << error.what()
                           << "); falling back to a single node";
      return single_node();
    }
  }
  if (domains.empty()) return single_node();
  return NumaTopology(std::move(domains), /*physical=*/true);
}

NumaTopology NumaTopology::detect() {
  const char* env = std::getenv("FASTBNS_NUMA");
  if (env != nullptr && *env != '\0') {
    const std::string_view value(env);
    if (value == "off") return single_node();
    const std::size_t x = value.find('x');
    if (x == std::string_view::npos) {
      const int domains = parse_positive_int(value);
      if (domains > 0) return split_affinity(domains);
    } else {
      const int domains = parse_positive_int(value.substr(0, x));
      const int cpus = parse_positive_int(value.substr(x + 1));
      if (domains > 0 && cpus > 0) return simulated(domains, cpus);
    }
    Log(LogLevel::kWarn)
        << "numa: malformed FASTBNS_NUMA=\"" << value
        << "\" (expected off, <domains>, or <domains>x<cpus>); ignoring";
  }
  return from_sysfs("/sys/devices/system/node");
}

std::string NumaTopology::describe() const {
  std::ostringstream out;
  out << num_domains() << (physical_ ? " node" : " simulated node")
      << (num_domains() == 1 ? "" : "s") << " (";
  for (std::size_t k = 0; k < domains_.size(); ++k) {
    if (k > 0) out << '+';
    out << domains_[k].cpus.size();
  }
  out << (domains_.size() == 1 ? " cpus)" : " cpus)");
  return out.str();
}

bool pin_current_thread(const std::vector<int>& cpus) {
#if defined(__linux__)
  if (cpus.empty()) return false;
  cpu_set_t current;
  CPU_ZERO(&current);
  if (sched_getaffinity(0, sizeof(current), &current) != 0) return false;
  cpu_set_t target;
  CPU_ZERO(&target);
  int permitted = 0;
  for (const int cpu : cpus) {
    if (cpu >= 0 && cpu < CPU_SETSIZE && CPU_ISSET(cpu, &current)) {
      CPU_SET(cpu, &target);
      ++permitted;
    }
  }
  // A restricted cpuset (or a synthetic cpu list) leaves nothing to pin
  // to; stay on the current mask rather than failing the run.
  if (permitted == 0) return false;
  return sched_setaffinity(0, sizeof(target), &target) == 0;
#else
  (void)cpus;
  return false;
#endif
}

ScopedThreadAffinity::ScopedThreadAffinity(const std::vector<int>& cpus) {
#if defined(__linux__)
  saved_ = current_affinity_cpus();
#endif
  pinned_ = pin_current_thread(cpus);
}

ScopedThreadAffinity::~ScopedThreadAffinity() {
#if defined(__linux__)
  if (!pinned_) return;
  // Set the saved mask verbatim: pin_current_thread intersects with the
  // current, already narrowed mask, so it could never widen back.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  for (const int cpu : saved_) {
    if (cpu >= 0 && cpu < CPU_SETSIZE) CPU_SET(cpu, &saved);
  }
  (void)sched_setaffinity(0, sizeof(saved), &saved);
#endif
}

std::size_t prefault_readonly(const void* data, std::size_t size) {
  if (data == nullptr || size == 0) return 0;
  const auto* bytes = static_cast<const volatile unsigned char*>(data);
  std::size_t pages = 0;
  // The compiler cannot elide volatile reads; one per page faults the
  // whole range in from the calling thread.
  for (std::size_t offset = 0; offset < size; offset += kPageBytes) {
    (void)bytes[offset];
    ++pages;
  }
  (void)bytes[size - 1];  // the tail page when size % page != 0
  return pages;
}

}  // namespace fastbns
