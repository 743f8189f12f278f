#include "common/omp_utils.hpp"

#include <omp.h>

#include <cctype>
#include <cstdlib>
#include <string>

namespace fastbns {

int hardware_threads() noexcept { return omp_get_max_threads(); }

int current_thread() noexcept { return omp_get_thread_num(); }

bool omp_binding_env_active() noexcept {
  // Environment-based detection on purpose: omp_get_proc_bind() reports
  // the *implementation's* resolved policy (some runtimes default to a
  // bound mode with no user intent), while the env vars are exactly the
  // user-stated binding.
  if (const char* places = std::getenv("OMP_PLACES");
      places != nullptr && places[0] != '\0') {
    return true;
  }
  const char* bind = std::getenv("OMP_PROC_BIND");
  if (bind == nullptr || bind[0] == '\0') return false;
  std::string value(bind);
  for (char& c : value) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return value != "false";
}

ScopedNumThreads::ScopedNumThreads(int num_threads) noexcept
    : previous_(omp_get_max_threads()) {
  if (num_threads > 0) omp_set_num_threads(num_threads);
}

ScopedNumThreads::~ScopedNumThreads() { omp_set_num_threads(previous_); }

}  // namespace fastbns
