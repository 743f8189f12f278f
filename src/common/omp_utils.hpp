// Thin OpenMP wrappers so the rest of the library never includes <omp.h>
// directly and single-threaded builds stay possible.
#pragma once

namespace fastbns {

/// Number of logical processors OpenMP would use by default.
[[nodiscard]] int hardware_threads() noexcept;

/// Current thread index inside a parallel region (0 outside).
[[nodiscard]] int current_thread() noexcept;

/// True when the OpenMP runtime's own thread-binding controls are in
/// force: OMP_PROC_BIND set to anything but "false"/"FALSE", or
/// OMP_PLACES set non-empty. Bench context blocks record it, since bound
/// and unbound runs of the same configuration are not comparable.
[[nodiscard]] bool omp_binding_env_active() noexcept;

/// RAII override of the OpenMP thread count; restores the prior value.
/// The paper sweeps t in {1,2,4,8,16,32}, so benches construct one of
/// these per configuration point.
class ScopedNumThreads {
 public:
  explicit ScopedNumThreads(int num_threads) noexcept;
  ~ScopedNumThreads();
  ScopedNumThreads(const ScopedNumThreads&) = delete;
  ScopedNumThreads& operator=(const ScopedNumThreads&) = delete;

 private:
  int previous_;
};

}  // namespace fastbns
