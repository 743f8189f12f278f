#include "ipc/shared_dataset.hpp"

#include <sys/mman.h>

#include <cstring>
#include <stdexcept>
#include <utility>

namespace fastbns {
namespace {

/// Cache-line alignment for every buffer inside the segment, matching
/// the alignment a fresh std::vector allocation effectively gets and the
/// kCodes8Pad assumptions of the SIMD kernels.
constexpr std::size_t kSegmentAlign = 64;

std::size_t align_up(std::size_t size) noexcept {
  return (size + kSegmentAlign - 1) / kSegmentAlign * kSegmentAlign;
}

struct DiscreteLayout {
  std::size_t n = 0;
  std::size_t m = 0;
  std::size_t stride = 0;
  bool with_cols = false;
  bool with_rows = false;
  std::size_t cols_bytes = 0;
  std::size_t codes_bytes = 0;
  std::size_t rows_bytes = 0;
  [[nodiscard]] std::size_t total() const noexcept {
    return cols_bytes + codes_bytes + rows_bytes;
  }
};

/// Spans over a base pointer laid out per `layout` — the view over the
/// blocks copy_discrete just filled.
ExternalDataBuffers discrete_buffers(std::byte* base,
                                     const DiscreteLayout& layout) {
  ExternalDataBuffers buffers;
  if (layout.with_cols) {
    buffers.cols = {reinterpret_cast<DataValue*>(base), layout.n * layout.m};
    buffers.codes8 = {reinterpret_cast<std::uint8_t*>(base + layout.cols_bytes),
                      layout.n * layout.stride};
  }
  if (layout.with_rows) {
    buffers.rows = {reinterpret_cast<DataValue*>(base + layout.cols_bytes +
                                                 layout.codes_bytes),
                    layout.n * layout.m};
  }
  return buffers;
}

void copy_discrete(const DiscreteDataset& source, std::byte* base,
                   const DiscreteLayout& layout) {
  if (layout.with_cols) {
    auto* cols = reinterpret_cast<DataValue*>(base);
    auto* codes = reinterpret_cast<std::uint8_t*>(base + layout.cols_bytes);
    for (VarId v = 0; v < source.num_vars(); ++v) {
      const std::span<const DataValue> column = source.column(v);
      std::memcpy(cols + static_cast<std::size_t>(v) * layout.m, column.data(),
                  column.size_bytes());
      const std::span<const std::uint8_t> packed = source.codes8(v);
      if (!packed.empty()) {
        // Padding rows stay at the kernel's zero-fill, same as the owned
        // mirror's zero-initialized tail.
        std::memcpy(codes + static_cast<std::size_t>(v) * layout.stride,
                    packed.data(), packed.size_bytes());
      }
    }
  }
  if (layout.with_rows) {
    auto* rows = reinterpret_cast<DataValue*>(base + layout.cols_bytes +
                                              layout.codes_bytes);
    for (Count s = 0; s < source.num_samples(); ++s) {
      const std::span<const DataValue> row = source.row(s);
      std::memcpy(rows + static_cast<std::size_t>(s) * layout.n, row.data(),
                  row.size_bytes());
    }
  }
}

DiscreteLayout layout_of(const DiscreteDataset& source) {
  DiscreteLayout layout;
  layout.with_cols = source.has_column_major();
  layout.with_rows = source.has_row_major();
  if (!layout.with_cols && !layout.with_rows) {
    throw std::invalid_argument(
        "SharedDatasetSegment: source dataset has no materialized layout");
  }
  const auto n = static_cast<std::size_t>(source.num_vars());
  const auto m = static_cast<std::size_t>(source.num_samples());
  layout.n = n;
  layout.m = m;
  layout.stride = (m + DiscreteDataset::kCodes8Pad - 1) /
                  DiscreteDataset::kCodes8Pad * DiscreteDataset::kCodes8Pad;
  // Segment layout (each buffer 64-byte aligned, trailing buffers only
  // when the source materialized them):
  //   [ column-major values  n*m ][ codes8 mirror  n*stride ][ rows m*n ]
  layout.cols_bytes = layout.with_cols ? align_up(n * m) : 0;
  layout.codes_bytes = layout.with_cols ? align_up(n * layout.stride) : 0;
  layout.rows_bytes = layout.with_rows ? align_up(n * m) : 0;
  return layout;
}

void copy_continuous(const ContinuousDataset& source, std::byte* base) {
  auto* doubles = reinterpret_cast<double*>(base);
  const auto m = static_cast<std::size_t>(source.num_samples());
  for (VarId v = 0; v < source.num_vars(); ++v) {
    const std::span<const double> column = source.column(v);
    std::memcpy(doubles + static_cast<std::size_t>(v) * m, column.data(),
                column.size_bytes());
  }
}

}  // namespace

SharedMemoryRegion::~SharedMemoryRegion() {
  if (data_ != nullptr) ::munmap(data_, size_);
}

SharedMemoryRegion::SharedMemoryRegion(SharedMemoryRegion&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

SharedMemoryRegion& SharedMemoryRegion::operator=(
    SharedMemoryRegion&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) ::munmap(data_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

SharedMemoryRegion SharedMemoryRegion::create(std::size_t size) {
  SharedMemoryRegion region;
  if (size == 0) return region;
  // Anonymous (no backing file to clean up or leak a name for) and
  // MAP_SHARED: every process forked after this call sees the same
  // physical pages at the same address. Zero-initialized by the kernel.
  void* data = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (data == MAP_FAILED) {
    throw std::runtime_error(
        "SharedMemoryRegion: mmap of " + std::to_string(size) +
        " bytes failed");
  }
  region.data_ = data;
  region.size_ = size;
  return region;
}

SharedDatasetSegment SharedDatasetSegment::create(const Dataset& source) {
  return source.is_discrete() ? create(source.discrete())
                              : create(source.continuous());
}

SharedDatasetSegment SharedDatasetSegment::create(
    const DiscreteDataset& source) {
  const DiscreteLayout layout = layout_of(source);
  SharedDatasetSegment segment;
  segment.region_ = SharedMemoryRegion::create(layout.total());
  std::byte* base = segment.region_.data();
  copy_discrete(source, base, layout);
  segment.view_ =
      Dataset(DiscreteDataset(source.num_vars(), source.num_samples(),
                              source.cardinalities(),
                              discrete_buffers(base, layout)));
  return segment;
}

SharedDatasetSegment SharedDatasetSegment::create(
    const ContinuousDataset& source) {
  const auto n = static_cast<std::size_t>(source.num_vars());
  const auto m = static_cast<std::size_t>(source.num_samples());
  // Continuous segment layout: one 64-byte-aligned doubles block.
  //   [ column-major doubles  n*m ]
  SharedDatasetSegment segment;
  segment.region_ = SharedMemoryRegion::create(align_up(n * m * sizeof(double)));
  std::byte* base = segment.region_.data();
  copy_continuous(source, base);
  ExternalContinuousBuffers buffers;
  buffers.cols = {reinterpret_cast<double*>(base), n * m};
  segment.view_ = Dataset(ContinuousDataset(source.num_vars(),
                                            source.num_samples(), buffers));
  return segment;
}

}  // namespace fastbns
