// MAP_SHARED dataset segment for the multi-process engine.
//
// fork() already shares read-only pages copy-on-write, but COW sharing is
// fragile (any stray write duplicates a page per rank). A
// SharedDatasetSegment makes the sharing explicit: one anonymous
// MAP_SHARED mapping, created before the ranks fork, holding the
// dataset's buffers. Every rank inherits the same mapping at the same
// address — the dataset is mapped exactly once machine-wide, zero copies
// per rank.
//
// The segment is statistic-agnostic: a discrete source lays out the
// column-major values, packed codes8 mirror, and (when materialized)
// row-major values; a continuous source lays out one doubles block. The
// segment exposes a Dataset view over the external buffers (the
// construct-over-external-buffer paths of dataset/discrete_dataset.hpp
// and dataset/continuous_dataset.hpp), so CI tests built over the view
// stream shm pages through the exact code paths they stream heap pages.
//
// The file-backed mode is the same segment with a name: create_file_backed
// writes a self-describing header plus the identical block layout into an
// unlinked-on-destruction temp file, and open_file maps it read-only from
// any process given only the path. Fork-inherited ranks keep using the
// anonymous mode (zero copies); ranks that do NOT share
// an address space — the socket transport's eventual multi-host workers —
// receive the path and mmap the one file, so the dataset still exists
// once per machine. Both code paths feed the same ExternalDataBuffers
// view machinery.
#pragma once

#include <cstddef>
#include <string>

#include "dataset/dataset.hpp"

namespace fastbns {

/// Anonymous MAP_SHARED memory, zero-initialized; move-only RAII.
class SharedMemoryRegion {
 public:
  SharedMemoryRegion() = default;
  ~SharedMemoryRegion();
  SharedMemoryRegion(SharedMemoryRegion&& other) noexcept;
  SharedMemoryRegion& operator=(SharedMemoryRegion&& other) noexcept;
  SharedMemoryRegion(const SharedMemoryRegion&) = delete;
  SharedMemoryRegion& operator=(const SharedMemoryRegion&) = delete;

  /// Throws std::runtime_error when mmap fails. size 0 yields empty().
  [[nodiscard]] static SharedMemoryRegion create(std::size_t size);

  /// MAP_SHARED mapping over an open file descriptor (which the caller
  /// still owns and may close after this returns — the mapping persists).
  /// `writable` selects PROT_READ|PROT_WRITE vs PROT_READ. Throws
  /// std::runtime_error when mmap fails.
  [[nodiscard]] static SharedMemoryRegion map_fd(int fd, std::size_t size,
                                                 bool writable);

  [[nodiscard]] std::byte* data() const noexcept {
    return static_cast<std::byte*>(data_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return data_ == nullptr; }

 private:
  void* data_ = nullptr;
  std::size_t size_ = 0;
};

/// A dataset copied once into a SharedMemoryRegion, plus a Dataset view
/// whose buffers live entirely in that region. Create it *before*
/// forking ranks; the view (and the segment object itself, through the
/// parent's COW heap) is then valid in every rank.
class SharedDatasetSegment {
 public:
  /// Copies `source`'s materialized buffers into one shared region — a
  /// discrete source's value/codes8/row blocks, or a continuous source's
  /// doubles block. A discrete source must have at least one value
  /// layout (it always does by construction).
  [[nodiscard]] static SharedDatasetSegment create(const Dataset& source);
  [[nodiscard]] static SharedDatasetSegment create(
      const DiscreteDataset& source);
  [[nodiscard]] static SharedDatasetSegment create(
      const ContinuousDataset& source);

  /// Like create(), but the segment lives in a temp file
  /// ($TMPDIR/fastbns-dataset-XXXXXX): a self-describing header (magic,
  /// version, kind, dims, layout flags, cardinalities) followed by the
  /// same 64-byte-aligned block layout as the anonymous mode, written
  /// once here and never modified after. The creating segment owns the
  /// file and unlinks it on destruction; path() is what a rank without a
  /// shared address space needs to mount the dataset via open_file().
  [[nodiscard]] static SharedDatasetSegment create_file_backed(
      const Dataset& source);
  [[nodiscard]] static SharedDatasetSegment create_file_backed(
      const DiscreteDataset& source);
  [[nodiscard]] static SharedDatasetSegment create_file_backed(
      const ContinuousDataset& source);

  /// Maps a create_file_backed() file read-only and reconstructs the
  /// Dataset view from its header. The opener does not own the file (no
  /// unlink on destruction). Throws std::runtime_error on open/mmap
  /// failure or a header that is not a fastbns dataset file.
  [[nodiscard]] static SharedDatasetSegment open_file(const std::string& path);

  /// The kind-agnostic view. The underlying dataset objects live behind
  /// shared_ptr storage, so the view stays address-stable across segment
  /// moves (engines hold CI tests pointing at it).
  [[nodiscard]] const Dataset& dataset() const noexcept { return view_; }
  /// Discrete-view shorthand for callers that know their source kind
  /// (throws std::logic_error on a continuous segment, like
  /// Dataset::discrete()).
  [[nodiscard]] const DiscreteDataset& view() const { return view_.discrete(); }
  [[nodiscard]] std::size_t byte_size() const noexcept {
    return region_.size();
  }

  /// The backing file's path; empty for an anonymous segment.
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] bool is_file_backed() const noexcept { return !path_.empty(); }

  ~SharedDatasetSegment();
  SharedDatasetSegment(SharedDatasetSegment&& other) noexcept;
  SharedDatasetSegment& operator=(SharedDatasetSegment&& other) noexcept;
  SharedDatasetSegment(const SharedDatasetSegment&) = delete;
  SharedDatasetSegment& operator=(const SharedDatasetSegment&) = delete;

 private:
  SharedDatasetSegment() : view_(DiscreteDataset(0, 0, {})) {}

  SharedMemoryRegion region_;
  Dataset view_;
  std::string path_;       ///< empty unless file-backed
  bool owns_file_ = false; ///< creator unlinks; openers never do
};

}  // namespace fastbns
