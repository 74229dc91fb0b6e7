// Parallel blocked-file I/O, modeled on DIY's single-shared-file format.
//
// Write path (collective): each rank serializes its block, an exclusive
// scan of the block sizes yields each rank's byte offset, all ranks pwrite
// concurrently into one file, and rank 0 appends a footer index (per-block
// offset + size) plus a trailer pointing at the footer. This is the same
// algorithm the paper's tess uses against GPFS, executed against POSIX.
// The ranks write `<path>.partial`, which rank 0 puts in place of `path`
// once the footer is down (exchanging the two names and unlinking the old
// file): a reader that holds the old file keeps reading it, and a write
// that fails leaves it in place.
//
// Read path: any process can open the file and fetch an arbitrary subset
// of blocks, which is what the postprocessing tools (the "ParaView plugin"
// equivalent) and the query service do. BlockFileReader opens the file
// once, maps it, checks the footer on the mapped bytes and reads every
// block from that one mapping.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "diy/serialize.hpp"

namespace tess::diy {

inline constexpr std::uint64_t kBlockFileMagic = 0x54455353424c4b31ULL;  // "TESSBLK1"

/// Collective write: rank r contributes `block` as block r of `nranks`.
/// Returns the total file size in bytes (valid on every rank).
///
/// Thread-safe in the write-behind sense: the call only touches `comm`,
/// `path`, and `block`, so a dedicated writer thread per rank (each with
/// its own tag-plane Comm, see core/pipeline.hpp) can run one collective
/// write per step while other threads of the same ranks simulate and mesh
/// — as long as any one plane issues its collectives in the same order on
/// every rank, which the pipeline's in-order queues guarantee.
std::uint64_t write_blocks(comm::Comm& comm, const std::string& path,
                           const Buffer& block);

/// Expand a per-step output path: replaces the first "%d" in `pattern`
/// with the decimal step, or appends ".step<N>" if no placeholder.
std::string step_path(const std::string& pattern, int step);

/// Reader for a blocked file; not collective.
///
/// The constructor opens the file once, maps all of it read-only
/// (`MAP_PRIVATE`) and validates the whole footer on the mapped bytes
/// before any block access: header and trailer magic, a footer offset
/// inside the file, a footer whose entry count matches the bytes actually
/// present, and per-block (offset, size) extents that stay inside the data
/// region. A truncated, corrupted, or foreign file therefore fails here
/// with a diagnostic naming the path and the violated invariant, never as
/// UB in a later block read. The footer that was checked and the bytes
/// that are read come from the same open: renaming another file over the
/// path, or removing it, does not change what the reader sees.
///
/// block_view() hands out zero-copy cursors into the mapping, so readers
/// share the page cache with no per-block open, pread or heap staging.
/// Immutable after construction, therefore freely shared across threads:
/// release() only drops resident pages, and a later read faults the same
/// bytes back in.
class BlockFileReader {
 public:
  explicit BlockFileReader(const std::string& path);
  ~BlockFileReader();

  BlockFileReader(const BlockFileReader&) = delete;
  BlockFileReader& operator=(const BlockFileReader&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] int num_blocks() const { return static_cast<int>(sizes_.size()); }
  [[nodiscard]] std::uint64_t block_size(int block) const {
    return sizes_[checked(block)];
  }
  [[nodiscard]] std::uint64_t block_offset(int block) const {
    return offsets_[checked(block)];
  }
  [[nodiscard]] std::uint64_t file_size() const { return map_len_; }

  /// Pointer to the first byte of a block inside the mapping.
  [[nodiscard]] const std::byte* block_data(int block) const {
    return map_ + block_offset(block);
  }

  /// Zero-copy read cursor over one block's bytes.
  [[nodiscard]] BufferView block_view(int block) const {
    return {block_data(block), static_cast<std::size_t>(block_size(block))};
  }

  /// Drops the resident pages of one block's page-rounded range from the
  /// mapping (madvise MADV_DONTNEED), for a caller that has copied the
  /// block out. The mapping is private and read-only, so nothing is lost:
  /// a later read, of this block or of a neighbour sharing an edge page,
  /// refaults the file's bytes from the page cache.
  void release(int block) const;

 private:
  /// `block` as an index; throws std::out_of_range outside [0, num_blocks).
  [[nodiscard]] std::size_t checked(int block) const;

  std::string path_;
  std::vector<std::uint64_t> offsets_;
  std::vector<std::uint64_t> sizes_;
  const std::byte* map_ = nullptr;
  std::size_t map_len_ = 0;
};

}  // namespace tess::diy
