// Parallel blocked-file I/O, modeled on DIY's single-shared-file format.
//
// Write path (collective): each rank serializes its block, an exclusive
// scan of the block sizes yields each rank's byte offset, all ranks pwrite
// concurrently into one file, and rank 0 appends a footer index (per-block
// offset + size) plus a trailer pointing at the footer. This is the same
// algorithm the paper's tess uses against GPFS, executed against POSIX.
//
// Read path: any process can open the file, read the footer, and fetch an
// arbitrary subset of blocks — which is what the postprocessing tools (the
// "ParaView plugin" equivalent) do.
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
/// The constructor validates the whole footer before any block access:
/// header and trailer magic, a footer offset inside the file, a footer
/// whose entry count matches the bytes actually present, and per-block
/// (offset, size) extents that stay inside the data region. A truncated,
/// corrupted, or foreign file therefore fails here with a diagnostic
/// naming the path and the violated invariant — never as UB in a later
/// read_block (or in the mmap path, which reuses this index verbatim).
class BlockFileReader {
 public:
  explicit BlockFileReader(const std::string& path);

  [[nodiscard]] int num_blocks() const { return static_cast<int>(sizes_.size()); }
  [[nodiscard]] std::uint64_t block_size(int block) const {
    return sizes_[static_cast<std::size_t>(block)];
  }
  [[nodiscard]] std::uint64_t block_offset(int block) const {
    return offsets_[static_cast<std::size_t>(block)];
  }
  [[nodiscard]] std::uint64_t file_size() const { return file_size_; }

  /// Read one block's bytes into a Buffer positioned at the start.
  [[nodiscard]] Buffer read_block(int block) const;

 private:
  std::string path_;
  std::vector<std::uint64_t> offsets_;
  std::vector<std::uint64_t> sizes_;
  std::uint64_t file_size_ = 0;
};

/// Memory-mapped random access to a blocked file — the serving-side
/// counterpart of BlockFileReader (DESIGN.md §4.12). The footer index is
/// parsed and validated by the same BlockFileReader code path, then the
/// whole file is mapped read-only once; block_view() hands out zero-copy
/// cursors into the mapping, so concurrent readers share the page cache
/// with no per-query open/pread and no heap staging. Immutable after
/// construction, therefore freely shared across threads.
class MappedBlockFile {
 public:
  explicit MappedBlockFile(const std::string& path);
  ~MappedBlockFile();

  MappedBlockFile(const MappedBlockFile&) = delete;
  MappedBlockFile& operator=(const MappedBlockFile&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] int num_blocks() const { return index_.num_blocks(); }
  [[nodiscard]] std::uint64_t block_size(int block) const {
    return index_.block_size(block);
  }
  [[nodiscard]] std::uint64_t file_size() const { return index_.file_size(); }

  /// Pointer to the first byte of a block inside the mapping.
  [[nodiscard]] const std::byte* block_data(int block) const;

  /// Zero-copy read cursor over one block's bytes.
  [[nodiscard]] BufferView block_view(int block) const;

 private:
  std::string path_;
  BlockFileReader index_;
  const std::byte* map_ = nullptr;
  std::size_t map_len_ = 0;
};

}  // namespace tess::diy
