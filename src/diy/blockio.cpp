#include "diy/blockio.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace tess::diy {

namespace {

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + " '" + path + "': " + std::strerror(errno));
}

[[noreturn]] void corrupt(const std::string& path, const std::string& detail) {
  throw std::runtime_error("corrupt tess block file '" + path + "': " + detail);
}

void pwrite_all(int fd, const void* data, std::size_t bytes, std::uint64_t offset,
                const std::string& path) {
  const char* p = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::pwrite(fd, p, bytes, static_cast<off_t>(offset));
    if (n < 0) fail("pwrite", path);
    p += n;
    offset += static_cast<std::uint64_t>(n);
    bytes -= static_cast<std::size_t>(n);
  }
}

void pread_all(int fd, void* data, std::size_t bytes, std::uint64_t offset,
               const std::string& path) {
  char* p = static_cast<char*>(data);
  while (bytes > 0) {
    const ssize_t n = ::pread(fd, p, bytes, static_cast<off_t>(offset));
    if (n <= 0) fail("pread", path);
    p += n;
    offset += static_cast<std::uint64_t>(n);
    bytes -= static_cast<std::size_t>(n);
  }
}

}  // namespace

std::string step_path(const std::string& pattern, int step) {
  const auto pos = pattern.find("%d");
  if (pos == std::string::npos)
    return pattern + ".step" + std::to_string(step);
  return pattern.substr(0, pos) + std::to_string(step) +
         pattern.substr(pos + 2);
}

std::uint64_t write_blocks(comm::Comm& comm, const std::string& path,
                           const Buffer& block) {
  TESS_SPAN("diy.write_blocks");
  TESS_COUNT("diy.block_bytes_written", block.size());
  // Rank 0 creates/truncates the file before anyone writes into it.
  if (comm.rank() == 0) {
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) fail("create", path);
    ::close(fd);
  }
  comm.barrier();

  // Header is just the magic; data blocks follow back to back.
  const std::uint64_t header = sizeof(std::uint64_t);
  const auto my_size = static_cast<std::uint64_t>(block.size());
  const std::uint64_t my_offset = header + comm.exscan_sum(my_size);

  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) fail("open", path);
  if (!block.data().empty())
    pwrite_all(fd, block.data().data(), block.size(), my_offset, path);

  // Footer: per-block (offset, size) gathered in rank order, then the
  // footer offset and the magic, written by rank 0 once all data is down.
  const auto offsets = comm.gather(my_offset, 0);
  const auto sizes = comm.gather(my_size, 0);
  std::uint64_t total = 0;
  if (comm.rank() == 0) {
    pwrite_all(fd, &kBlockFileMagic, sizeof(kBlockFileMagic), 0, path);
    std::uint64_t footer_off = header;
    for (auto s : sizes) footer_off += s;
    Buffer footer;
    footer.write<std::uint64_t>(static_cast<std::uint64_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r) {
      footer.write<std::uint64_t>(offsets[static_cast<std::size_t>(r)]);
      footer.write<std::uint64_t>(sizes[static_cast<std::size_t>(r)]);
    }
    footer.write<std::uint64_t>(footer_off);
    footer.write<std::uint64_t>(kBlockFileMagic);
    pwrite_all(fd, footer.data().data(), footer.size(), footer_off, path);
    total = footer_off + footer.size();
  }
  ::close(fd);
  comm.barrier();
  std::vector<std::uint64_t> box{total};
  comm.broadcast(box, 0);
  return box[0];
}

BlockFileReader::BlockFileReader(const std::string& path) : path_(path) {
  constexpr std::uint64_t kWord = sizeof(std::uint64_t);
  constexpr std::uint64_t kHeader = kWord;  // leading magic
  // Smallest legal file: magic + empty footer (count, footer_off, magic).
  constexpr std::uint64_t kMinSize = 4 * kWord;

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail("open", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail("stat", path);
  }
  file_size_ = static_cast<std::uint64_t>(st.st_size);

  try {
    if (file_size_ < kMinSize)
      corrupt(path, "truncated: " + std::to_string(file_size_) +
                        " bytes, minimum is " + std::to_string(kMinSize));

    std::uint64_t trailer[2];
    pread_all(fd, trailer, sizeof(trailer), file_size_ - sizeof(trailer), path);
    std::uint64_t head_magic = 0;
    pread_all(fd, &head_magic, sizeof(head_magic), 0, path);
    if (head_magic != kBlockFileMagic)
      corrupt(path, "bad header magic (not a tess block file)");
    if (trailer[1] != kBlockFileMagic)
      corrupt(path, "bad trailer magic (truncated or overwritten file)");

    // The footer must start after the header and leave room for its own
    // fixed part (count + footer_off + magic) before the end of the file.
    const std::uint64_t footer_off = trailer[0];
    if (footer_off < kHeader || footer_off > file_size_ - 3 * kWord)
      corrupt(path, "footer offset " + std::to_string(footer_off) +
                        " out of range for a " + std::to_string(file_size_) +
                        "-byte file");

    std::uint64_t nblocks = 0;
    pread_all(fd, &nblocks, sizeof(nblocks), footer_off, path);
    // Exactly nblocks (offset, size) pairs must fit between the count and
    // the trailer; a mismatch means the count or the file length is wrong.
    const std::uint64_t entry_bytes = file_size_ - footer_off - 3 * kWord;
    if (entry_bytes % (2 * kWord) != 0 || nblocks != entry_bytes / (2 * kWord))
      corrupt(path, "footer claims " + std::to_string(nblocks) +
                        " blocks but has room for " +
                        std::to_string(entry_bytes / (2 * kWord)));

    offsets_.resize(nblocks);
    sizes_.resize(nblocks);
    std::vector<std::uint64_t> entries(2 * nblocks);
    if (nblocks > 0)
      pread_all(fd, entries.data(), entries.size() * sizeof(std::uint64_t),
                footer_off + kWord, path);
    for (std::uint64_t b = 0; b < nblocks; ++b) {
      const std::uint64_t offset = entries[2 * b];
      const std::uint64_t size = entries[2 * b + 1];
      // Blocks live in [header, footer_off); the subtraction order avoids
      // overflow on hostile (offset, size) pairs.
      if (offset < kHeader || offset > footer_off || size > footer_off - offset)
        corrupt(path, "block " + std::to_string(b) + " extent (offset " +
                          std::to_string(offset) + ", size " +
                          std::to_string(size) +
                          ") outside the data region [" +
                          std::to_string(kHeader) + ", " +
                          std::to_string(footer_off) + ")");
      offsets_[b] = offset;
      sizes_[b] = size;
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

MappedBlockFile::MappedBlockFile(const std::string& path)
    : path_(path), index_(path) {
  TESS_SPAN("diy.mmap_open");
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) fail("open", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    fail("stat", path);
  }
  // The index was parsed from this same path moments ago; a size change in
  // between means someone is rewriting the file under us — the validated
  // extents would no longer be trustworthy.
  if (static_cast<std::uint64_t>(st.st_size) != index_.file_size()) {
    ::close(fd);
    corrupt(path, "file size changed while opening (concurrent writer?)");
  }
  void* map = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ,
                     MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) fail("mmap", path);
  map_ = static_cast<const std::byte*>(map);
  map_len_ = static_cast<std::size_t>(st.st_size);
  TESS_COUNT("diy.mmap_bytes", map_len_);
}

MappedBlockFile::~MappedBlockFile() {
  if (map_ != nullptr)
    ::munmap(const_cast<std::byte*>(map_), map_len_);
}

const std::byte* MappedBlockFile::block_data(int block) const {
  if (block < 0 || block >= num_blocks())
    throw std::out_of_range("MappedBlockFile: block index");
  return map_ + index_.block_offset(block);
}

BufferView MappedBlockFile::block_view(int block) const {
  return {block_data(block),
          static_cast<std::size_t>(index_.block_size(block))};
}

Buffer BlockFileReader::read_block(int block) const {
  if (block < 0 || block >= num_blocks())
    throw std::out_of_range("BlockFileReader: block index");
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) fail("open", path_);
  std::vector<std::byte> bytes(sizes_[static_cast<std::size_t>(block)]);
  if (!bytes.empty())
    pread_all(fd, bytes.data(), bytes.size(), offsets_[static_cast<std::size_t>(block)],
              path_);
  ::close(fd);
  return Buffer(std::move(bytes));
}

}  // namespace tess::diy
