#include "diy/blockio.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
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
  // The ranks write beside `path`, never into it: truncating a file in
  // place would pull its pages from under any reader that maps it.
  const std::string partial = path + ".partial";
  // Rank 0 creates/truncates the file before anyone writes into it.
  if (comm.rank() == 0) {
    const int fd = ::open(partial.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) fail("create", partial);
    ::close(fd);
  }
  comm.barrier();

  // Header is just the magic; data blocks follow back to back.
  const std::uint64_t header = sizeof(std::uint64_t);
  const auto my_size = static_cast<std::uint64_t>(block.size());
  const std::uint64_t my_offset = header + comm.exscan_sum(my_size);

  const int fd = ::open(partial.c_str(), O_WRONLY);
  if (fd < 0) fail("open", partial);
  if (!block.data().empty())
    pwrite_all(fd, block.data().data(), block.size(), my_offset, partial);

  // Footer: per-block (offset, size) gathered in rank order, then the
  // footer offset and the magic, written by rank 0 once all data is down.
  // Rank 0 then puts the finished file in place of `path`; a reader that
  // mapped the old file keeps the old inode.
  const auto offsets = comm.gather(my_offset, 0);
  const auto sizes = comm.gather(my_size, 0);
  std::uint64_t total = 0;
  if (comm.rank() == 0) {
    pwrite_all(fd, &kBlockFileMagic, sizeof(kBlockFileMagic), 0, partial);
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
    pwrite_all(fd, footer.data().data(), footer.size(), footer_off, partial);
    total = footer_off + footer.size();
    // Swap the names, then drop the old file: `path` always names a whole
    // file. A plain rename over an existing file makes ext4 write the new
    // file back to disk at once (its replace-by-rename heuristic), which
    // costs about as much as the write; exchanging names does not. No old
    // file, or no exchange on this file system: rename.
    if (::renameat2(AT_FDCWD, partial.c_str(), AT_FDCWD, path.c_str(),
                    RENAME_EXCHANGE) == 0)
      ::unlink(partial.c_str());
    else if (::rename(partial.c_str(), path.c_str()) != 0)
      fail("rename", partial);
  }
  ::close(fd);
  comm.barrier();
  std::vector<std::uint64_t> box{total};
  comm.broadcast(box, 0);
  return box[0];
}

BlockFileReader::BlockFileReader(const std::string& path) : path_(path) {
  TESS_SPAN("diy.mmap_open");
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
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  if (file_size < kMinSize) {
    ::close(fd);
    corrupt(path, "truncated: " + std::to_string(file_size) +
                      " bytes, minimum is " + std::to_string(kMinSize));
  }
  void* map = ::mmap(nullptr, static_cast<std::size_t>(file_size), PROT_READ,
                     MAP_PRIVATE, fd, 0);
  if (map == MAP_FAILED) {
    ::close(fd);
    fail("mmap", path);
  }
  ::close(fd);  // the mapping keeps the file
  map_ = static_cast<const std::byte*>(map);
  map_len_ = static_cast<std::size_t>(file_size);
  const auto word = [&](std::uint64_t offset) {
    std::uint64_t w = 0;
    std::memcpy(&w, map_ + offset, sizeof(w));
    return w;
  };

  try {
    if (word(0) != kBlockFileMagic)
      corrupt(path, "bad header magic (not a tess block file)");
    if (word(file_size - kWord) != kBlockFileMagic)
      corrupt(path, "bad trailer magic (truncated or overwritten file)");

    // The footer must start after the header and leave room for its own
    // fixed part (count + footer_off + magic) before the end of the file.
    const std::uint64_t footer_off = word(file_size - 2 * kWord);
    if (footer_off < kHeader || footer_off > file_size - 3 * kWord)
      corrupt(path, "footer offset " + std::to_string(footer_off) +
                        " out of range for a " + std::to_string(file_size) +
                        "-byte file");

    const std::uint64_t nblocks = word(footer_off);
    // Exactly nblocks (offset, size) pairs must fit between the count and
    // the trailer; a mismatch means the count or the file length is wrong.
    const std::uint64_t entry_bytes = file_size - footer_off - 3 * kWord;
    if (entry_bytes % (2 * kWord) != 0 || nblocks != entry_bytes / (2 * kWord))
      corrupt(path, "footer claims " + std::to_string(nblocks) +
                        " blocks but has room for " +
                        std::to_string(entry_bytes / (2 * kWord)));

    offsets_.resize(nblocks);
    sizes_.resize(nblocks);
    for (std::uint64_t b = 0; b < nblocks; ++b) {
      const std::uint64_t offset = word(footer_off + (2 * b + 1) * kWord);
      const std::uint64_t size = word(footer_off + (2 * b + 2) * kWord);
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
    ::munmap(map, map_len_);
    throw;
  }
  TESS_COUNT("diy.mmap_bytes", map_len_);
}

BlockFileReader::~BlockFileReader() {
  ::munmap(const_cast<std::byte*>(map_), map_len_);
}

std::size_t BlockFileReader::checked(int block) const {
  if (block < 0 || block >= num_blocks())
    throw std::out_of_range("BlockFileReader: block index");
  return static_cast<std::size_t>(block);
}

void BlockFileReader::release(int block) const {
  const std::uint64_t offset = block_offset(block);
  const std::uint64_t size = block_size(block);
  if (size == 0) return;
  static const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  const std::uint64_t begin = offset / page * page;
  // Advice only: a failure leaves the pages resident, which is harmless.
  // The kernel rounds the length up to whole pages.
  (void)::madvise(const_cast<std::byte*>(map_) + begin,
                  static_cast<std::size_t>(offset + size - begin),
                  MADV_DONTNEED);
}

}  // namespace tess::diy
