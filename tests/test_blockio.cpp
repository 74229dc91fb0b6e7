// Tests for serialization buffers and the parallel blocked file format:
// write/read round trips across rank counts, footer integrity, error
// handling on malformed files, and the mapped reader's bytes against the
// file read with std::ifstream.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "diy/blockio.hpp"
#include "diy/particle.hpp"
#include "diy/serialize.hpp"

using tess::comm::Comm;
using tess::comm::Runtime;
using tess::diy::BlockFileReader;
using tess::diy::Buffer;
using tess::diy::Particle;
using tess::diy::write_blocks;

namespace {

// PID-qualified: gtest_discover_tests runs each case as its own process,
// so concurrent ctest workers must not share scratch files.
std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "tess_blockio_" + tag + "_" +
         std::to_string(::getpid()) + ".bin";
}

// Block b's bytes, read with std::ifstream and located through the footer
// parsed here: a reference that never comes from a mapping.
std::vector<char> stream_block(const std::string& path, int b) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> file{std::istreambuf_iterator<char>(in),
                               std::istreambuf_iterator<char>()};
  const auto word = [&](std::uint64_t at) {
    std::uint64_t w = 0;
    std::memcpy(&w, file.data() + at, sizeof(w));
    return w;
  };
  const std::uint64_t footer = word(file.size() - 16);
  const auto at = static_cast<std::uint64_t>(b);
  const auto offset = static_cast<std::ptrdiff_t>(word(footer + 8 + 16 * at));
  const auto size = static_cast<std::ptrdiff_t>(word(footer + 16 + 16 * at));
  return {file.begin() + offset, file.begin() + offset + size};
}

}  // namespace

TEST(Buffer, ScalarRoundTrip) {
  Buffer b;
  b.write<int>(42);
  b.write<double>(3.5);
  b.write<std::int64_t>(-7);
  auto r = b.view();
  EXPECT_EQ(r.read<int>(), 42);
  EXPECT_DOUBLE_EQ(r.read<double>(), 3.5);
  EXPECT_EQ(r.read<std::int64_t>(), -7);
  EXPECT_TRUE(r.exhausted());
}

TEST(Buffer, VectorRoundTrip) {
  Buffer b;
  b.write_vector(std::vector<double>{1, 2, 3});
  b.write_vector(std::vector<int>{});
  auto r = b.view();
  EXPECT_EQ(r.read_vector<double>(), (std::vector<double>{1, 2, 3}));
  EXPECT_TRUE(r.read_vector<int>().empty());
}

TEST(Buffer, ReadPastEndThrows) {
  Buffer b;
  b.write<int>(1);
  auto r = b.view();
  r.read<int>();
  EXPECT_THROW(r.read<int>(), std::runtime_error);
}

TEST(Buffer, ParticleRoundTrip) {
  Buffer b;
  std::vector<Particle> ps{{{1, 2, 3}, 10}, {{4, 5, 6}, 20}};
  b.write_vector(ps);
  auto r = b.view();
  auto out = r.read_vector<Particle>();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].id, 20);
  EXPECT_DOUBLE_EQ(out[1].pos.z, 6);
}

class BlockIoRanks : public ::testing::TestWithParam<int> {};

TEST_P(BlockIoRanks, WriteReadRoundTrip) {
  const int nranks = GetParam();
  const auto path = temp_path(std::to_string(nranks));
  Runtime::run(nranks, [&](Comm& c) {
    Buffer block;
    block.write<int>(c.rank());
    std::vector<double> payload(static_cast<std::size_t>(c.rank()) * 10 + 1,
                                static_cast<double>(c.rank()));
    block.write_vector(payload);
    const auto total = write_blocks(c, path, block);
    EXPECT_GT(total, 0u);
  });

  BlockFileReader reader(path);
  ASSERT_EQ(reader.num_blocks(), nranks);
  for (int b = 0; b < nranks; ++b) {
    auto buf = reader.block_view(b);
    EXPECT_EQ(buf.read<int>(), b);
    const auto payload = buf.read_vector<double>();
    EXPECT_EQ(payload.size(), static_cast<std::size_t>(b) * 10 + 1);
    for (double v : payload) EXPECT_DOUBLE_EQ(v, static_cast<double>(b));
    EXPECT_TRUE(buf.exhausted());
  }
  // The ranks wrote beside the path and renamed the file into place.
  EXPECT_FALSE(std::ifstream(path + ".partial").good());
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(RankCounts, BlockIoRanks, ::testing::Values(1, 2, 3, 8));

TEST(BlockIo, EmptyBlocksAllowed) {
  const auto path = temp_path("empty");
  Runtime::run(3, [&](Comm& c) {
    Buffer block;
    if (c.rank() == 1) block.write<int>(11);  // ranks 0 and 2 write nothing
    write_blocks(c, path, block);
  });
  BlockFileReader reader(path);
  EXPECT_EQ(reader.block_size(0), 0u);
  EXPECT_GT(reader.block_size(1), 0u);
  EXPECT_EQ(reader.block_view(1).read<int>(), 11);
  std::remove(path.c_str());
}

TEST(BlockIo, RejectsGarbageFile) {
  const auto path = temp_path("garbage");
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a tess block file at all, but long enough to parse";
  }
  EXPECT_THROW(BlockFileReader reader(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(BlockIo, RejectsMissingFile) {
  EXPECT_THROW(BlockFileReader reader("/nonexistent/path/file.bin"),
               std::runtime_error);
}

TEST(BlockIo, OutOfRangeBlockThrows) {
  const auto path = temp_path("range");
  Runtime::run(2, [&](Comm& c) {
    Buffer block;
    block.write<int>(c.rank());
    write_blocks(c, path, block);
  });
  BlockFileReader reader(path);
  EXPECT_THROW((void)reader.block_view(2), std::out_of_range);
  EXPECT_THROW((void)reader.block_view(-1), std::out_of_range);
  EXPECT_THROW(reader.release(2), std::out_of_range);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Footer validation: every malformed-file class the reader must reject with
// a diagnostic instead of undefined behavior. BlockFileReader is the one
// reader (TessReader, Snapshot and the checkpoint reader hold one).

namespace {

// Write a well-formed two-block file and return its path.
std::string valid_file(const std::string& tag) {
  const auto path = temp_path(tag);
  Runtime::run(2, [&](Comm& c) {
    Buffer block;
    block.write<int>(c.rank() + 100);
    block.write_vector(std::vector<double>{1.0, 2.0, 3.0});
    write_blocks(c, path, block);
  });
  return path;
}

std::uint64_t file_size_of(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return static_cast<std::uint64_t>(f.tellg());
}

// Overwrite the 8-byte word at `offset` in place.
void patch_word(const std::string& path, std::uint64_t offset,
                std::uint64_t value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

void truncate_to(const std::string& path, std::uint64_t size) {
  std::string bytes(size, '\0');
  {
    std::ifstream f(path, std::ios::binary);
    f.read(bytes.data(), static_cast<std::streamsize>(size));
  }
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(size));
}

// The corruption must be caught when the reader opens, with the
// "corrupt tess block file" diagnostic.
void expect_rejected(const std::string& path) {
  try {
    BlockFileReader reader(path);
    FAIL() << "BlockFileReader accepted a corrupt file";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("corrupt tess block file"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace

TEST(BlockIoValidation, RejectsTruncatedBelowMinimum) {
  const auto path = valid_file("trunc_min");
  truncate_to(path, 20);  // below the 32-byte empty-file minimum
  expect_rejected(path);
  std::remove(path.c_str());
}

TEST(BlockIoValidation, RejectsTruncatedTrailer) {
  const auto path = valid_file("trunc_tail");
  truncate_to(path, file_size_of(path) - 8);  // trailer magic gone
  expect_rejected(path);
  std::remove(path.c_str());
}

TEST(BlockIoValidation, RejectsBadHeaderMagic) {
  const auto path = valid_file("head_magic");
  patch_word(path, 0, 0xdeadbeefULL);
  expect_rejected(path);
  std::remove(path.c_str());
}

TEST(BlockIoValidation, RejectsFooterOffsetOutOfRange) {
  const auto path = valid_file("footer_off");
  const auto size = file_size_of(path);
  // The footer offset lives 16 bytes from the end (before the trailer
  // magic). Point it past the end of the file, then before the header.
  patch_word(path, size - 16, size + 1024);
  expect_rejected(path);
  patch_word(path, size - 16, 0);
  expect_rejected(path);
  std::remove(path.c_str());
}

TEST(BlockIoValidation, RejectsBlockCountMismatch) {
  const auto path = valid_file("count");
  const auto size = file_size_of(path);
  // Two blocks -> footer = count + 2 pairs + footer_off + magic = 7 words.
  const auto footer_off = size - 7 * 8;
  patch_word(path, footer_off, 5);  // claims 5 blocks, room for 2
  expect_rejected(path);
  std::remove(path.c_str());
}

TEST(BlockIoValidation, RejectsOutOfRangeBlockExtent) {
  const auto path = valid_file("extent");
  const auto size = file_size_of(path);
  const auto footer_off = size - 7 * 8;
  // Block 0's size: larger than the whole data region.
  patch_word(path, footer_off + 2 * 8, size * 2);
  expect_rejected(path);
  // Block 0's offset: inside the header.
  patch_word(path, footer_off + 1 * 8, 0);
  expect_rejected(path);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Memory-mapped reads

TEST(BlockIoMmap, ViewMatchesPreadReader) {
  const auto path = temp_path("mmap_parity");
  Runtime::run(3, [&](Comm& c) {
    Buffer block;
    block.write<int>(c.rank() * 7);
    std::vector<double> payload(static_cast<std::size_t>(c.rank()) + 1,
                                0.5 * c.rank());
    block.write_vector(payload);
    write_blocks(c, path, block);
  });

  const BlockFileReader reader(path);
  ASSERT_EQ(reader.num_blocks(), 3);
  EXPECT_EQ(reader.file_size(), file_size_of(path));
  for (int b = 0; b < 3; ++b) {
    const auto bytes = stream_block(path, b);
    ASSERT_EQ(reader.block_size(b), bytes.size());
    EXPECT_EQ(std::memcmp(reader.block_data(b), bytes.data(), bytes.size()),
              0);
    auto view = reader.block_view(b);
    EXPECT_EQ(view.read<int>(), b * 7);
    const auto payload = view.read_vector<double>();
    ASSERT_EQ(payload.size(), static_cast<std::size_t>(b) + 1);
    EXPECT_DOUBLE_EQ(payload[0], 0.5 * b);
    EXPECT_TRUE(view.exhausted());
  }
  EXPECT_THROW((void)reader.block_view(3), std::out_of_range);
  EXPECT_THROW((void)reader.block_view(-1), std::out_of_range);
  std::remove(path.c_str());
}

// Releasing a block drops its pages, edge pages shared with its neighbours
// included; every block still reads the file's bytes afterwards. Block
// sizes are not page multiples, so blocks share edge pages.
TEST(BlockIoMmap, ReleasedBlocksStillReadFileBytes) {
  const auto path = temp_path("mmap_release");
  Runtime::run(3, [&](Comm& c) {
    Buffer block;
    std::vector<double> payload(1500 + 700 * static_cast<std::size_t>(c.rank()));
    for (std::size_t i = 0; i < payload.size(); ++i)
      payload[i] = 1000.0 * c.rank() + static_cast<double>(i);
    block.write_vector(payload);
    write_blocks(c, path, block);
  });

  const BlockFileReader reader(path);
  ASSERT_EQ(reader.num_blocks(), 3);
  auto expect_file_bytes = [&](const char* when) {
    for (int b = 0; b < 3; ++b) {
      const auto bytes = stream_block(path, b);
      ASSERT_EQ(reader.block_size(b), bytes.size());
      EXPECT_EQ(std::memcmp(reader.block_data(b), bytes.data(), bytes.size()),
                0)
          << "block " << b << " " << when;
    }
  };
  expect_file_bytes("before any release");
  for (const int b : {1, 0, 2, 1}) {
    reader.release(b);
    expect_file_bytes("after a release");
  }
  EXPECT_THROW(reader.release(3), std::out_of_range);
  EXPECT_THROW(reader.release(-1), std::out_of_range);
  std::remove(path.c_str());
}

TEST(BlockIoMmap, BufferViewBoundsChecked) {
  // The view covers only 12 of the 16 backing bytes: reads past the view's
  // size must throw without advancing the cursor.
  std::byte bytes[16] = {};
  bytes[0] = std::byte{42};
  tess::diy::BufferView view(bytes, 12);
  EXPECT_EQ(view.read<std::uint32_t>(), 42u);
  EXPECT_EQ(view.read<std::uint32_t>(), 0u);
  EXPECT_EQ(view.position(), 8u);
  EXPECT_FALSE(view.exhausted());
  EXPECT_THROW(view.read<std::uint64_t>(), std::runtime_error);
  EXPECT_EQ(view.position(), 8u);  // failed read leaves the cursor put
  EXPECT_EQ(view.read<std::uint32_t>(), 0u);
  EXPECT_TRUE(view.exhausted());
  EXPECT_THROW(view.read<std::uint32_t>(), std::runtime_error);
}
