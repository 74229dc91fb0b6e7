// Flat binary serialization for block I/O.
//
// Blocks are serialized rank-locally into a Buffer, which only writes, and
// concatenated into one file at exscan-computed offsets. Every reader, of
// a mapped file (diy::BlockFileReader::block_view) or of bytes in memory
// (Buffer::view), deserializes through a BufferView cursor. Only trivially
// copyable scalars and vectors thereof are supported, which is all the
// tessellation data model needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace tess::diy {

/// Non-owning, bounds-checked read cursor over bytes someone else owns: a
/// block of a mapped file or a Buffer. The caller guarantees the bytes
/// outlive the view. A failed read throws and leaves the cursor put.
class BufferView {
 public:
  BufferView(const std::byte* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == size_; }

  template <typename T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T));
    T value;
    std::memcpy(&value, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  template <typename T>
  std::vector<T> read_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = read<std::uint64_t>();
    require_elements(n, sizeof(T));
    std::vector<T> v(n);
    if (n > 0) std::memcpy(v.data(), data_ + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }

 private:
  void require(std::size_t bytes) const {
    if (bytes > size_ - pos_)
      throw std::runtime_error("BufferView: read past end (offset " +
                               std::to_string(pos_) + " + " +
                               std::to_string(bytes) + " > " +
                               std::to_string(size_) + ")");
  }
  /// require(n * size), checked before the product can overflow.
  void require_elements(std::uint64_t n, std::size_t size) const {
    if (n > (size_ - pos_) / size)
      throw std::runtime_error("BufferView: vector of " + std::to_string(n) +
                               " elements runs past end (offset " +
                               std::to_string(pos_) + " of " +
                               std::to_string(size_) + ")");
  }

  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
};

/// Append-only byte buffer a block is serialized into.
class Buffer {
 public:
  [[nodiscard]] const std::vector<std::byte>& data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  /// Read cursor over the bytes written so far; a later write invalidates it.
  [[nodiscard]] BufferView view() const { return {data_.data(), data_.size()}; }

  template <typename T>
  void write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    append(&value, sizeof(T));
  }

  template <typename T>
  void write_vector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    write<std::uint64_t>(v.size());
    append(v.data(), v.size() * sizeof(T));
  }

 private:
  // resize + memcpy rather than vector::insert of a byte range: GCC 12
  // reports a false -Wstringop-overflow on the inlined insert.
  void append(const void* p, std::size_t bytes) {
    if (bytes == 0) return;
    const std::size_t at = data_.size();
    data_.resize(at + bytes);
    std::memcpy(data_.data() + at, p, bytes);
  }

  std::vector<std::byte> data_;
};

}  // namespace tess::diy
