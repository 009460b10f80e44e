#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/crc.hpp"

/// \file wire.hpp
/// Little-endian byte serialisation for the classical control packets of
/// Appendix E. A codec error throws WireError; protocol code treats a
/// failed parse like a lost frame (the CRC would have rejected it).

namespace qlink::net {

class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

class ByteWriter {
 public:
  /// Room for the largest Appendix E frame (the 77-byte DQP payload
  /// plus type byte and CRC), so encoding a packet allocates once.
  static constexpr std::size_t kReserve = 96;

  explicit ByteWriter(std::size_t reserve = kReserve) {
    buf_.reserve(reserve);
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void bytes(std::span<const std::uint8_t> v) {
    buf_.insert(buf_.end(), v.begin(), v.end());
  }

  std::vector<std::uint8_t> take() { return std::move(buf_); }
  /// Append the CRC-32 of everything written so far and take the
  /// buffer: seals a frame in place.
  std::vector<std::uint8_t> take_sealed() {
    u32(crc32(buf_));
    return take();
  }
  std::span<const std::uint8_t> view() const { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        data_[pos_] | (static_cast<std::uint16_t>(data_[pos_ + 1]) << 8));
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    const std::uint32_t lo = u16();
    const std::uint32_t hi = u16();
    return lo | (hi << 16);
  }
  std::uint64_t u64() {
    const std::uint64_t lo = u32();
    const std::uint64_t hi = u32();
    return lo | (hi << 32);
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  bool boolean() { return u8() != 0; }

  std::size_t remaining() const { return data_.size() - pos_; }
  void expect_end() const {
    if (pos_ != data_.size()) throw WireError("trailing bytes in packet");
  }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > data_.size()) throw WireError("packet truncated");
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace qlink::net
