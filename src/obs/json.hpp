#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

/// \file json.hpp
/// The number and field formatting every obs JSON emitter shares.
/// Doubles render as "%.17g" (round-trip exact) and integers in
/// decimal, so output is byte-deterministic across runs and platforms.

namespace qlink::obs {

inline void append_num(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

inline void append_num(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

/// `"key":value` (no separator).
inline void append_field(std::string& out, const char* key, double v) {
  out += '"';
  out += key;
  out += "\":";
  append_num(out, v);
}

inline void append_field(std::string& out, const char* key,
                         std::uint64_t v) {
  out += '"';
  out += key;
  out += "\":";
  append_num(out, v);
}

}  // namespace qlink::obs
