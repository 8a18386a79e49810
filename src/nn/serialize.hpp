#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace sfn::nn::io {

/// Little binary helpers shared by layer/network serialization. All
/// integers are fixed-width little-endian (we only target x86-64 here, so
/// plain writes suffice; the format carries a magic and version so it can
/// be evolved).

/// The precision slot a conv layer (Conv2D::save) and an artifact spec
/// (core::save_spec) still carry. Every network runs in fp32, so writers
/// store this value and readers reject any other.
inline constexpr std::int32_t kPrecisionTagF32 = 0;

inline void write_i32(std::ostream& out, std::int32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline std::int32_t read_i32(std::istream& in) {
  std::int32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) {
    throw std::runtime_error("nn::io: truncated stream reading i32");
  }
  return v;
}

inline void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) {
    throw std::runtime_error("nn::io: truncated stream reading u64");
  }
  return v;
}

inline void write_f64(std::ostream& out, double v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline double read_f64(std::istream& in) {
  double v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) {
    throw std::runtime_error("nn::io: truncated stream reading f64");
  }
  return v;
}

inline void write_string(std::ostream& out, const std::string& s) {
  write_i32(out, static_cast<std::int32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

inline std::string read_string(std::istream& in) {
  const std::int32_t n = read_i32(in);
  if (n < 0 || n > (1 << 20)) {
    throw std::runtime_error("nn::io: implausible string length");
  }
  std::string s(static_cast<std::size_t>(n), '\0');
  in.read(s.data(), n);
  if (!in) {
    throw std::runtime_error("nn::io: truncated stream reading string");
  }
  return s;
}

inline void write_floats(std::ostream& out, std::span<const float> xs) {
  write_i32(out, static_cast<std::int32_t>(xs.size()));
  out.write(reinterpret_cast<const char*>(xs.data()),
            static_cast<std::streamsize>(xs.size() * sizeof(float)));
}

inline void read_floats(std::istream& in, std::span<float> xs) {
  const std::int32_t n = read_i32(in);
  if (n != static_cast<std::int32_t>(xs.size())) {
    throw std::runtime_error("nn::io: weight count mismatch");
  }
  in.read(reinterpret_cast<char*>(xs.data()),
          static_cast<std::streamsize>(xs.size() * sizeof(float)));
  if (!in) {
    throw std::runtime_error("nn::io: truncated stream reading floats");
  }
}

}  // namespace sfn::nn::io
