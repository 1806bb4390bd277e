// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) used by the tensor
// snapshot container (tensor/serialize.hpp) for per-record and whole-file
// integrity checks. Table-driven, byte-at-a-time — plenty fast for snapshot
// I/O.
#pragma once

#include <cstddef>
#include <cstdint>

namespace netllm::core {

/// One-shot CRC over a buffer. Chain calls by passing the previous result
/// as `seed` to checksum discontiguous regions.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

/// Incremental CRC for streaming writers.
class Crc32 {
 public:
  void update(const void* data, std::size_t len) { value_ = crc32(data, len, value_); }
  std::uint32_t value() const { return value_; }

 private:
  std::uint32_t value_ = 0;
};

}  // namespace netllm::core
