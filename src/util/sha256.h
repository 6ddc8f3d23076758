// SHA-256 (FIPS 180-4). Used for model-file integrity digests in the model
// store (the deployment-hardening analogue of the paper's §IV-C "protecting
// data at rest"). Self-contained; no third-party dependency.
//
// Two block compressions sit behind this one API. The portable C++ one is
// the reference and the fallback. On x86 CPUs with the SHA extensions
// (CPUID sha + sse4.1, checked once per process) a second one built on
// the SHA-NI instructions runs instead, several times faster. SHA-256 is
// one fixed function, so both give identical digests: a file hashed on one
// machine verifies on any other. tests/util_sha256_test.cc checks the two
// against each other through util/sha256_compress.h.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace sy::util {

namespace sha256_detail {
struct Access;
}

class Sha256 {
 public:
  Sha256();

  // Streams `len` bytes into the hash.
  void update(const void* data, std::size_t len);
  // Finalizes and returns the 32-byte digest. The object may not be reused.
  std::array<std::uint8_t, 32> digest();

  // One-shot helpers.
  static std::array<std::uint8_t, 32> hash(const void* data, std::size_t len);
  static std::string hex(const void* data, std::size_t len);
  static std::string hex(const std::string& data);
  static std::string hex(const std::vector<std::uint8_t>& data);

 private:
  friend struct sha256_detail::Access;
  using Compress = void (*)(std::array<std::uint32_t, 8>& state,
                            const std::uint8_t* blocks, std::size_t n_blocks);
  explicit Sha256(Compress compress);

  Compress compress_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_{0};
  std::uint64_t total_bits_{0};
  bool finalized_{false};
};

}  // namespace sy::util
