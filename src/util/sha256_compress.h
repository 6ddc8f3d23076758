// The SHA-256 block compressions behind util::Sha256, and a way to pin one
// of them on a Sha256. Not part of the util API: only sha256.cc, its test
// and the throughput probe (bench/sy_num_probe.cc) include this. Callers
// that want digests include util/sha256.h.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/sha256.h"

namespace sy::util::sha256_detail {

// Folds `n_blocks` consecutive 64-byte blocks at `data` into `state`
// (FIPS 180-4 §6.2.2, once per block).
using State = std::array<std::uint32_t, 8>;
using CompressFn = void (*)(State& state, const std::uint8_t* data,
                            std::size_t n_blocks);

// Plain C++: the reference, and the path on CPUs without SHA-NI.
void compress_portable(State& state, const std::uint8_t* data,
                       std::size_t n_blocks);
// x86 SHA extensions. Call only when shani_available(); off x86 this is
// compress_portable.
void compress_shani(State& state, const std::uint8_t* data,
                    std::size_t n_blocks);
// CPUID reports sha and sse4.1 (always false off x86).
bool shani_available();
// compress_shani when available, else compress_portable; chosen once.
CompressFn selected_compress();

struct Access {
  // A fresh hash that runs `compress` instead of selected_compress().
  static Sha256 with(CompressFn compress) { return Sha256(compress); }
  // The chaining value after the whole blocks seen so far.
  static const State& state(const Sha256& h) {
    return h.state_;
  }
  static std::size_t buffered(const Sha256& h) { return h.buffered_; }
};

}  // namespace sy::util::sha256_detail
