#include "util/sha256.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/sha256_compress.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SY_SHA256_HAVE_SHANI 1
#include <immintrin.h>
#else
#define SY_SHA256_HAVE_SHANI 0
#endif

namespace sy::util {

namespace sha256_detail {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

constexpr std::size_t kBlockBytes = 64;

void process_block(State& state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[4 * i]} << 24) |
           (std::uint32_t{block[4 * i + 1]} << 16) |
           (std::uint32_t{block[4 * i + 2]} << 8) |
           std::uint32_t{block[4 * i + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 =
        rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 =
        rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  auto [a, b, c, d, e, f, g, h] = state;
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

void compress_portable(State& state, const std::uint8_t* data,
                       std::size_t n_blocks) {
  for (; n_blocks > 0; --n_blocks, data += kBlockBytes) {
    process_block(state, data);
  }
}

#if SY_SHA256_HAVE_SHANI

#define SY_SHANI __attribute__((target("sha,sse4.1")))

bool shani_available() {
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}

// The SHA-NI round instruction keeps the eight working variables as two
// lanes-of-four, ABEF and CDGH, and does two rounds per call; each group of
// four rounds takes one message vector W[4g..4g+3] + K[4g..4g+3]. From
// group 4 on, msg1/msg2 extend the schedule from the previous four vectors
// (FIPS 180-4 §6.2.2 step 1, four words at a time).
SY_SHANI void compress_shani(State& state, const std::uint8_t* data,
                             std::size_t n_blocks) {
  // Big-endian message words into little-endian lanes.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data()));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data() + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; n_blocks > 0; --n_blocks, data += kBlockBytes) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i msg[4];
    for (int i = 0; i < 4; ++i) {
      msg[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          bswap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g >= 4) {
        // W[4g..] from W[4g-16..], W[4g-12..], W[4g-7..] and W[4g-4..];
        // msg[g % 4] still holds group g-4's words.
        const __m128i prev = msg[(g + 3) % 4];
        const __m128i w7 = _mm_alignr_epi8(prev, msg[(g + 2) % 4], 4);
        const __m128i s0 = _mm_sha256msg1_epu32(msg[g % 4], msg[(g + 1) % 4]);
        msg[g % 4] = _mm_sha256msg2_epu32(_mm_add_epi32(s0, w7), prev);
      }
      const __m128i wk = _mm_add_epi32(
          msg[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                          kRoundConstants.data() + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data() + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

#else  // SY_SHA256_HAVE_SHANI

bool shani_available() { return false; }

void compress_shani(State& state, const std::uint8_t* data,
                    std::size_t n_blocks) {
  compress_portable(state, data, n_blocks);
}

#endif  // SY_SHA256_HAVE_SHANI

CompressFn selected_compress() {
  static const CompressFn selected =
      shani_available() ? compress_shani : compress_portable;
  return selected;
}

}  // namespace sha256_detail

Sha256::Sha256() : Sha256(sha256_detail::selected_compress()) {}

Sha256::Sha256(Compress compress)
    : compress_(compress),
      state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::update(const void* data, std::size_t len) {
  if (finalized_) throw std::logic_error("Sha256::update after digest()");
  if (len == 0) return;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  total_bits_ += std::uint64_t{len} * 8;
  if (buffered_ > 0) {
    const std::size_t take = std::min(len, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, bytes, take);
    buffered_ += take;
    bytes += take;
    len -= take;
    if (buffered_ < buffer_.size()) return;
    compress_(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  // Whole blocks straight from the caller's bytes; only the tail is copied.
  const std::size_t n_blocks = len / buffer_.size();
  if (n_blocks > 0) {
    compress_(state_, bytes, n_blocks);
    bytes += n_blocks * buffer_.size();
    len -= n_blocks * buffer_.size();
  }
  if (len > 0) std::memcpy(buffer_.data(), bytes, len);
  buffered_ = len;
}

std::array<std::uint8_t, 32> Sha256::digest() {
  if (finalized_) throw std::logic_error("Sha256::digest called twice");
  finalized_ = true;

  const std::uint64_t bits = total_bits_;
  const std::uint8_t pad = 0x80;
  finalized_ = false;  // allow the padding updates below
  update(&pad, 1);
  const std::uint8_t zero = 0x00;
  while (buffered_ != 56) update(&zero, 1);
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  }
  update(len_be, 8);
  finalized_ = true;

  std::array<std::uint8_t, 32> out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

std::array<std::uint8_t, 32> Sha256::hash(const void* data, std::size_t len) {
  Sha256 h;
  h.update(data, len);
  return h.digest();
}

std::string Sha256::hex(const void* data, std::size_t len) {
  const auto d = hash(data, len);
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (const auto byte : d) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

std::string Sha256::hex(const std::string& data) {
  return hex(data.data(), data.size());
}

std::string Sha256::hex(const std::vector<std::uint8_t>& data) {
  return hex(data.data(), data.size());
}

}  // namespace sy::util
