#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "util/rng.h"
#include "util/sha256.h"
#include "util/sha256_compress.h"

namespace sy::util {
namespace {

using sha256_detail::Access;
using sha256_detail::CompressFn;
using sha256_detail::compress_portable;
using sha256_detail::compress_shani;

using Digest = std::array<std::uint8_t, 32>;

struct Compression {
  const char* name;
  CompressFn fn;
};

const Compression kCompressions[] = {{"portable", compress_portable},
                                     {"shani", compress_shani}};

void PrintTo(const Compression& c, std::ostream* os) { *os << c.name; }

std::string to_hex(const Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string hex;
  for (const auto b : digest) {
    hex.push_back(kHex[b >> 4]);
    hex.push_back(kHex[b & 0xf]);
  }
  return hex;
}

Digest hash_with(CompressFn fn, const void* data, std::size_t len) {
  Sha256 h = Access::with(fn);
  h.update(data, len);
  return h.digest();
}

// The SHA-NI leg skips on CPUs without the extension; the portable leg
// always runs.
void skip_if_unavailable(const Compression& c) {
  if (c.fn == compress_shani && !sha256_detail::shani_available()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  }
}

std::string compression_name(
    const ::testing::TestParamInfo<Compression>& info) {
  return info.param.name;
}

// Every digest below holds for both compressions.
class Sha256Vectors : public ::testing::TestWithParam<Compression> {
 protected:
  void SetUp() override { skip_if_unavailable(GetParam()); }

  std::string hex(std::string_view data) const {
    return to_hex(hash_with(GetParam().fn, data.data(), data.size()));
  }
};

TEST_P(Sha256Vectors, EmptyString) {
  EXPECT_EQ(hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST_P(Sha256Vectors, Abc) {
  EXPECT_EQ(hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST_P(Sha256Vectors, NistTwoBlockMessage) {
  EXPECT_EQ(
      hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST_P(Sha256Vectors, MillionAs) {
  Sha256 h = Access::with(GetParam().fn);
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk.data(), chunk.size());
  EXPECT_EQ(to_hex(h.digest()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

INSTANTIATE_TEST_SUITE_P(Compressions, Sha256Vectors,
                         ::testing::ValuesIn(kCompressions), compression_name);

TEST(Sha256, DefaultUsesTheSelectedCompression) {
  const std::string data(1000, 'z');
  EXPECT_EQ(Sha256::hash(data.data(), data.size()),
            hash_with(sha256_detail::selected_compress(), data.data(),
                      data.size()));
  EXPECT_EQ(sha256_detail::selected_compress() == compress_shani,
            sha256_detail::shani_available());
}

TEST(Sha256, StreamingMatchesOneShot) {
  const std::string data = "The quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (const char c : data) h.update(&c, 1);
  const auto streamed = h.digest();
  const auto oneshot = Sha256::hash(data.data(), data.size());
  EXPECT_EQ(streamed, oneshot);
}

TEST(Sha256, DigestTwiceThrows) {
  Sha256 h;
  h.update("x", 1);
  (void)h.digest();
  EXPECT_THROW((void)h.digest(), std::logic_error);
}

TEST(Sha256, UpdateAfterDigestThrows) {
  Sha256 h;
  (void)h.digest();
  EXPECT_THROW(h.update("x", 1), std::logic_error);
}

TEST(Sha256, SensitivityToSingleBit) {
  const std::string a = "message";
  const std::string b = "messagf";  // last char +1
  EXPECT_NE(Sha256::hex(a), Sha256::hex(b));
}

// Boundary lengths around the 56/64-byte padding edges, hashed in one call
// and one byte at a time under each compression.
class Sha256Boundary
    : public ::testing::TestWithParam<std::tuple<Compression, std::size_t>> {
 protected:
  void SetUp() override { skip_if_unavailable(std::get<0>(GetParam())); }
};

TEST_P(Sha256Boundary, MatchesStreamed) {
  const auto& [compression, length] = GetParam();
  const std::string data(length, 'q');
  Sha256 h = Access::with(compression.fn);
  for (const char c : data) h.update(&c, 1);
  const auto streamed = h.digest();
  EXPECT_EQ(streamed, hash_with(compression.fn, data.data(), data.size()));
  EXPECT_EQ(streamed, hash_with(compress_portable, data.data(), data.size()));
}

INSTANTIATE_TEST_SUITE_P(
    PaddingEdges, Sha256Boundary,
    ::testing::Combine(::testing::ValuesIn(kCompressions),
                       ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119,
                                         120, 128)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param).name) + "_" +
             std::to_string(std::get<1>(info.param));
    });

// --- SHA-NI against the portable reference ---------------------------------

class Sha256Agreement : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!sha256_detail::shani_available()) {
      GTEST_SKIP() << "CPU lacks the SHA extensions";
    }
    // Seeded random bytes; 8 spare bytes so every start offset 0-7 can
    // take the longest length.
    Rng rng(2026);
    bytes_.resize(kMaxLength + 8);
    for (auto& b : bytes_) b = static_cast<std::uint8_t>(rng.next_u64());
  }

  static constexpr std::size_t kMaxLength = 4096;
  std::vector<std::uint8_t> bytes_;
};

// Every length 0..4096 at every start offset 0..7 (so the SHA-NI loads see
// each misalignment): equal chaining state before padding, equal digests.
TEST_F(Sha256Agreement, EveryLengthAndOffset) {
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= kMaxLength; ++len) {
      Sha256 portable = Access::with(compress_portable);
      Sha256 shani = Access::with(compress_shani);
      portable.update(bytes_.data() + offset, len);
      shani.update(bytes_.data() + offset, len);
      ASSERT_EQ(Access::state(portable), Access::state(shani))
          << "len " << len << " offset " << offset;
      ASSERT_EQ(portable.digest(), shani.digest())
          << "len " << len << " offset " << offset;
    }
  }
}

// A first update that leaves the block buffer partly full, then a run of
// whole blocks plus a tail: the buffered block is finished first, the rest
// is hashed straight from the caller's bytes. Both compressions must agree
// with each other and with the same bytes hashed in one call.
TEST_F(Sha256Agreement, StreamingSplitsAcrossABufferedBlock) {
  for (const std::size_t head : {1, 7, 31, 55, 56, 63, 65, 100, 127}) {
    for (const std::size_t blocks : {1, 2, 5, 17}) {
      for (const std::size_t tail : {0, 1, 9, 63}) {
        const std::size_t second = 64 * blocks + tail;
        const std::uint8_t* data = bytes_.data() + 3;
        Sha256 portable = Access::with(compress_portable);
        Sha256 shani = Access::with(compress_shani);
        portable.update(data, head);
        shani.update(data, head);
        ASSERT_EQ(Access::buffered(shani), head % 64);
        portable.update(data + head, second);
        shani.update(data + head, second);
        ASSERT_EQ(Access::state(portable), Access::state(shani))
            << "head " << head << " blocks " << blocks << " tail " << tail;
        const Digest expected =
            hash_with(compress_portable, data, head + second);
        ASSERT_EQ(portable.digest(), expected);
        ASSERT_EQ(shani.digest(), expected);
      }
    }
  }
}

}  // namespace
}  // namespace sy::util
