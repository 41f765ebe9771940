#include "src/crypto/aes.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/dispatch.h"

namespace tzllm {
namespace {

AesKey128 KeyFromHex(const uint8_t (&bytes)[16]) {
  AesKey128 key;
  std::memcpy(key.data(), bytes, 16);
  return key;
}

// FIPS-197 Appendix B example vector.
TEST(Aes128Test, Fips197AppendixB) {
  const uint8_t key_bytes[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                                 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                                 0x09, 0xcf, 0x4f, 0x3c};
  uint8_t block[16] = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                       0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  const uint8_t expected[16] = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc,
                                0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97,
                                0x19, 0x6a, 0x0b, 0x32};
  Aes128 aes(KeyFromHex(key_bytes));
  aes.EncryptBlock(block);
  EXPECT_EQ(0, std::memcmp(block, expected, 16));
}

// FIPS-197 Appendix C.1 (AES-128 with the 000102... key).
TEST(Aes128Test, Fips197AppendixC1) {
  uint8_t key_bytes[16], block[16];
  for (int i = 0; i < 16; ++i) {
    key_bytes[i] = static_cast<uint8_t>(i);
    block[i] = static_cast<uint8_t>(i * 0x11);
  }
  const uint8_t expected[16] = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b,
                                0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80,
                                0x70, 0xb4, 0xc5, 0x5a};
  Aes128 aes(KeyFromHex(key_bytes));
  aes.EncryptBlock(block);
  EXPECT_EQ(0, std::memcmp(block, expected, 16));
}

// NIST SP 800-38A F.5.1 (CTR-AES128.Encrypt), all four blocks. The
// initial counter's low byte is 0xff, so block 2 also checks the carry
// from byte 15 into byte 14.
constexpr uint8_t kF51Key[16] = {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae,
                                 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88,
                                 0x09, 0xcf, 0x4f, 0x3c};
constexpr uint8_t kF51Plain[64] = {
    0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e,
    0x11, 0x73, 0x93, 0x17, 0x2a, 0xae, 0x2d, 0x8a, 0x57, 0x1e, 0x03,
    0xac, 0x9c, 0x9e, 0xb7, 0x6f, 0xac, 0x45, 0xaf, 0x8e, 0x51, 0x30,
    0xc8, 0x1c, 0x46, 0xa3, 0x5c, 0xe4, 0x11, 0xe5, 0xfb, 0xc1, 0x19,
    0x1a, 0x0a, 0x52, 0xef, 0xf6, 0x9f, 0x24, 0x45, 0xdf, 0x4f, 0x9b,
    0x17, 0xad, 0x2b, 0x41, 0x7b, 0xe6, 0x6c, 0x37, 0x10};
constexpr uint8_t kF51Cipher[64] = {
    0x87, 0x4d, 0x61, 0x91, 0xb6, 0x20, 0xe3, 0x26, 0x1b, 0xef, 0x68,
    0x64, 0x99, 0x0d, 0xb6, 0xce, 0x98, 0x06, 0xf6, 0x6b, 0x79, 0x70,
    0xfd, 0xff, 0x86, 0x17, 0x18, 0x7b, 0xb9, 0xff, 0xfd, 0xff, 0x5a,
    0xe4, 0xdf, 0x3e, 0xdb, 0xd5, 0xd3, 0x5e, 0x5b, 0x4f, 0x09, 0x02,
    0x0d, 0xb0, 0x3e, 0xab, 0x1e, 0x03, 0x1d, 0xda, 0x2f, 0xbe, 0x03,
    0xd1, 0x79, 0x21, 0x70, 0xa0, 0xf3, 0x00, 0x9c, 0xee};

AesBlock F51Iv() {
  AesBlock iv;
  for (int i = 0; i < 16; ++i) {
    iv[i] = static_cast<uint8_t>(0xf0 + i);
  }
  return iv;
}

TEST(AesCtrTest, Sp80038aF51) {
  uint8_t buf[64];
  std::memcpy(buf, kF51Plain, sizeof(buf));
  AesCtr(KeyFromHex(kF51Key), F51Iv()).CryptAll(buf, sizeof(buf));
  EXPECT_EQ(0, std::memcmp(buf, kF51Cipher, sizeof(buf)));
}

// Every table this host can run: scalar, plus the resolved table when any
// of its slots is hardware.
std::vector<const CryptoDispatch*> HostTables() {
  std::vector<const CryptoDispatch*> tables = {ScalarCrypto()};
  const CryptoDispatch* a = ActiveCrypto();
  const CryptoDispatch* s = ScalarCrypto();
  if (a->aes128_ctr_xor != s->aes128_ctr_xor ||
      a->sha256_compress != s->sha256_compress) {
    tables.push_back(ActiveCrypto());
  }
  return tables;
}

TEST(AesCtrSlotTest, LogsActiveTable) {
  // Shows in the test log which backend serves the process, so a silent
  // fallback to scalar on a host with AES instructions is visible.
  std::printf("[crypto] active aes slot: %s (%zu table(s) under test)\n",
              ActiveCrypto()->aes_isa, HostTables().size());
  EXPECT_NE(ActiveCrypto()->aes128_ctr_xor, nullptr);
}

TEST(AesCtrSlotTest, Sp80038aF51EveryTable) {
  const Aes128 aes(KeyFromHex(kF51Key));
  const AesBlock iv = F51Iv();
  for (const CryptoDispatch* t : HostTables()) {
    SCOPED_TRACE(t->aes_isa);
    uint8_t buf[64];
    std::memcpy(buf, kF51Plain, sizeof(buf));
    t->aes128_ctr_xor(aes.round_keys(), iv.data(), 0, buf, 4);
    EXPECT_EQ(0, std::memcmp(buf, kF51Cipher, sizeof(buf)));
    // The third block alone, entered at its own counter.
    std::memcpy(buf, kF51Plain + 32, 16);
    t->aes128_ctr_xor(aes.round_keys(), iv.data(), 2, buf, 1);
    EXPECT_EQ(0, std::memcmp(buf, kF51Cipher + 32, 16));
  }
}

// Independent reference for the CTR contract: counter block i is the IV's
// high 8 bytes followed by (big-endian low 8 bytes + i) mod 2^64, run
// through the scalar block cipher one byte at a time.
void ReferenceCrypt(const Aes128& aes, const AesBlock& iv, uint64_t offset,
                    uint8_t* data, size_t len) {
  uint64_t low = 0;
  for (int i = 8; i < 16; ++i) {
    low = (low << 8) | iv[i];
  }
  for (size_t i = 0; i < len; ++i) {
    const uint64_t pos = offset + i;
    uint8_t block[16];
    std::memcpy(block, iv.data(), 8);
    const uint64_t counter = low + pos / 16;
    for (int b = 0; b < 8; ++b) {
      block[15 - b] = static_cast<uint8_t>(counter >> (8 * b));
    }
    aes.EncryptBlock(block);
    data[i] ^= block[pos % 16];
  }
}

AesBlock RandomIv(Rng& rng) {
  AesBlock iv;
  rng.FillBytes(iv.data(), iv.size());
  return iv;
}

TEST(AesCtrSlotTest, EveryTableMatchesReferenceAcrossBatchBoundary) {
  Rng rng(21);
  AesKey128 key;
  rng.FillBytes(key.data(), key.size());
  const Aes128 aes(key);
  for (const CryptoDispatch* t : HostTables()) {
    SCOPED_TRACE(t->aes_isa);
    // 0..40 blocks: below, at and across the 8-block interleave (8, 16,
    // 24, 32) at random starting counters.
    for (uint64_t nblocks = 0; nblocks <= 40; ++nblocks) {
      const AesBlock iv = RandomIv(rng);
      const uint64_t first = rng.NextBounded(1000);
      std::vector<uint8_t> got(nblocks * 16);
      rng.FillBytes(got.data(), got.size());
      std::vector<uint8_t> want = got;
      t->aes128_ctr_xor(aes.round_keys(), iv.data(), first, got.data(),
                        nblocks);
      ReferenceCrypt(aes, iv, first * 16, want.data(), want.size());
      ASSERT_EQ(got, want) << "nblocks=" << nblocks;
    }
  }
}

TEST(AesCtrSlotTest, CounterWrapsWithoutCarry) {
  AesKey128 key{};
  key[3] = 0x77;
  const Aes128 aes(key);
  AesBlock iv;
  for (int i = 0; i < 8; ++i) {
    iv[i] = static_cast<uint8_t>(0xa0 + i);
  }
  for (int i = 8; i < 16; ++i) {
    iv[i] = 0xff;
  }
  iv[15] = 0xfe;  // Low half 0xFF..FE: blocks 2 and up wrap past 2^64.
  // Block 2's counter is the IV prefix followed by eight zero bytes: the
  // wrap does not carry into the high half.
  uint8_t wrapped[16] = {};
  std::memcpy(wrapped, iv.data(), 8);
  aes.EncryptBlock(wrapped);
  for (const CryptoDispatch* t : HostTables()) {
    SCOPED_TRACE(t->aes_isa);
    // 19 blocks: a full 8-block batch straddling the wrap plus a tail.
    std::vector<uint8_t> got(19 * 16, 0);
    t->aes128_ctr_xor(aes.round_keys(), iv.data(), 0, got.data(), 19);
    std::vector<uint8_t> want(got.size(), 0);
    ReferenceCrypt(aes, iv, 0, want.data(), want.size());
    EXPECT_EQ(got, want);
    EXPECT_EQ(0, std::memcmp(got.data() + 32, wrapped, 16));
  }
  std::vector<uint8_t> via_ctr(19 * 16 + 5, 0);
  AesCtr(key, iv).Crypt(3, via_ctr.data(), via_ctr.size());
  std::vector<uint8_t> want(via_ctr.size(), 0);
  ReferenceCrypt(aes, iv, 3, want.data(), want.size());
  EXPECT_EQ(via_ctr, want);
}

TEST(AesCtrSlotTest, UnalignedCryptMatchesReference) {
  Rng rng(22);
  AesKey128 key;
  rng.FillBytes(key.data(), key.size());
  const Aes128 aes(key);
  const AesBlock iv = RandomIv(rng);
  const AesCtr ctr(key, iv);
  // Every length 0..300 at an aligned and an unaligned offset.
  for (size_t len = 0; len <= 300; ++len) {
    for (uint64_t offset : {uint64_t{0}, uint64_t{16 * 5 + 7}}) {
      std::vector<uint8_t> got(len);
      rng.FillBytes(got.data(), got.size());
      std::vector<uint8_t> want = got;
      ctr.Crypt(offset, got.data(), got.size());
      ReferenceCrypt(aes, iv, offset, want.data(), want.size());
      ASSERT_EQ(got, want) << "len=" << len << " offset=" << offset;
    }
  }
  // Random (offset, len) pairs with offset % 16 != 0.
  for (int trial = 0; trial < 200; ++trial) {
    uint64_t offset = rng.NextBounded(1 << 20);
    if (offset % 16 == 0) {
      offset += 1 + rng.NextBounded(15);
    }
    const size_t len = rng.NextBounded(600);
    std::vector<uint8_t> got(len);
    rng.FillBytes(got.data(), got.size());
    std::vector<uint8_t> want = got;
    ctr.Crypt(offset, got.data(), got.size());
    ReferenceCrypt(aes, iv, offset, want.data(), want.size());
    ASSERT_EQ(got, want) << "len=" << len << " offset=" << offset;
  }
}

// Per-slot gating: a CPU with AES but not SHA-256 instructions gets the
// hardware AES slot and the scalar SHA-256 slot, and vice versa.
TEST(CryptoDispatchTest, SlotsAreGatedIndependently) {
  const CryptoDispatch* hw =
      X86Crypto() != nullptr ? X86Crypto() : Armv8Crypto();
  const CryptoDispatch* scalar = ScalarCrypto();
  const CryptoDispatch none = ResolveCrypto(hw, CryptoCpuFeatures{});
  EXPECT_EQ(none.aes128_ctr_xor, scalar->aes128_ctr_xor);
  EXPECT_EQ(none.sha256_compress, scalar->sha256_compress);
  const CryptoDispatch no_hw = ResolveCrypto(nullptr, {true, true});
  EXPECT_EQ(no_hw.aes128_ctr_xor, scalar->aes128_ctr_xor);
  EXPECT_EQ(no_hw.sha256_compress, scalar->sha256_compress);
  if (hw == nullptr) {
    GTEST_SKIP() << "no hardware crypto table built for this architecture";
  }
  const CryptoDispatch aes_only = ResolveCrypto(hw, {true, false});
  EXPECT_EQ(aes_only.aes128_ctr_xor, hw->aes128_ctr_xor);
  EXPECT_STREQ(aes_only.aes_isa, hw->aes_isa);
  EXPECT_EQ(aes_only.sha256_compress, scalar->sha256_compress);
  EXPECT_STREQ(aes_only.sha256_isa, "scalar");
  const CryptoDispatch sha_only = ResolveCrypto(hw, {false, true});
  EXPECT_EQ(sha_only.aes128_ctr_xor, scalar->aes128_ctr_xor);
  EXPECT_EQ(sha_only.sha256_compress, hw->sha256_compress);
}

TEST(AesCtrTest, EncryptDecryptRoundTrip) {
  AesKey128 key{};
  key[0] = 1;
  AesBlock iv{};
  AesCtr ctr(key, iv);
  std::vector<uint8_t> data(1000);
  Rng(3).FillBytes(data.data(), data.size());
  const std::vector<uint8_t> original = data;
  ctr.CryptAll(data.data(), data.size());
  EXPECT_NE(data, original);
  ctr.CryptAll(data.data(), data.size());
  EXPECT_EQ(data, original);
}

// The property pipelined decryption relies on: decrypting arbitrary
// sub-extents (in any order, at unaligned offsets) equals decrypting the
// whole buffer at once.
class CtrSeekTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CtrSeekTest, ChunkedEqualsWhole) {
  AesKey128 key{};
  key[5] = 0xAB;
  AesBlock iv{};
  iv[2] = 7;
  AesCtr ctr(key, iv);

  std::vector<uint8_t> whole(613);
  Rng(GetParam()).FillBytes(whole.data(), whole.size());
  std::vector<uint8_t> chunked = whole;

  ctr.CryptAll(whole.data(), whole.size());

  const size_t chunk = GetParam();
  // Process chunks in reverse order to prove order independence.
  std::vector<std::pair<size_t, size_t>> extents;
  for (size_t off = 0; off < chunked.size(); off += chunk) {
    extents.emplace_back(off, std::min(chunk, chunked.size() - off));
  }
  for (auto it = extents.rbegin(); it != extents.rend(); ++it) {
    ctr.Crypt(it->first, chunked.data() + it->first, it->second);
  }
  EXPECT_EQ(whole, chunked);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, CtrSeekTest,
                         ::testing::Values(1, 3, 16, 17, 64, 100, 613));

TEST(AesCtrTest, DistinctIvsGiveDistinctStreams) {
  AesKey128 key{};
  AesBlock iv1{}, iv2{};
  iv2[0] = 1;
  uint8_t a[32] = {0}, b[32] = {0};
  AesCtr(key, iv1).CryptAll(a, 32);
  AesCtr(key, iv2).CryptAll(b, 32);
  EXPECT_NE(0, std::memcmp(a, b, 32));
}

}  // namespace
}  // namespace tzllm
