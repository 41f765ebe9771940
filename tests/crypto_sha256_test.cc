#include "src/crypto/sha256.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/dispatch.h"

namespace tzllm {
namespace {

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(DigestToHex(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(DigestToHex(h.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalEqualsOneShot) {
  std::vector<uint8_t> data(7777);
  Rng(11).FillBytes(data.data(), data.size());
  const Sha256Digest oneshot = Sha256::Hash(data.data(), data.size());
  // Feed in awkward chunk sizes.
  Sha256 h;
  size_t pos = 0;
  size_t chunk = 1;
  while (pos < data.size()) {
    const size_t n = std::min(chunk, data.size() - pos);
    h.Update(data.data() + pos, n);
    pos += n;
    chunk = chunk * 2 + 1;
  }
  EXPECT_EQ(h.Finalize(), oneshot);
}

TEST(Sha256Test, SingleBitFlipChangesDigest) {
  std::vector<uint8_t> data(256);
  Rng(13).FillBytes(data.data(), data.size());
  const Sha256Digest before = Sha256::Hash(data.data(), data.size());
  data[100] ^= 0x01;
  EXPECT_NE(Sha256::Hash(data.data(), data.size()), before);
}

TEST(Sha256Test, Tag64IsPrefix) {
  const Sha256Digest d = Sha256::Hash("abc");
  const uint64_t tag = DigestToTag64(d);
  EXPECT_EQ(tag >> 56, d[0]);
  EXPECT_EQ(tag & 0xFF, d[7]);
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

// FIPS 180-4 padding around a given compression slot: the reference the
// Sha256 class (which always runs the active slot) is checked against.
Sha256Digest DigestWith(const CryptoDispatch* t, const uint8_t* data,
                        size_t len) {
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  t->sha256_compress(state, data, len / 64);
  uint8_t tail[128] = {};
  const size_t rem = len % 64;
  if (rem > 0) {
    std::memcpy(tail, data + len - rem, rem);
  }
  tail[rem] = 0x80;
  const size_t tail_len = rem + 1 + 8 <= 64 ? 64 : 128;
  const uint64_t bits = static_cast<uint64_t>(len) * 8;
  for (int i = 0; i < 8; ++i) {
    tail[tail_len - 1 - i] = static_cast<uint8_t>(bits >> (8 * i));
  }
  t->sha256_compress(state, tail, tail_len / 64);
  Sha256Digest d;
  for (int i = 0; i < 8; ++i) {
    for (int b = 0; b < 4; ++b) {
      d[i * 4 + b] = static_cast<uint8_t>(state[i] >> (24 - 8 * b));
    }
  }
  return d;
}

TEST(Sha256SlotTest, LogsActiveTable) {
  // Shows in the test log which backend serves the process, so a silent
  // fallback to scalar on a host with SHA instructions is visible.
  std::printf("[crypto] active sha256 slot: %s (%zu table(s) under test)\n",
              ActiveCrypto()->sha256_isa, HostTables().size());
  EXPECT_NE(ActiveCrypto()->sha256_compress, nullptr);
}

TEST(Sha256SlotTest, NistVectorsEveryTable) {
  const std::string two_block =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  const std::string million(1000000, 'a');
  struct Vector {
    const std::string* msg;
    const char* hex;
  };
  const std::string empty, abc = "abc";
  const Vector vectors[] = {
      {&empty,
       "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {&abc,
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {&two_block,
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {&million,
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const CryptoDispatch* t : HostTables()) {
    SCOPED_TRACE(t->sha256_isa);
    for (const Vector& v : vectors) {
      const auto* p = reinterpret_cast<const uint8_t*>(v.msg->data());
      EXPECT_EQ(DigestToHex(DigestWith(t, p, v.msg->size())), v.hex);
    }
  }
}

TEST(Sha256SlotTest, EveryTableMatchesScalarAllShortLengthsAndOneMiB) {
  std::vector<uint8_t> data(1 << 20);
  Rng(31).FillBytes(data.data(), data.size());
  for (const CryptoDispatch* t : HostTables()) {
    SCOPED_TRACE(t->sha256_isa);
    for (size_t len = 0; len <= 300; ++len) {
      const Sha256Digest want = DigestWith(ScalarCrypto(), data.data(), len);
      ASSERT_EQ(DigestWith(t, data.data(), len), want) << "len=" << len;
      ASSERT_EQ(Sha256::Hash(data.data(), len), want) << "len=" << len;
    }
    const Sha256Digest want =
        DigestWith(ScalarCrypto(), data.data(), data.size());
    EXPECT_EQ(DigestWith(t, data.data(), data.size()), want);
    EXPECT_EQ(Sha256::Hash(data.data(), data.size()), want);
  }
}

TEST(Sha256SlotTest, CompressMatchesScalarFromArbitraryState) {
  Rng rng(32);
  for (const CryptoDispatch* t : HostTables()) {
    SCOPED_TRACE(t->sha256_isa);
    for (uint64_t nblocks = 0; nblocks <= 9; ++nblocks) {
      uint32_t got[8], want[8];
      for (int i = 0; i < 8; ++i) {
        got[i] = want[i] = rng.NextU32();
      }
      std::vector<uint8_t> blocks(nblocks * 64);
      rng.FillBytes(blocks.data(), blocks.size());
      t->sha256_compress(got, blocks.data(), nblocks);
      ScalarCrypto()->sha256_compress(want, blocks.data(), nblocks);
      ASSERT_EQ(0, std::memcmp(got, want, sizeof(got)))
          << "nblocks=" << nblocks;
    }
  }
}

// Incremental updates whose bulk part starts from a partly filled buffer:
// the buffered block, the multi-block run and the new tail each take a
// different path through Update.
TEST(Sha256SlotTest, BulkAfterPartialBufferMatchesOneShot) {
  std::vector<uint8_t> data(5000);
  Rng(33).FillBytes(data.data(), data.size());
  const Sha256Digest want =
      DigestWith(ScalarCrypto(), data.data(), data.size());
  for (size_t head : {1, 5, 55, 56, 63, 64, 65}) {
    for (size_t mid : {0, 7, 64, 128 + 9, 1000}) {
      Sha256 h;
      h.Update(data.data(), head);
      h.Update(data.data() + head, mid);
      h.Update(data.data() + head + mid, data.size() - head - mid);
      EXPECT_EQ(h.Finalize(), want) << "head=" << head << " mid=" << mid;
    }
  }
}

// RFC 4231 HMAC-SHA256 test cases 1-4, 6 and 7 (case 5 is truncated).
TEST(HmacSha256Test, Rfc4231) {
  struct Case {
    std::vector<uint8_t> key;
    std::string data;
    const char* hex;
  };
  std::vector<uint8_t> tc4_key(25);
  for (int i = 0; i < 25; ++i) {
    tc4_key[i] = static_cast<uint8_t>(i + 1);
  }
  const std::vector<Case> cases = {
      {std::vector<uint8_t>(20, 0x0b), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {{'J', 'e', 'f', 'e'}, "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {std::vector<uint8_t>(20, 0xaa), std::string(50, '\xdd'),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {tc4_key, std::string(50, '\xcd'),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {std::vector<uint8_t>(131, 0xaa),
       "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {std::vector<uint8_t>(131, 0xaa),
       "This is a test using a larger than block-size key and a larger "
       "than block-size data. The key needs to be hashed before being used "
       "by the HMAC algorithm.",
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (const Case& c : cases) {
    const auto* p = reinterpret_cast<const uint8_t*>(c.data.data());
    EXPECT_EQ(DigestToHex(HmacSha256::Mac(c.key.data(), c.key.size(), p,
                                          c.data.size())),
              c.hex);
    // A keyed instance copied before use gives the same tag.
    const HmacSha256 keyed(c.key.data(), c.key.size());
    HmacSha256 copy = keyed;
    copy.Update(c.data);
    EXPECT_EQ(DigestToHex(copy.Finalize()), c.hex);
  }
}

TEST(HmacSha256Test, ConstantTimeCompare) {
  const Sha256Digest a = Sha256::Hash("a");
  Sha256Digest b = a;
  EXPECT_TRUE(DigestsEqualConstantTime(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(DigestsEqualConstantTime(a, b));
}

}  // namespace
}  // namespace tzllm
