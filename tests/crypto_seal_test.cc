#include "src/crypto/seal.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/common/rng.h"

namespace tzllm {
namespace {

AesKey128 TestKey() {
  AesKey128 key;
  Rng(41).FillBytes(key.data(), key.size());
  return key;
}

const uint8_t kHeader[5] = {'h', 'd', 'r', 0x01, 0x02};

TEST(SealerTest, RoundTripInPlaceAndOutOfPlace) {
  const Sealer sealer(TestKey());
  for (size_t len : {0, 1, 15, 16, 17, 4096, 4099}) {
    std::vector<uint8_t> plain(len);
    Rng(len).FillBytes(plain.data(), plain.size());
    std::vector<uint8_t> ct(len);
    const Sha256Digest tag = sealer.Seal(kHeader, sizeof(kHeader),
                                         plain.data(), ct.data(), len);
    std::vector<uint8_t> in_place = plain;
    EXPECT_EQ(sealer.Seal(kHeader, sizeof(kHeader), in_place.data(),
                          in_place.data(), len),
              tag);
    EXPECT_EQ(in_place, ct);
    if (len >= 16) {
      EXPECT_NE(ct, plain);
    }
    std::vector<uint8_t> out(len);
    ASSERT_TRUE(
        sealer.Open(kHeader, sizeof(kHeader), tag, ct.data(), out.data(), len)
            .ok());
    EXPECT_EQ(out, plain);
  }
}

TEST(SealerTest, DeterministicAndKeystreamFollowsContent) {
  const Sealer sealer(TestKey());
  std::vector<uint8_t> a(1000, 0x11), b(1000, 0x11);
  b[999] = 0x12;  // Differs only in the last byte.
  std::vector<uint8_t> ca(a.size()), ca2(a.size()), cb(b.size());
  const Sha256Digest ta = sealer.Seal(kHeader, sizeof(kHeader), a.data(),
                                      ca.data(), a.size());
  EXPECT_EQ(sealer.Seal(kHeader, sizeof(kHeader), a.data(), ca2.data(),
                        a.size()),
            ta);
  EXPECT_EQ(ca, ca2);  // Same input, same bytes: no hidden nonce.
  sealer.Seal(kHeader, sizeof(kHeader), b.data(), cb.data(), b.size());
  // Under one keystream the first 999 ciphertext bytes would be equal.
  EXPECT_NE(0, std::memcmp(ca.data(), cb.data(), 999));
}

TEST(SealerTest, AnyAlterationFailsAndZeroesOutput) {
  const Sealer sealer(TestKey());
  std::vector<uint8_t> plain(300);
  Rng(42).FillBytes(plain.data(), plain.size());
  std::vector<uint8_t> ct(plain.size());
  const Sha256Digest tag = sealer.Seal(kHeader, sizeof(kHeader), plain.data(),
                                       ct.data(), plain.size());
  std::vector<uint8_t> out(plain.size());
  auto open = [&](const uint8_t* header, size_t header_len,
                  const Sha256Digest& t, const std::vector<uint8_t>& c) {
    out.assign(c.size(), 0xee);
    return sealer.Open(header, header_len, t, c.data(), out.data(), c.size())
        .code();
  };
  Sha256Digest bad_tag = tag;
  bad_tag[0] ^= 1;
  EXPECT_EQ(open(kHeader, sizeof(kHeader), bad_tag, ct),
            ErrorCode::kDataCorruption);
  EXPECT_EQ(out, std::vector<uint8_t>(out.size(), 0));
  uint8_t bad_header[sizeof(kHeader)];
  std::memcpy(bad_header, kHeader, sizeof(kHeader));
  bad_header[4] ^= 0x80;
  EXPECT_EQ(open(bad_header, sizeof(bad_header), tag, ct),
            ErrorCode::kDataCorruption);
  EXPECT_EQ(open(kHeader, sizeof(kHeader) - 1, tag, ct),
            ErrorCode::kDataCorruption);
  std::vector<uint8_t> bad_ct = ct;
  bad_ct[150] ^= 0x04;
  EXPECT_EQ(open(kHeader, sizeof(kHeader), tag, bad_ct),
            ErrorCode::kDataCorruption);
  bad_ct = ct;
  bad_ct.pop_back();
  EXPECT_EQ(open(kHeader, sizeof(kHeader), tag, bad_ct),
            ErrorCode::kDataCorruption);
  AesKey128 other = TestKey();
  other[0] ^= 1;
  EXPECT_EQ(Sealer(other)
                .Open(kHeader, sizeof(kHeader), tag, ct.data(), out.data(),
                      ct.size())
                .code(),
            ErrorCode::kDataCorruption);
  EXPECT_EQ(open(kHeader, sizeof(kHeader), tag, ct), ErrorCode::kOk);
  EXPECT_EQ(out, plain);
}

}  // namespace
}  // namespace tzllm
