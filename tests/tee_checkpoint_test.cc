#include "src/tee/checkpoint.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/crypto/sha256.h"
#include "src/hw/platform.h"

namespace tzllm {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  CheckpointTest() : svc_(&plat_.flash()) {
    key_.fill(0);
    key_[0] = 9;
  }

  SocPlatform plat_;
  CheckpointService svc_;
  AesKey128 key_;
};

TEST_F(CheckpointTest, SaveRestoreRoundTrip) {
  std::vector<uint8_t> state(5000);
  Rng(4).FillBytes(state.data(), state.size());
  auto size = svc_.Save("m", key_, state);
  ASSERT_TRUE(size.ok());
  EXPECT_GT(*size, state.size());
  EXPECT_TRUE(svc_.Exists("m"));

  auto restored = svc_.Restore("m", key_);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, state);
}

TEST_F(CheckpointTest, StateIsEncryptedOnFlash) {
  std::vector<uint8_t> state(256, 0x42);
  ASSERT_TRUE(svc_.Save("m", key_, state).ok());
  // Read raw flash content: the payload must not contain the plaintext run.
  auto size = plat_.flash().FileSize("m.ckpt");
  ASSERT_TRUE(size.ok());
  std::vector<uint8_t> raw(*size);
  ASSERT_TRUE(plat_.flash().PeekBytes("m.ckpt", 0, *size, raw.data()).ok());
  int runs_of_42 = 0;
  for (size_t i = 0; i + 4 <= raw.size(); ++i) {
    if (raw[i] == 0x42 && raw[i + 1] == 0x42 && raw[i + 2] == 0x42 &&
        raw[i + 3] == 0x42) {
      ++runs_of_42;
    }
  }
  EXPECT_EQ(runs_of_42, 0);
}

TEST_F(CheckpointTest, TamperedCheckpointRejected) {
  std::vector<uint8_t> state(1000, 7);
  ASSERT_TRUE(svc_.Save("m", key_, state).ok());
  ASSERT_TRUE(plat_.flash().CorruptBytes("m.ckpt", 60, 4).ok());
  auto restored = svc_.Restore("m", key_);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), ErrorCode::kDataCorruption);
}

std::vector<uint8_t> ReadRaw(FlashDevice& flash, const std::string& file) {
  auto size = flash.FileSize(file);
  EXPECT_TRUE(size.ok());
  std::vector<uint8_t> raw(size.ok() ? *size : 0);
  EXPECT_TRUE(flash.PeekBytes(file, 0, raw.size(), raw.data()).ok());
  return raw;
}

// Blob layout (TZCKPT02): magic (8) | u64 length | tag (32) | ciphertext.
constexpr size_t kCtOffset = 8 + 8 + 32;

// Resealing a changed state under one id (the serving runtime's periodic
// session and manifest checkpoints) must not reuse a keystream: with a
// shared keystream the XOR of two ciphertexts equals the XOR of the
// plaintexts, and the REE reading flash learns that XOR.
TEST_F(CheckpointTest, ResealUnderSameIdUsesFreshKeystream) {
  std::vector<uint8_t> s1(512), s2(512);
  Rng(5).FillBytes(s1.data(), s1.size());
  s2 = s1;
  s2[0] ^= 0xff;  // A session that moved on by a few bytes.
  ASSERT_TRUE(svc_.Save("m", key_, s1).ok());
  const std::vector<uint8_t> b1 = ReadRaw(plat_.flash(), "m.ckpt");
  ASSERT_TRUE(svc_.Save("m", key_, s2).ok());
  const std::vector<uint8_t> b2 = ReadRaw(plat_.flash(), "m.ckpt");
  ASSERT_EQ(b1.size(), kCtOffset + s1.size());
  ASSERT_EQ(b2.size(), b1.size());
  EXPECT_EQ(0, std::memcmp(b1.data(), "TZCKPT02", 8));
  std::vector<uint8_t> ct_xor(s1.size()), pt_xor(s1.size());
  for (size_t i = 0; i < s1.size(); ++i) {
    ct_xor[i] = b1[kCtOffset + i] ^ b2[kCtOffset + i];
    pt_xor[i] = s1[i] ^ s2[i];
  }
  EXPECT_NE(ct_xor, pt_xor);
  auto restored = svc_.Restore("m", key_);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, s2);
}

// The stored tag is keyed: it is not SHA-256 of the plaintext, so the REE
// cannot confirm a guessed state against it.
TEST_F(CheckpointTest, TagIsNotAnUnkeyedDigest) {
  std::vector<uint8_t> state(64, 3);
  ASSERT_TRUE(svc_.Save("m", key_, state).ok());
  const std::vector<uint8_t> raw = ReadRaw(plat_.flash(), "m.ckpt");
  const Sha256Digest unkeyed = Sha256::Hash(state.data(), state.size());
  EXPECT_NE(0, std::memcmp(raw.data() + 16, unkeyed.data(), 32));
}

// Each field of the blob is authenticated: magic, length, tag, ciphertext,
// and the id the blob was sealed under.
TEST_F(CheckpointTest, EveryFieldIsTamperEvident) {
  std::vector<uint8_t> state(200);
  Rng(6).FillBytes(state.data(), state.size());
  ASSERT_TRUE(svc_.Save("m", key_, state).ok());
  const std::vector<uint8_t> good = ReadRaw(plat_.flash(), "m.ckpt");
  // A blob with `bad` in place of the good one must not restore.
  auto expect_rejected = [&](std::vector<uint8_t> bad, const char* what) {
    ASSERT_TRUE(plat_.flash().DeleteFile("m.ckpt").ok());
    ASSERT_TRUE(plat_.flash().CreateFile("m.ckpt", std::move(bad)).ok());
    EXPECT_EQ(svc_.Restore("m", key_).status().code(),
              ErrorCode::kDataCorruption)
        << what;
  };
  // Magic, length, tag and ciphertext: first and last byte of each.
  for (size_t offset : {0, 7, 8, 15, 16, 47, 48, 247}) {
    std::vector<uint8_t> bad = good;
    bad[offset] ^= 0x01;
    expect_rejected(std::move(bad), "flipped byte");
  }
  // Truncated and extended blobs.
  for (size_t len : {good.size() - 1, good.size() + 1, size_t{20}}) {
    std::vector<uint8_t> bad = good;
    bad.resize(len, 0);
    expect_rejected(std::move(bad), "resized blob");
  }
  // The intact blob copied under another id does not open there.
  ASSERT_TRUE(plat_.flash().CreateFile("other.ckpt",
                                       std::vector<uint8_t>(good)).ok());
  EXPECT_EQ(svc_.Restore("other", key_).status().code(),
            ErrorCode::kDataCorruption);
}

TEST_F(CheckpointTest, WrongKeyRejected) {
  std::vector<uint8_t> state(1000, 7);
  ASSERT_TRUE(svc_.Save("m", key_, state).ok());
  AesKey128 wrong = key_;
  wrong[15] ^= 1;
  EXPECT_FALSE(svc_.Restore("m", wrong).ok());
}

TEST_F(CheckpointTest, MissingCheckpointIsNotFound) {
  EXPECT_FALSE(svc_.Exists("nope"));
  EXPECT_EQ(svc_.Restore("nope", key_).status().code(), ErrorCode::kNotFound);
}

TEST_F(CheckpointTest, RestoreTimeBeatsFullInit) {
  // The optimization the checkpoint exists for (§3.2): restoring is much
  // cheaper than the 2.3 s framework initialization.
  EXPECT_LT(CheckpointService::RestoreTime(),
            CheckpointService::FullInitTime() / 10);
}

}  // namespace
}  // namespace tzllm
