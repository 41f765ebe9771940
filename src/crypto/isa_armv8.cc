// aarch64 crypto backend: the ARMv8 Crypto Extensions (AESE/AESMC for
// AES-128-CTR, SHA256H/SHA256H2/SHA256SU0/SHA256SU1 for the SHA-256
// compression function) — the instructions OpenSSL uses on the paper's
// Rockchip board. Built with -march=armv8-a+crypto on aarch64 only
// (CMakeLists.txt); elsewhere, or without that flag, it compiles to a
// nullptr-returning stub. The resolver (dispatch.cc) gates each slot on its
// own AT_HWCAP bit.
//
// Neither slot reads a table indexed by secret data.

#include "src/crypto/dispatch.h"

#if defined(__aarch64__) && !defined(__AARCH64EB__) &&               \
    (defined(__ARM_FEATURE_AES) || defined(__ARM_FEATURE_CRYPTO)) && \
    (defined(__ARM_FEATURE_SHA2) || defined(__ARM_FEATURE_CRYPTO))

#include <arm_neon.h>

#include <cstddef>
#include <cstring>

namespace tzllm {

namespace {

// Independent CTR blocks in flight per batch (hides AESE/AESMC latency).
constexpr int kLanes = 8;

inline uint8x16_t CounterBlock(uint8x8_t iv_prefix, uint64_t counter) {
  // Bytes 0..7 are the IV prefix as stored; bytes 8..15 the big-endian
  // counter.
  const uint64x1_t be = vcreate_u64(__builtin_bswap64(counter));
  return vcombine_u8(iv_prefix, vreinterpret_u8_u64(be));
}

inline uint8x16_t EncryptBlock(uint8x16_t b, const uint8x16_t* rk) {
  // AESE = AddRoundKey + SubBytes + ShiftRows; AESMC = MixColumns.
  for (int r = 0; r < 9; ++r) {
    b = vaesmcq_u8(vaeseq_u8(b, rk[r]));
  }
  b = vaeseq_u8(b, rk[9]);
  return veorq_u8(b, rk[10]);
}

void CtrXorCe(const uint8_t* round_keys, const uint8_t* iv,
              uint64_t first_block, uint8_t* data, uint64_t nblocks) {
  uint8x16_t rk[11];
  for (size_t r = 0; r < 11; ++r) {
    rk[r] = vld1q_u8(round_keys + 16 * r);
  }
  const uint8x8_t iv_prefix = vld1_u8(iv);
  uint64_t iv_counter = 0;
  std::memcpy(&iv_counter, iv + 8, 8);
  // Unsigned arithmetic wraps mod 2^64: exactly the CTR counter semantics.
  uint64_t counter = __builtin_bswap64(iv_counter) + first_block;

  uint64_t b = 0;
  for (; b + kLanes <= nblocks; b += kLanes, counter += kLanes) {
    uint8x16_t x[kLanes];
    for (int j = 0; j < kLanes; ++j) {
      x[j] = CounterBlock(iv_prefix, counter + j);
    }
    for (int r = 0; r < 9; ++r) {
      for (int j = 0; j < kLanes; ++j) {
        x[j] = vaesmcq_u8(vaeseq_u8(x[j], rk[r]));
      }
    }
    for (int j = 0; j < kLanes; ++j) {
      x[j] = veorq_u8(vaeseq_u8(x[j], rk[9]), rk[10]);
      uint8_t* p = data + 16 * (b + j);
      vst1q_u8(p, veorq_u8(vld1q_u8(p), x[j]));
    }
  }
  for (; b < nblocks; ++b, ++counter) {
    uint8_t* p = data + 16 * b;
    const uint8x16_t ks = EncryptBlock(CounterBlock(iv_prefix, counter), rk);
    vst1q_u8(p, veorq_u8(vld1q_u8(p), ks));
  }
}

// Four SHA-256 rounds on the ABCD / EFGH state halves.
inline void Rounds4(uint32x4_t& abcd, uint32x4_t& efgh, uint32x4_t wk) {
  const uint32x4_t abcd_in = abcd;
  abcd = vsha256hq_u32(abcd, efgh, wk);
  efgh = vsha256h2q_u32(efgh, abcd_in, wk);
}

// Message schedule: W[t..t+3] from the previous sixteen words w0..w3.
inline uint32x4_t NextW(uint32x4_t w0, uint32x4_t w1, uint32x4_t w2,
                        uint32x4_t w3) {
  return vsha256su1q_u32(vsha256su0q_u32(w0, w1), w2, w3);
}

inline uint32x4_t RoundK(size_t quad) {
  return vld1q_u32(kSha256RoundConstants + 4 * quad);
}

inline uint32x4_t LoadBigEndianWords(const uint8_t* p) {
  return vreinterpretq_u32_u8(vrev32q_u8(vld1q_u8(p)));
}

void Sha256CompressCe(uint32_t* state, const uint8_t* blocks,
                      uint64_t nblocks) {
  uint32x4_t abcd = vld1q_u32(state);
  uint32x4_t efgh = vld1q_u32(state + 4);
  for (; nblocks > 0; --nblocks, blocks += 64) {
    const uint32x4_t abcd0 = abcd;
    const uint32x4_t efgh0 = efgh;
    uint32x4_t w0 = LoadBigEndianWords(blocks);
    uint32x4_t w1 = LoadBigEndianWords(blocks + 16);
    uint32x4_t w2 = LoadBigEndianWords(blocks + 32);
    uint32x4_t w3 = LoadBigEndianWords(blocks + 48);
    Rounds4(abcd, efgh, vaddq_u32(w0, RoundK(0)));
    Rounds4(abcd, efgh, vaddq_u32(w1, RoundK(1)));
    Rounds4(abcd, efgh, vaddq_u32(w2, RoundK(2)));
    Rounds4(abcd, efgh, vaddq_u32(w3, RoundK(3)));
    for (size_t q = 4; q < 16; q += 4) {
      w0 = NextW(w0, w1, w2, w3);
      Rounds4(abcd, efgh, vaddq_u32(w0, RoundK(q)));
      w1 = NextW(w1, w2, w3, w0);
      Rounds4(abcd, efgh, vaddq_u32(w1, RoundK(q + 1)));
      w2 = NextW(w2, w3, w0, w1);
      Rounds4(abcd, efgh, vaddq_u32(w2, RoundK(q + 2)));
      w3 = NextW(w3, w0, w1, w2);
      Rounds4(abcd, efgh, vaddq_u32(w3, RoundK(q + 3)));
    }
    abcd = vaddq_u32(abcd, abcd0);
    efgh = vaddq_u32(efgh, efgh0);
  }
  vst1q_u32(state, abcd);
  vst1q_u32(state + 4, efgh);
}

constexpr CryptoDispatch kArmv8Table = {
    "armv8-ce",
    "armv8-ce",
    &CtrXorCe,
    &Sha256CompressCe,
};

}  // namespace

const CryptoDispatch* Armv8Crypto() { return &kArmv8Table; }

}  // namespace tzllm

#else

namespace tzllm {
const CryptoDispatch* Armv8Crypto() { return nullptr; }
}  // namespace tzllm

#endif
