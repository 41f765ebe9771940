// Portable crypto backend: byte-wise AES-128 (FIPS-197) and scalar SHA-256
// (FIPS 180-4). It is the fallback on CPUs without crypto instructions and
// the reference every other backend is tested against.
//
// The AES round function indexes the S-box with secret state bytes, so its
// cache footprint depends on the key and data; a co-resident observer can
// recover the key from cache timing. The hardware backends have no such
// tables.

#include <cstddef>
#include <cstring>

#include "src/crypto/dispatch.h"

namespace tzllm {

const uint32_t kSha256RoundConstants[64] = {
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

namespace {

// FIPS-197 S-box.
constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

constexpr uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                               0x20, 0x40, 0x80, 0x1b, 0x36};

inline uint8_t XTime(uint8_t x) {
  return static_cast<uint8_t>((x << 1) ^ ((x >> 7) * 0x1b));
}

// S-box lookup that reads all 256 entries and keeps the wanted one by mask,
// so the memory access pattern does not depend on x.
uint8_t SboxScan(uint8_t x) {
  uint8_t out = 0;
  for (unsigned i = 0; i < 256; ++i) {
    const unsigned diff = i ^ x;  // 0 only at the wanted entry.
    const uint8_t mask = static_cast<uint8_t>((diff - 1) >> 8);
    out = static_cast<uint8_t>(out | (kSbox[i] & mask));
  }
  return out;
}

void CtrXorScalar(const uint8_t* round_keys, const uint8_t* iv,
                  uint64_t first_block, uint8_t* data, uint64_t nblocks) {
  uint64_t counter = 0;
  for (int i = 8; i < 16; ++i) {
    counter = (counter << 8) | iv[i];
  }
  counter += first_block;
  for (uint64_t b = 0; b < nblocks; ++b, ++counter) {
    uint8_t ks[16];
    std::memcpy(ks, iv, 8);
    uint64_t c = counter;
    for (int i = 15; i >= 8; --i) {
      ks[i] = static_cast<uint8_t>(c);
      c >>= 8;
    }
    Aes128EncryptBlockScalar(round_keys, ks);
    uint8_t* d = data + b * 16;
    for (int i = 0; i < 16; ++i) {
      d[i] ^= ks[i];
    }
  }
}

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void Sha256CompressScalar(uint32_t* state, const uint8_t* blocks,
                          uint64_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += 64) {
    const uint8_t* block = blocks;
    uint32_t w[64];
    for (size_t i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
             (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
             (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
             static_cast<uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kSha256RoundConstants[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
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
}

constexpr CryptoDispatch kScalarTable = {
    "scalar",
    "scalar",
    &CtrXorScalar,
    &Sha256CompressScalar,
};

}  // namespace

const CryptoDispatch* ScalarCrypto() { return &kScalarTable; }

void Aes128ExpandKey(const uint8_t key[16], uint8_t round_keys[176]) {
  std::memcpy(round_keys, key, 16);
  for (size_t i = 4; i < 44; ++i) {
    uint8_t temp[4];
    std::memcpy(temp, &round_keys[(i - 1) * 4], 4);
    if (i % 4 == 0) {
      // RotWord + SubWord + Rcon.
      const uint8_t t0 = temp[0];
      temp[0] = static_cast<uint8_t>(SboxScan(temp[1]) ^ kRcon[i / 4]);
      temp[1] = SboxScan(temp[2]);
      temp[2] = SboxScan(temp[3]);
      temp[3] = SboxScan(t0);
    }
    for (size_t b = 0; b < 4; ++b) {
      round_keys[i * 4 + b] =
          static_cast<uint8_t>(round_keys[(i - 4) * 4 + b] ^ temp[b]);
    }
  }
}

void Aes128EncryptBlockScalar(const uint8_t* round_keys, uint8_t block[16]) {
  uint8_t s[16];
  std::memcpy(s, block, 16);

  auto add_round_key = [&](int round) {
    for (int i = 0; i < 16; ++i) {
      s[i] ^= round_keys[round * 16 + i];
    }
  };
  auto sub_bytes = [&] {
    for (auto& b : s) {
      b = kSbox[b];
    }
  };
  auto shift_rows = [&] {
    // State is column-major: s[col*4 + row].
    uint8_t t[16];
    for (int col = 0; col < 4; ++col) {
      for (int row = 0; row < 4; ++row) {
        t[col * 4 + row] = s[((col + row) % 4) * 4 + row];
      }
    }
    std::memcpy(s, t, 16);
  };
  auto mix_columns = [&] {
    for (size_t col = 0; col < 4; ++col) {
      uint8_t* c = &s[col * 4];
      const uint8_t a0 = c[0], a1 = c[1], a2 = c[2], a3 = c[3];
      c[0] = static_cast<uint8_t>(XTime(a0) ^ XTime(a1) ^ a1 ^ a2 ^ a3);
      c[1] = static_cast<uint8_t>(a0 ^ XTime(a1) ^ XTime(a2) ^ a2 ^ a3);
      c[2] = static_cast<uint8_t>(a0 ^ a1 ^ XTime(a2) ^ XTime(a3) ^ a3);
      c[3] = static_cast<uint8_t>(XTime(a0) ^ a0 ^ a1 ^ a2 ^ XTime(a3));
    }
  };

  add_round_key(0);
  for (int round = 1; round < 10; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(10);

  std::memcpy(block, s, 16);
}

}  // namespace tzllm
