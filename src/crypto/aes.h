// AES-128 block cipher (FIPS-197) and CTR-mode streaming. The paper links
// llama.cpp against OpenSSL, which decrypts with the ARMv8 Crypto
// Extensions on the Rockchip board; here the keystream comes from the
// per-ISA crypto table (src/crypto/dispatch.h): AES-NI on x86, AESE/AESMC
// on aarch64, and a byte-wise scalar fallback. Verified against FIPS-197 /
// NIST SP 800-38A vectors, and every table against scalar, in
// tests/crypto_aes_test.cc.
//
// Constant time: the hardware slots read no table indexed by secret data.
// The scalar fallback indexes the S-box with key- and data-dependent bytes,
// so on a CPU without AES instructions the keystream is exposed to cache
// timing by a co-resident observer (TruSpy attacked table-based AES in
// TrustZone this way). Key expansion scans the whole S-box per lookup, so
// it leaks nothing on either path.
//
// CTR mode lets the restoration pipeline decrypt arbitrary tensor extents
// independently (seekable by block offset), which is exactly what the
// chunked, preemptible decryption micro-operators need.

#ifndef SRC_CRYPTO_AES_H_
#define SRC_CRYPTO_AES_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace tzllm {

using AesKey128 = std::array<uint8_t, 16>;
using AesBlock = std::array<uint8_t, 16>;

class Aes128 {
 public:
  explicit Aes128(const AesKey128& key);

  // Encrypts one 16-byte block in place (ECB primitive, scalar reference).
  void EncryptBlock(uint8_t block[16]) const;

  // The 11 round keys, 16 bytes each, in FIPS-197 byte order.
  const uint8_t* round_keys() const { return round_keys_.data(); }

 private:
  std::array<uint8_t, 176> round_keys_;
};

// AES-128-CTR stream cipher. Encryption == decryption. Counter block i is
// the IV with its low 8 bytes read as a big-endian integer plus i, mod
// 2^64 (the high 8 bytes never change).
class AesCtr {
 public:
  AesCtr(const AesKey128& key, const AesBlock& iv);
  // Reuses an expanded key (one key, many IVs).
  AesCtr(const Aes128& cipher, const AesBlock& iv);

  // XORs the keystream for absolute stream offset `offset` into
  // data[0..len). Offsets may be arbitrary (not block aligned) and calls may
  // be issued out of order — essential for parallel / preempted decryption
  // operators that each own a byte range of a tensor.
  void Crypt(uint64_t offset, uint8_t* data, size_t len) const;

  // Convenience for contiguous whole-buffer operation starting at offset 0.
  void CryptAll(uint8_t* data, size_t len) const { Crypt(0, data, len); }

 private:
  // XORs keystream block `block` into the part [from, from+n) of one block
  // held in data[0..n).
  void CryptPartialBlock(uint64_t block, size_t from, uint8_t* data,
                         size_t n) const;

  Aes128 cipher_;
  AesBlock iv_;
};

}  // namespace tzllm

#endif  // SRC_CRYPTO_AES_H_
