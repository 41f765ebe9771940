// SHA-256 (FIPS 180-4) and HMAC-SHA256 (RFC 2104).
//
// Used by the TEE to verify model-file contents returned by the untrusted
// REE filesystem (the paper's Iago-attack defense for model loading, §6),
// to derive keys, and (through HMAC, src/crypto/seal.h) to authenticate the
// blobs the TEE parks in REE storage. Every compression — bulk input,
// a completed partial buffer and the final padding blocks — goes through
// the sha256_compress slot of the per-ISA crypto table
// (src/crypto/dispatch.h): SHA-NI on x86, SHA256H/H2 on aarch64, scalar
// otherwise; the slot is gated separately from AES, so an x86 part with
// AES-NI but no SHA-NI gets scalar SHA-256. No backend reads a table
// indexed by message or key bytes. Verified against NIST vectors, and every
// table against scalar, in tests/crypto_sha256_test.cc.

#ifndef SRC_CRYPTO_SHA256_H_
#define SRC_CRYPTO_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace tzllm {

using Sha256Digest = std::array<uint8_t, 32>;

class Sha256 {
 public:
  Sha256();

  void Update(const uint8_t* data, size_t len);
  void Update(const std::string& s) {
    Update(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  // Finalizes and returns the digest. The object must not be reused after.
  Sha256Digest Finalize();

  // One-shot helpers.
  static Sha256Digest Hash(const uint8_t* data, size_t len);
  static Sha256Digest Hash(const std::string& s);

 private:
  void Compress(const uint8_t* blocks, size_t nblocks);

  std::array<uint32_t, 8> state_;
  uint64_t total_len_ = 0;
  std::array<uint8_t, 64> buffer_;
  size_t buffer_len_ = 0;
};

// HMAC-SHA256. A keyed instance can be copied before Update to MAC many
// messages under one key without rehashing the padded key each time.
class HmacSha256 {
 public:
  HmacSha256(const uint8_t* key, size_t key_len);

  void Update(const uint8_t* data, size_t len) { inner_.Update(data, len); }
  void Update(const std::string& s) { inner_.Update(s); }

  // Finalizes and returns the tag. The object must not be reused after.
  Sha256Digest Finalize();

  static Sha256Digest Mac(const uint8_t* key, size_t key_len,
                          const uint8_t* data, size_t len);

 private:
  Sha256 inner_;  // Has absorbed key ^ ipad.
  Sha256 outer_;  // Has absorbed key ^ opad.
};

// Compares two digests in time independent of where they differ.
bool DigestsEqualConstantTime(const Sha256Digest& a, const Sha256Digest& b);

// Lowercase hex string of a digest.
std::string DigestToHex(const Sha256Digest& digest);

// Truncated 64-bit tag, convenient for per-tensor checksum tables.
uint64_t DigestToTag64(const Sha256Digest& digest);

}  // namespace tzllm

#endif  // SRC_CRYPTO_SHA256_H_
