// Deterministic authenticated encryption for the blobs the TEE parks in
// REE-controlled storage: session checkpoints and the serving manifest on
// flash (TZCKPT02), KV spill pages in REE memory (TZKVPG02).
//
//   tag = HMAC-SHA256(mac_key, u64le(|header|) || header || plaintext)
//   ct  = AES-128-CTR(enc_key, iv = tag[0..16], plaintext)
//
// The CTR IV is synthetic (SIV): a PRF of everything sealed. Two seals
// share a keystream only when they seal the same header and plaintext, and
// then their ciphertexts are identical too, so equality is all that can
// leak. No nonce, counter or entropy source is needed, which keeps every
// sealed byte deterministic. The tag is keyed, so the REE can neither
// confirm a plaintext guess against it nor forge a blob. The header
// (magic, length, labels, the blob's name) is authenticated, not
// encrypted.
//
// mac_key and enc_key are derived from one 128-bit key with distinct HMAC
// labels. Cost per seal or open: one AES-CTR pass and one SHA-256 pass over
// the plaintext, plus about four compressions for the header and the outer
// HMAC hash.

#ifndef SRC_CRYPTO_SEAL_H_
#define SRC_CRYPTO_SEAL_H_

#include <cstddef>
#include <cstdint>

#include "src/common/status.h"
#include "src/crypto/aes.h"
#include "src/crypto/sha256.h"

namespace tzllm {

class Sealer {
 public:
  explicit Sealer(const AesKey128& key);

  // Encrypts plain[0..len) into out[0..len) (out may equal plain) and
  // returns the tag to store beside it.
  Sha256Digest Seal(const uint8_t* header, size_t header_len,
                    const uint8_t* plain, uint8_t* out, size_t len) const;

  // Decrypts ct[0..len) into out[0..len) (out may equal ct) and checks the
  // tag in constant time. kDataCorruption, with out zeroed, when the tag,
  // header or ciphertext was altered or the key is wrong.
  Status Open(const uint8_t* header, size_t header_len,
              const Sha256Digest& tag, const uint8_t* ct, uint8_t* out,
              size_t len) const;

 private:
  Sha256Digest Tag(const uint8_t* header, size_t header_len,
                   const uint8_t* plain, size_t len) const;

  HmacSha256 mac_;  // Keyed with mac_key; copied per message.
  Aes128 enc_;
};

}  // namespace tzllm

#endif  // SRC_CRYPTO_SEAL_H_
