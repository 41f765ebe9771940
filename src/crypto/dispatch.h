// Runtime-dispatched crypto backends: one function pointer per hot
// primitive, resolved once per process (the src/llm/simd idiom).
//
// The restore pipeline decrypts and verifies the whole model on every cold
// start, and the paged KV pool seals every page it spills to REE memory, so
// AES-128-CTR and the SHA-256 compression function are the two slots. Each
// ISA lives in its own translation unit compiled with only its own flags:
//
//   isa_scalar.cc  portable byte-wise AES (S-box + XTime) and scalar SHA-256;
//                  the fallback and the reference the tests compare against.
//   isa_x86.cc     AES-NI (8 blocks interleaved) and SHA-NI
//                  (-maes -msha -msse4.1 -mssse3).
//   isa_armv8.cc   ARMv8 Crypto Extensions: AESE/AESMC and SHA256H/H2
//                  (-march=armv8-a+crypto).
//
// Each slot is gated on its own CPU feature (CPUID on x86, AT_HWCAP on
// aarch64): many x86 parts have AES-NI but no SHA-NI, and they get the
// hardware AES slot with the scalar SHA-256 slot.
//
// Every slot computes bit-identical output on every backend, so sealed
// bytes on flash and in REE memory do not depend on the host ISA.

#ifndef SRC_CRYPTO_DISPATCH_H_
#define SRC_CRYPTO_DISPATCH_H_

#include <cstdint>

namespace tzllm {

struct CryptoDispatch {
  // Backend name serving each slot ("scalar", "aesni", "shani",
  // "armv8-ce"); logged by tests and benches so a silent fallback shows.
  const char* aes_isa;
  const char* sha256_isa;

  // XORs AES-128-CTR keystream blocks first_block .. first_block+nblocks-1
  // into data[0 .. 16*nblocks). round_keys is the 176-byte FIPS-197 key
  // schedule. Counter block i is iv with its low 8 bytes read as a
  // big-endian integer plus i, mod 2^64; the high 8 bytes never change (no
  // carry out of the counter half).
  void (*aes128_ctr_xor)(const uint8_t* round_keys, const uint8_t* iv,
                         uint64_t first_block, uint8_t* data,
                         uint64_t nblocks);

  // FIPS 180-4 compression of nblocks consecutive 64-byte blocks into
  // state[0..8) (a..h, host-endian words).
  void (*sha256_compress)(uint32_t* state, const uint8_t* blocks,
                          uint64_t nblocks);
};

// Backend tables. Scalar always exists; the others return nullptr when
// their translation unit was built for another architecture. A non-null
// table may still hold instructions this CPU lacks: only the resolver's
// per-slot gates make it safe to call.
const CryptoDispatch* ScalarCrypto();
const CryptoDispatch* X86Crypto();
const CryptoDispatch* Armv8Crypto();

// What the running CPU can execute, per slot.
struct CryptoCpuFeatures {
  bool aes = false;
  bool sha256 = false;
};

// Pure resolution: the scalar table with each slot `hw` provides replaced
// by hw's, when `cpu` says that slot's instructions exist. hw may be null.
CryptoDispatch ResolveCrypto(const CryptoDispatch* hw,
                             const CryptoCpuFeatures& cpu);

// The table for this process: resolved once from the host's hardware table
// and its CPUID / AT_HWCAP feature bits. No knob or environment variable
// selects it; every slot is bit-identical to scalar, so there is nothing to
// choose.
const CryptoDispatch* ActiveCrypto();

// Shared by the backends.
extern const uint32_t kSha256RoundConstants[64];

// FIPS-197 key expansion (Nk=4, Nr=10) into 176 bytes of round keys. Its
// S-box lookups scan the whole table, so the key schedule takes the same
// cache path whatever the key.
void Aes128ExpandKey(const uint8_t key[16], uint8_t round_keys[176]);

// The scalar block cipher (ECB), kept for the FIPS-197 known-answer tests.
void Aes128EncryptBlockScalar(const uint8_t* round_keys, uint8_t block[16]);

}  // namespace tzllm

#endif  // SRC_CRYPTO_DISPATCH_H_
