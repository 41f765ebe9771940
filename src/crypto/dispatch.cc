// Crypto table resolution: per-slot CPU feature gates, computed once per
// process. A slot whose instructions the CPU lacks keeps its scalar entry.

#include "src/crypto/dispatch.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#define TZLLM_CRYPTO_X86_CPUID 1
#elif defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#define TZLLM_CRYPTO_ARM_HWCAP 1
#endif

namespace tzllm {

namespace {

CryptoCpuFeatures DetectCryptoCpuFeatures() {
  CryptoCpuFeatures f;
#if defined(TZLLM_CRYPTO_X86_CPUID)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    const bool ssse3 = (ecx & (1u << 9)) != 0;
    const bool sse41 = (ecx & (1u << 19)) != 0;
    const bool aesni = (ecx & (1u << 25)) != 0;
    f.aes = aesni && ssse3 && sse41;
    unsigned ebx7 = 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx7, &ecx, &edx)) {
      const bool shani = (ebx7 & (1u << 29)) != 0;
      f.sha256 = shani && ssse3 && sse41;
    }
  }
#elif defined(TZLLM_CRYPTO_ARM_HWCAP)
  // Linux arm64 AT_HWCAP bits (asm/hwcap.h): HWCAP_AES, HWCAP_SHA2.
  constexpr unsigned long kHwcapAes = 1ul << 3;
  constexpr unsigned long kHwcapSha2 = 1ul << 6;
  const unsigned long hwcap = getauxval(AT_HWCAP);
  f.aes = (hwcap & kHwcapAes) != 0;
  f.sha256 = (hwcap & kHwcapSha2) != 0;
#endif
  return f;
}

}  // namespace

CryptoDispatch ResolveCrypto(const CryptoDispatch* hw,
                             const CryptoCpuFeatures& cpu) {
  CryptoDispatch t = *ScalarCrypto();
  if (hw != nullptr && cpu.aes) {
    t.aes_isa = hw->aes_isa;
    t.aes128_ctr_xor = hw->aes128_ctr_xor;
  }
  if (hw != nullptr && cpu.sha256) {
    t.sha256_isa = hw->sha256_isa;
    t.sha256_compress = hw->sha256_compress;
  }
  return t;
}

const CryptoDispatch* ActiveCrypto() {
  static const CryptoDispatch table = ResolveCrypto(
      X86Crypto() != nullptr ? X86Crypto() : Armv8Crypto(),
      DetectCryptoCpuFeatures());
  return &table;
}

}  // namespace tzllm
