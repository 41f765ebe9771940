// x86 crypto backend: AES-NI for AES-128-CTR and SHA-NI for the SHA-256
// compression function. Built with -maes -msha -msse4.1 -mssse3 on x86
// only (CMakeLists.txt); elsewhere, or without those flags, it compiles to
// a nullptr-returning stub. The resolver (dispatch.cc) gates each slot on
// its own CPUID bit, so this file's instructions never run on a CPU that
// lacks them.
//
// Neither slot reads a table indexed by secret data: the AES rounds run in
// the AESENC unit and the SHA-256 round constants are read in fixed order.
//
// The file holds only static functions and intrinsics, so no inline
// function built with these -m flags can be merged into baseline code.

#include "src/crypto/dispatch.h"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AES__) && \
    defined(__SHA__) && defined(__SSE4_1__) && defined(__SSSE3__)

#include <immintrin.h>

#include <cstddef>
#include <cstring>

namespace tzllm {

namespace {

// CTR blocks per batch: AESENC has a latency of several cycles but issues
// every cycle, so eight independent blocks keep the unit busy.
constexpr int kLanes = 8;

inline __m128i CounterBlock(uint64_t iv_prefix, uint64_t counter) {
  // Bytes 0..7 are the IV prefix as stored; bytes 8..15 the big-endian
  // counter.
  return _mm_set_epi64x(static_cast<long long>(__builtin_bswap64(counter)),
                        static_cast<long long>(iv_prefix));
}

void CtrXorAesNi(const uint8_t* round_keys, const uint8_t* iv,
                 uint64_t first_block, uint8_t* data, uint64_t nblocks) {
  __m128i rk[11];
  for (size_t r = 0; r < 11; ++r) {
    rk[r] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(round_keys + 16 * r));
  }
  uint64_t iv_prefix = 0;
  std::memcpy(&iv_prefix, iv, 8);
  uint64_t iv_counter = 0;
  std::memcpy(&iv_counter, iv + 8, 8);
  // Unsigned arithmetic wraps mod 2^64: exactly the CTR counter semantics.
  uint64_t counter = __builtin_bswap64(iv_counter) + first_block;

  uint64_t b = 0;
  for (; b + kLanes <= nblocks; b += kLanes, counter += kLanes) {
    __m128i x[kLanes];
    for (int j = 0; j < kLanes; ++j) {
      x[j] = _mm_xor_si128(CounterBlock(iv_prefix, counter + j), rk[0]);
    }
    for (int r = 1; r < 10; ++r) {
      for (int j = 0; j < kLanes; ++j) {
        x[j] = _mm_aesenc_si128(x[j], rk[r]);
      }
    }
    for (int j = 0; j < kLanes; ++j) {
      x[j] = _mm_aesenclast_si128(x[j], rk[10]);
      __m128i* p = reinterpret_cast<__m128i*>(data + 16 * (b + j));
      _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), x[j]));
    }
  }
  for (; b < nblocks; ++b, ++counter) {
    __m128i x = _mm_xor_si128(CounterBlock(iv_prefix, counter), rk[0]);
    for (int r = 1; r < 10; ++r) {
      x = _mm_aesenc_si128(x, rk[r]);
    }
    x = _mm_aesenclast_si128(x, rk[10]);
    __m128i* p = reinterpret_cast<__m128i*>(data + 16 * b);
    _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), x));
  }
}

// Four SHA-256 rounds. SHA256RNDS2 does two rounds on the ABEF/CDGH state
// split, taking W+K for those rounds from the low half of wk.
inline void Rounds4(__m128i& abef, __m128i& cdgh, __m128i wk) {
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// Message schedule: W[t..t+3] from the previous sixteen words w0..w3.
inline __m128i NextW(__m128i w0, __m128i w1, __m128i w2, __m128i w3) {
  const __m128i t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                  _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(t, w3);
}

inline __m128i RoundK(size_t quad) {
  return _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(kSha256RoundConstants + 4 * quad));
}

void Sha256CompressShaNi(uint32_t* state, const uint8_t* blocks,
                         uint64_t nblocks) {
  // Big-endian message words: byte-reverse each 32-bit lane.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // a..h -> the ABEF / CDGH register split SHA256RNDS2 works on.
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, blocks += 64) {
    const __m128i abef0 = abef;
    const __m128i cdgh0 = cdgh;
    const __m128i* in = reinterpret_cast<const __m128i*>(blocks);
    __m128i w0 = _mm_shuffle_epi8(_mm_loadu_si128(in + 0), bswap);
    __m128i w1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), bswap);
    __m128i w2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), bswap);
    __m128i w3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), bswap);
    Rounds4(abef, cdgh, _mm_add_epi32(w0, RoundK(0)));
    Rounds4(abef, cdgh, _mm_add_epi32(w1, RoundK(1)));
    Rounds4(abef, cdgh, _mm_add_epi32(w2, RoundK(2)));
    Rounds4(abef, cdgh, _mm_add_epi32(w3, RoundK(3)));
    for (size_t q = 4; q < 16; q += 4) {
      w0 = NextW(w0, w1, w2, w3);
      Rounds4(abef, cdgh, _mm_add_epi32(w0, RoundK(q)));
      w1 = NextW(w1, w2, w3, w0);
      Rounds4(abef, cdgh, _mm_add_epi32(w1, RoundK(q + 1)));
      w2 = NextW(w2, w3, w0, w1);
      Rounds4(abef, cdgh, _mm_add_epi32(w2, RoundK(q + 2)));
      w3 = NextW(w3, w0, w1, w2);
      Rounds4(abef, cdgh, _mm_add_epi32(w3, RoundK(q + 3)));
    }
    abef = _mm_add_epi32(abef, abef0);
    cdgh = _mm_add_epi32(cdgh, cdgh0);
  }

  // ABEF / CDGH -> a..h.
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  dcba = _mm_blend_epi16(feba, dchg, 0xF0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

constexpr CryptoDispatch kX86Table = {
    "aesni",
    "shani",
    &CtrXorAesNi,
    &Sha256CompressShaNi,
};

}  // namespace

const CryptoDispatch* X86Crypto() { return &kX86Table; }

}  // namespace tzllm

#else

namespace tzllm {
const CryptoDispatch* X86Crypto() { return nullptr; }
}  // namespace tzllm

#endif
