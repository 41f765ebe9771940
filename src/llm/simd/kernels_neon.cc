// NEON kernel backend (aarch64). Compiled whenever the target is ARM64 —
// NEON is baseline there, no extra -m flags — and exercised by the aarch64
// qemu-user CI leg (kernel + parity suites), which is why auto dispatch now
// selects it on aarch64 (the scalar table stays one TZLLM_SIMD=off /
// EngineOptions::force_scalar away).
//
// Same structural contract as the AVX2 table: integer block dots reduce
// exactly and combine serially in block order (bit-identical to scalar);
// float dot/axpy lanes are tolerance-parity.

#include "src/llm/simd/kernels.h"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include <cmath>

#include "src/llm/tensor.h"

namespace tzllm {
namespace {

// Exact int32 dot of one 32-element int8 block pair.
inline int32_t DotBlock32(const int8_t* w, const int8_t* x) {
  int32x4_t acc = vdupq_n_s32(0);
  for (int off = 0; off < 32; off += 16) {
    const int8x16_t wv = vld1q_s8(w + off);
    const int8x16_t xv = vld1q_s8(x + off);
    const int16x8_t lo = vmull_s8(vget_low_s8(wv), vget_low_s8(xv));
    const int16x8_t hi = vmull_s8(vget_high_s8(wv), vget_high_s8(xv));
    acc = vpadalq_s16(acc, lo);
    acc = vpadalq_s16(acc, hi);
  }
  return vaddvq_s32(acc);
}

float DotRowQ8Neon(const uint8_t* row, const int8_t* xq, const float* xscale,
                   uint64_t nblocks) {
  float acc = 0.0f;
  for (uint64_t b = 0; b < nblocks; ++b) {
    const uint8_t* blk = row + b * kQ8BlockBytes;
    const float wscale =
        F16ToF32(static_cast<uint16_t>(blk[0] | (blk[1] << 8)));
    const int32_t dot = DotBlock32(reinterpret_cast<const int8_t*>(blk + 2),
                                   xq + b * kQ8BlockElems);
    acc += (wscale * xscale[b]) * static_cast<float>(dot);
  }
  return acc;
}

void DotPanel8Q8Neon(const uint8_t* row, const int8_t* panel,
                     const float* panel_scales, uint64_t nblocks,
                     float* out8) {
  // Two half-panels of four positions. Each weight quad is broadcast to
  // all lanes; vmull_s8 multiplies it against two positions' quads at a
  // time (exact int16 products, |w * x| <= 128 * 128) and vpadalq_s16
  // pair-accumulates them into int32, leaving position p's block dot split
  // over two adjacent lanes that one vpaddq_s32 folds per half-panel. The
  // float combine is one mul + one mul + one add per lane with the scalar
  // table's association (this TU builds with -ffp-contract=off, so nothing
  // fuses), lane p of each half carrying its position's serial
  // block-order accumulator: bit-identical to dot_row_q8 per position.
  float32x4_t acc_lo = vdupq_n_f32(0.0f);
  float32x4_t acc_hi = vdupq_n_f32(0.0f);
  for (uint64_t b = 0; b < nblocks; ++b) {
    const uint8_t* blk = row + b * kQ8BlockBytes;
    const float wscale =
        F16ToF32(static_cast<uint16_t>(blk[0] | (blk[1] << 8)));
    const uint8_t* wq = blk + 2;
    const int8_t* pb = panel + b * kQ8PanelBlockBytes;
    int32x4_t d01 = vdupq_n_s32(0);  // Positions 0, 1 (two lanes each).
    int32x4_t d23 = vdupq_n_s32(0);
    int32x4_t d45 = vdupq_n_s32(0);
    int32x4_t d67 = vdupq_n_s32(0);
    for (int k = 0; k < 8; ++k) {
      int32_t quad;
      __builtin_memcpy(&quad, wq + 4 * k, 4);
      const int8x8_t w = vreinterpret_s8_s32(vdup_n_s32(quad));
      const int8x16_t x_lo = vld1q_s8(pb + 32 * k);       // Positions 0..3.
      const int8x16_t x_hi = vld1q_s8(pb + 32 * k + 16);  // Positions 4..7.
      d01 = vpadalq_s16(d01, vmull_s8(w, vget_low_s8(x_lo)));
      d23 = vpadalq_s16(d23, vmull_s8(w, vget_high_s8(x_lo)));
      d45 = vpadalq_s16(d45, vmull_s8(w, vget_low_s8(x_hi)));
      d67 = vpadalq_s16(d67, vmull_s8(w, vget_high_s8(x_hi)));
    }
    const float32x4_t ws = vdupq_n_f32(wscale);
    const float* ps = panel_scales + b * kQ8PanelPositions;
    acc_lo = vaddq_f32(acc_lo,
                       vmulq_f32(vmulq_f32(ws, vld1q_f32(ps)),
                                 vcvtq_f32_s32(vpaddq_s32(d01, d23))));
    acc_hi = vaddq_f32(acc_hi,
                       vmulq_f32(vmulq_f32(ws, vld1q_f32(ps + 4)),
                                 vcvtq_f32_s32(vpaddq_s32(d45, d67))));
  }
  vst1q_f32(out8, acc_lo);
  vst1q_f32(out8 + 4, acc_hi);
}

float DotQkF16Neon(const float* q, const uint16_t* k, int n) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const float16x4_t kh = vreinterpret_f16_u16(vld1_u16(k + j));
    acc = vfmaq_f32(acc, vld1q_f32(q + j), vcvt_f32_f16(kh));
  }
  float sum = vaddvq_f32(acc);
  for (; j < n; ++j) {
    sum += q[j] * F16ToF32Fast(k[j]);
  }
  return sum;
}

float DotQkF32Neon(const float* q, const float* k, int n) {
  float32x4_t acc = vdupq_n_f32(0.0f);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    acc = vfmaq_f32(acc, vld1q_f32(q + j), vld1q_f32(k + j));
  }
  float sum = vaddvq_f32(acc);
  for (; j < n; ++j) {
    sum += q[j] * k[j];
  }
  return sum;
}

void AxpyF16Neon(float w, const uint16_t* v, float* out, int n) {
  const float32x4_t ww = vdupq_n_f32(w);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    const float32x4_t vv =
        vcvt_f32_f16(vreinterpret_f16_u16(vld1_u16(v + j)));
    vst1q_f32(out + j, vfmaq_f32(vld1q_f32(out + j), ww, vv));
  }
  for (; j < n; ++j) {
    out[j] += w * F16ToF32Fast(v[j]);
  }
}

void AxpyF32Neon(float w, const float* v, float* out, int n) {
  const float32x4_t ww = vdupq_n_f32(w);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    vst1q_f32(out + j, vfmaq_f32(vld1q_f32(out + j), ww, vld1q_f32(v + j)));
  }
  for (; j < n; ++j) {
    out[j] += w * v[j];
  }
}

void F32ToF16Neon(const float* src, uint16_t* dst, uint64_t n) {
  // Scalar converter per element: it flushes subnormals to zero, and
  // matching that bit-for-bit matters more here than convert throughput
  // (vcvt_f16_f32 honors FPCR flush bits, which we don't control).
  for (uint64_t i = 0; i < n; ++i) {
    dst[i] = F32ToF16(src[i]);
  }
}

void F16ToF32Neon(const uint16_t* src, float* dst, uint64_t n) {
  uint64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(dst + i, vcvt_f32_f16(vreinterpret_f16_u16(vld1_u16(src + i))));
  }
  for (; i < n; ++i) {
    dst[i] = F16ToF32(src[i]);
  }
}

void RmsNormNeon(const float* x, const float* gain, float* out, int n) {
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(x[i]) * x[i];
  }
  const float inv = 1.0f / std::sqrt(static_cast<float>(sum / n) + 1e-5f);
  const float32x4_t vinv = vdupq_n_f32(inv);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(out + i,
              vmulq_f32(vmulq_f32(vld1q_f32(x + i), vinv),
                        vld1q_f32(gain + i)));
  }
  for (; i < n; ++i) {
    out[i] = x[i] * inv * gain[i];
  }
}

void SoftmaxNeon(float* x, int n) {
  float max = x[0];
  int i = 1;
  if (n >= 4) {
    float32x4_t vmax = vld1q_f32(x);
    for (i = 4; i + 4 <= n; i += 4) {
      vmax = vmaxq_f32(vmax, vld1q_f32(x + i));
    }
    max = vmaxvq_f32(vmax);
  }
  for (; i < n; ++i) {
    max = max < x[i] ? x[i] : max;
  }
  float sum = 0.0f;
  for (int j = 0; j < n; ++j) {
    x[j] = std::exp(x[j] - max);
    sum += x[j];
  }
  const float inv = 1.0f / sum;
  const float32x4_t vinv = vdupq_n_f32(inv);
  int j = 0;
  for (; j + 4 <= n; j += 4) {
    vst1q_f32(x + j, vmulq_f32(vld1q_f32(x + j), vinv));
  }
  for (; j < n; ++j) {
    x[j] *= inv;
  }
}

const KernelDispatch kNeonTable = {
    SimdIsa::kNeon,
    DotRowQ8Neon,
    DotPanel8Q8Neon,
    DotQkF16Neon,
    DotQkF32Neon,
    AxpyF16Neon,
    AxpyF32Neon,
    F32ToF16Neon,
    F16ToF32Neon,
    RmsNormNeon,
    SoftmaxNeon,
};

}  // namespace

const KernelDispatch* NeonKernels() { return &kNeonTable; }

}  // namespace tzllm

#else  // !(__aarch64__ && __ARM_NEON)

namespace tzllm {

const KernelDispatch* NeonKernels() { return nullptr; }

}  // namespace tzllm

#endif
