#include <cmath>

#include "src/llm/backend/backend.h"
#include "src/llm/engine_options.h"
#include "src/llm/simd/kernels.h"

namespace tzllm {

namespace {

// y = W X over the x.m rows of `x`: MatMatQ8, or with `reference` the seed
// kernel per row over the float rows `x` was quantized from.
void RowsMatMat(const uint8_t* w, uint64_t rows, const Q8Acts& x, float* y,
                ThreadPool* pool, const KernelDispatch* kernels,
                bool reference) {
  if (!reference) {
    MatMatQ8(w, rows, x.cols, x, y, pool, kernels);
    return;
  }
  for (uint64_t p = 0; p < x.m; ++p) {
    MatVecQ8Reference(w, rows, x.cols, x.src + p * x.cols, y + p * rows);
  }
}

}  // namespace

void LayerTailProjResidualNormQuant(const LayerTailOp& op,
                                    const KernelDispatch* kernels) {
  const uint64_t d = static_cast<uint64_t>(op.d_model);
  // Attention-output residual, then the FFN norm over all m positions.
  for (int i = 0; i < op.m * op.d_model; ++i) {
    op.hiddens[i] += op.proj[i];
  }
  for (int i = 0; i < op.m; ++i) {
    kernels->rms_norm(op.hiddens + static_cast<size_t>(i) * d,
                      op.ffn_norm_gain, op.norm + static_cast<size_t>(i) * d,
                      op.d_model);
  }
  op.acts->QuantizeRows(op.norm, op.m, d);
}

void LayerTailSwiGluQuant(const LayerTailOp& op) {
  for (int i = 0; i < op.m * op.d_ff; ++i) {
    const float g = op.gate[i];
    const float silu = g / (1.0f + std::exp(-g));
    op.gate[i] = silu * op.up[i];
  }
  op.acts->QuantizeRows(op.gate, op.m, static_cast<uint64_t>(op.d_ff));
}

void LayerTailDownResidual(const LayerTailOp& op) {
  for (int i = 0; i < op.m * op.d_model; ++i) {
    op.hiddens[i] += op.down[i];
  }
}

void RunLayerTail(const LayerTailOp& op, const Q8Acts& x_attn,
                  const KernelDispatch* kernels, ThreadPool* pool,
                  bool reference) {
  const uint64_t d = static_cast<uint64_t>(op.d_model);
  const uint64_t ff = static_cast<uint64_t>(op.d_ff);
  // x_attn is consumed by the Wo matmul before the first requantization
  // below may overwrite an aliased op.acts.
  RowsMatMat(op.wo, d, x_attn, op.proj, pool, kernels, reference);
  LayerTailProjResidualNormQuant(op, kernels);
  RowsMatMat(op.w_gate, ff, *op.acts, op.gate, pool, kernels, reference);
  RowsMatMat(op.w_up, ff, *op.acts, op.up, pool, kernels, reference);
  LayerTailSwiGluQuant(op);
  RowsMatMat(op.w_down, d, *op.acts, op.down, pool, kernels, reference);
  LayerTailDownResidual(op);
}

CpuBackend::CpuBackend(const EngineOptions& options, ThreadPool* pool,
                       const KernelDispatch* kernels)
    : use_reference_(options.use_reference_kernels),
      pool_(pool),
      kernels_(kernels) {}

Result<BackendTicket> CpuBackend::SubmitMatMatGroup(const MatMatOp* ops, int n,
                                                    const Q8Acts& x) {
  for (int i = 0; i < n; ++i) {
    RowsMatMat(ops[i].w, ops[i].rows, x, ops[i].y, pool_, kernels_,
               use_reference_);
  }
  return kCompletedTicket;
}

Result<BackendTicket> CpuBackend::SubmitLayerTail(const LayerTailOp& op,
                                                  const Q8Acts& x_attn) {
  RunLayerTail(op, x_attn, kernels_, pool_, use_reference_);
  return kCompletedTicket;
}

}  // namespace tzllm
