// Functional transformer forward pass (real math) over Q8_0 weights: RMSNorm
// -> GQA attention with RoPE -> SwiGLU FFN, pre-norm residual architecture —
// the computation llama.cpp performs for the Llama family.
//
// Weights are pulled through the WeightSource interface so the same executor
// runs against host memory (REE baselines) or TZASC-protected secure memory
// (the LLM TA): the integration tests assert bit-identical logits between
// the two, proving the protected path computes the same function.

#ifndef SRC_LLM_EXECUTOR_H_
#define SRC_LLM_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/llm/backend/backend.h"
#include "src/llm/engine_options.h"
#include "src/llm/kv_cache.h"
#include "src/llm/model_spec.h"
#include "src/llm/simd/kernels.h"
#include "src/llm/tokenizer.h"

namespace tzllm {

// Access to tensor bytes by spec index. Implementations: HostWeightSource
// (plain buffers) and the TA's secure-memory source.
class WeightSource {
 public:
  virtual ~WeightSource() = default;
  // Returns a pointer to the tensor's bytes (layout per TensorSpec dtype),
  // or an error if the tensor is unavailable.
  virtual Result<const uint8_t*> TensorData(int tensor_index) = 0;
};

class HostWeightSource : public WeightSource {
 public:
  explicit HostWeightSource(std::vector<Tensor> tensors)
      : tensors_(std::move(tensors)) {}

  Result<const uint8_t*> TensorData(int tensor_index) override {
    if (tensor_index < 0 ||
        tensor_index >= static_cast<int>(tensors_.size())) {
      return Status(ErrorCode::kInvalidArgument, "bad tensor index");
    }
    if (!tensors_[tensor_index].materialized()) {
      return Status(ErrorCode::kFailedPrecondition, "tensor not materialized");
    }
    return tensors_[tensor_index].data.data();
  }

  const std::vector<Tensor>& tensors() const { return tensors_; }

 private:
  std::vector<Tensor> tensors_;
};

// One forward schedule. Every entry point builds a list of rows — a row is
// one token entering one KvCache at one position — and runs them through
// the same layer-major loop: a prefill chunk is m rows of one cache at
// consecutive positions, a batched decode step is n rows of n distinct
// caches. Each layer is two stages over a RowBatch workspace:
//
//   A: await the previous layer tail, RMSNorm, quantize, submit QKV;
//   B: await QKV, RoPE, then per run of rows sharing a cache one KV
//      AppendBatch and one fused Attend, quantize, submit the layer tail.
//
// On a synchronous backend one batch runs at a time (the serial schedule).
// On an asynchronous one (NPU offload) a multi-batch prompt keeps two
// batches in flight, advanced one stage each in row order, so one batch's
// CPU attention overlaps the other's fused jobs; batch b's KV rows land
// before batch b+1 attends at each layer, the only cross-batch dependency.
// Per-row math and block order never depend on how rows are batched (the
// m = 1 matmul is the same row kernel, attention items are independent),
// so every schedule is bit-identical to every other.
class TransformerExecutor {
 public:
  // `prefill_backend` (optional, non-owning, must outlive the executor)
  // swaps where prefill rows' matmuls run: nullptr keeps them on the
  // executor's own CpuBackend; the LLM TA passes an NpuBackend to offload
  // them through the secure co-driver. Decode and the LM head always run on
  // the CPU backend, and so does everything under use_reference_kernels
  // (the NPU payloads are quantized-kernel only).
  TransformerExecutor(const ModelSpec* spec, WeightSource* weights,
                      const EngineOptions& options = {},
                      ComputeBackend* prefill_backend = nullptr);

  // Runs the prompt through the model in batches of `prefill_batch` rows,
  // filling the KV cache. Returns the logits of the last position
  // (vocab_size floats).
  Result<std::vector<float>> Prefill(const std::vector<TokenId>& tokens,
                                     KvCache* kv);

  // Advances a prompt by one batch of `m` positions into `kv` — the serving
  // scheduler's prefill quantum, always one batch in flight. When `logits`
  // is non-null (the prompt's final chunk) the last position's logits are
  // computed into it (vocab_size floats). Chunking at any boundary lands the
  // same KV rows and logits as the one-shot Prefill.
  Status PrefillChunk(const TokenId* tokens, int m, KvCache* kv,
                      float* logits);

  // One incremental decode step for `token` at the cache's current position.
  Result<std::vector<float>> DecodeStep(TokenId token, KvCache* kv);

  // Same step into a caller-provided buffer of vocab_size floats.
  Status DecodeStepInto(TokenId token, KvCache* kv, float* logits);

  // One session's slice of a batched decode step: its pending token, its
  // private KV cache (positions may differ per session) and a vocab_size
  // logits row to fill.
  struct DecodeEntry {
    TokenId token = 0;
    KvCache* kv = nullptr;
    float* logits = nullptr;
  };

  // One decode step for `n` sessions at once: one row per session, so each
  // weight matrix streams once per step whatever the batch size, and each
  // row attends only against its own cache. Bit-identical per session to
  // DecodeStepInto. The caches must be distinct (InvalidArgument otherwise,
  // before anything is pinned or appended); each advances one position on
  // success.
  Status DecodeStepBatch(const DecodeEntry* entries, int n);

  const EngineOptions& options() const { return options_; }

  // Wall-clock seconds spent in Attend since construction / ResetStats.
  // Only accumulated when options.collect_stats is set.
  double attend_seconds() const { return attend_seconds_; }
  void ResetStats() { attend_seconds_ = 0.0; }

 private:
  // One token entering `kv` at position `pos`; non-null `logits` asks for
  // the row's vocab_size logits.
  struct Row {
    TokenId token = 0;
    KvCache* kv = nullptr;
    int pos = 0;
    float* logits = nullptr;
  };

  // The rows of one batch in flight and the activation workspace its
  // submitted jobs read and write (zero-copy: every buffer a ticket
  // references lives here, untouched until the ticket retires). All float
  // buffers are row-major: row i belongs to rows[i].
  struct RowBatch {
    const Row* rows = nullptr;
    int m = 0;
    int capacity = 0;  // Rows the buffers are sized for.
    int layer = 0;
    // false: stage A is next (submit QKV); true: stage B (attend, submit
    // the layer tail).
    bool attend_next = false;
    BackendTicket qkv_ticket = kCompletedTicket;
    BackendTicket tail_ticket = kCompletedTicket;
    std::vector<float> hiddens, norm, q, k, v, attn, proj, gate, up, down;
    Q8Acts acts;
  };

  // The one driver behind every entry point: validates `rows` (rows of one
  // cache adjacent, at consecutive positions from its seq_len(), tokens in
  // the vocabulary — InvalidArgument before any pin or append), pins every
  // cache, runs them in batches of at most `batch_rows` on `backend`, and
  // writes the logits rows ask for. Drains the backend before returning an
  // error, so no in-flight job writes through freed state.
  Status Forward(const Row* rows, int n, int batch_rows,
                 ComputeBackend* backend);
  Status CheckRows(const Row* rows, int n);
  // Forwards `m` prompt tokens entering `kv` after its cached positions, in
  // batches of `batch_rows` on the prefill backend; the last row's logits
  // go to `logits` (when non-null).
  Status RunPrompt(const TokenId* tokens, int m, KvCache* kv, float* logits,
                   int batch_rows);
  // Sizes `b` for `m` rows; never called while `b` has jobs in flight.
  void Reserve(RowBatch* b, int m);
  // Stage A or B of the batch's current layer (see the class comment).
  Status Advance(RowBatch* b, ComputeBackend* backend);
  // Awaits the final tail, advances the caches and runs the LM head for the
  // rows that asked for logits (one shared pass on the CPU backend).
  Status Retire(RowBatch* b, ComputeBackend* backend);
  // Fused causal attention for `m` consecutive positions starting at
  // `start`: fills out rows [m][d_model] from q rows [m][d_model] and the KV
  // cache rows [0, start + i] of `layer`. The m x n_heads head loops are one
  // flat work list, statically partitioned over the pool (same deterministic
  // schedule as the matmul kernels): each (position, head) item is
  // independent, so the result is bit-identical at any thread count and any
  // batching. Reads the cache at its storage width.
  void Attend(int layer, int start, int m, const float* q, float* out,
              const KvCache& kv);
  Status EmbedToken(TokenId token, float* hidden);

  Result<const uint8_t*> Weights(TensorRole role, int layer);

  void Rope(float* vec, int n_heads, int pos) const;

  const ModelSpec* spec_;
  WeightSource* weights_;
  EngineOptions options_;
  // The SIMD backend every inner loop routes through: the scalar table when
  // options force it (use_reference_kernels / force_scalar), otherwise the
  // CPUID-resolved process-wide table. One resolution at construction — hot
  // loops pay an indirect call, never a feature branch.
  const KernelDispatch* kernels_;
  // ResolvedThreads(options): 0 = auto, always clamped to the hardware —
  // oversubscription never wins (fig17 measured threads_4 *slower* than
  // threads_1 on a 1-core box), so it is not a configuration the executor
  // will run.
  int n_threads_;
  std::unique_ptr<ThreadPool> pool_;
  // The backend seam. cpu_backend_ always exists and serves decode and the
  // LM head (reference and quantized mode alike — CpuBackend internalizes
  // the branch); prefill rows go through prefill_backend_, which is either
  // the same CpuBackend or a caller-provided backend (NPU offload).
  std::unique_ptr<CpuBackend> cpu_backend_;
  ComputeBackend* prefill_backend_ = nullptr;
  // Geometry validation result, computed once; entry points fail fast on it
  // (e.g. odd head_dim would read past the head in the RoPE pair loops).
  Status init_status_;
  double attend_seconds_ = 0.0;

  // Reusable workspace, grown once (no allocation in the token loop): the
  // two batch slots, the rows the entry points build, one max_ctx
  // attention-scratch row per pool part, and the LM head's staging rows.
  RowBatch batches_[2];
  std::vector<Row> rows_;
  std::vector<float> scores_, logits_rows_;
};

// Numerics helpers shared with tests — always the portable-scalar table
// (simd/kernels_scalar.cc), so test baselines don't move with the host CPU.
void RmsNorm(const float* x, const float* gain, float* out, int n);
void Softmax(float* x, int n);
void ApplyRope(float* vec, int n_heads, int head_dim, int pos);
// Table-driven RoPE; bit-identical to ApplyRope for positions in the table.
void ApplyRopeTable(float* vec, int n_heads, int head_dim, int pos,
                    const RopeTable& table);

}  // namespace tzllm

#endif  // SRC_LLM_EXECUTOR_H_
