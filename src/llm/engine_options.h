// Knobs for the functional inference engine, threaded from RuntimeConfig
// down through LlmTa / LlmEngine to the TransformerExecutor so benchmarks
// can sweep thread counts, prefill batching, NPU offload and serving
// concurrency.
//
// The knobs are grouped (kernel, npu, fault, serving) and validated by ONE
// entry point — EngineOptions::Validate() — instead of scattered per-knob
// checks in LoadModel / llm_ta.cc: a configuration either passes Validate()
// or the load fails with a clear InvalidArgument before any secure memory
// is touched.

#ifndef SRC_LLM_ENGINE_OPTIONS_H_
#define SRC_LLM_ENGINE_OPTIONS_H_

#include <algorithm>
#include <string>
#include <thread>

#include "src/common/status.h"
#include "src/common/units.h"
#include "src/llm/kv_cache.h"

namespace tzllm {

// What the serving runtime does when a more urgent request arrives and
// every session slot is occupied (src/serve/serving.h).
enum class ServeEvictPolicy : uint8_t {
  // Never preempt: urgent requests wait for a slot to free up naturally.
  kNone = 0,
  // Checkpoint the least-urgent *running* session to flash (the PR 6
  // CheckpointSession primitive), hand its slot to the more urgent request,
  // and re-queue the victim at its original priority — restored later with
  // bit-identical resumption.
  kPriority = 1,
};

struct EngineOptions {
  // --- Kernel group: where and how the CPU math runs. -------------------

  // CPU lanes for the kernel pool; 1 = no pool, fully single-threaded;
  // 0 = auto (all hardware threads). Always clamped to the machine's
  // hardware concurrency at executor construction (ResolvedThreads):
  // oversubscribing a 1-core box measurably *loses* throughput (the fig17
  // snapshot showed threads_4 slower than threads_1), so a request beyond
  // the hardware is treated as "use everything", not honored literally.
  int n_threads = 1;
  // Rows per prefill batch (MatMatQ8 weight reuse); <= 1 runs one position
  // per batch. Also the serving runtime's prefill scheduling quantum: each
  // scheduler tick advances one admitted session by one chunk of this many
  // positions.
  int prefill_batch = 32;
  // Runs the seed's scalar float-activation kernels and per-call RoPE — the
  // performance/numerics baseline the benches and parity tests compare
  // against. Implies f32 KV storage and keeps prefill on the CPU backend;
  // the forward schedule is the same one the quantized engine runs.
  bool use_reference_kernels = false;
  // Stores the KV cache at f32 instead of the default f16 — the full-width
  // numerics baseline the f16-KV parity suite diffs against. Costs 2x cache
  // footprint, so CurrentBytes() reports 2x the f16 accounting.
  bool kv_f32 = false;
  // Binds this engine to the portable-scalar kernel table even when the CPU
  // supports a SIMD backend — the software half of the SIMD-vs-scalar parity
  // suite (the process-wide TZLLM_SIMD=off env override is the other half),
  // so both dispatch paths are testable on one machine. Unlike
  // use_reference_kernels this keeps the quantized kernels, batched prefill
  // and f16 KV cache; only the inner-loop table changes.
  bool force_scalar = false;
  // Accumulates attention-phase wall time in the executor (bench
  // instrumentation; off by default so production decode takes no clock
  // reads).
  bool collect_stats = false;

  // --- NPU group: secure co-driver prefill offload. ---------------------

  // Routes the batched-prefill matmuls through the secure NPU co-driver
  // (the ComputeBackend seam): each chunk's QKV/FFN matmuls become
  // TZASC-validated NpuJobDesc execution contexts submitted via
  // TeeNpuDriver::SubmitJob. Decode stays on the CPU KernelDispatch path.
  // Requires the co-driver to be wired (LlmTa's npu_driver parameter, from
  // RuntimeConfig::use_npu) — loading fails with a clear Status otherwise.
  // Composes with TZLLM_SIMD: the NPU functional payload runs the engine's
  // own kernel table (the integer-dot rows are bit-identical across tables,
  // and the fused layer-tail's norm/silu glue must match the CPU path
  // exactly), so the combination never changes a logit. Inert under
  // use_reference_kernels (the NPU payloads are quantized-kernel only) or
  // prefill_batch <= 1 (nothing to batch); see npu_prefill_active().
  bool npu_prefill = false;
  // Fuses each chunk-layer's matmul group into one secure NPU job (QKV as
  // one job; the whole post-attention segment — Wo + residual + FFN norm +
  // gate/up/silu/down — as another), amortizing the per-job world-switch
  // cost: 2 jobs per layer-chunk instead of 7. Off = one job per matmul
  // (the pre-fusion granularity, kept for the fused-vs-unfused parity test
  // and the co-driver ablation).
  bool npu_fusion = true;

  // --- Fault group: NPU failure injection and recovery. -----------------

  // Per-job wait deadline for secure NPU jobs, on the virtual clock. Must
  // be positive when NPU prefill is active: Validate() / the backend reject
  // non-positive values with InvalidArgument (a zero deadline would mean
  // "wait forever", which a lost job turns into a hang).
  SimDuration npu_job_timeout = 2000 * kMillisecond;
  // Recovery policy for a failed or timed-out secure job: up to
  // npu_max_retries resubmissions (each preceded by npu_retry_backoff of
  // virtual time, charged to the sim clock so the makespan metric stays
  // honest), then — if npu_cpu_fallback — the failed fused job's matmul
  // group is re-executed on the CPU path and the prefill continues.
  // Bit-identical either way: retry and fallback both run the same kernel
  // table the NPU payload would have. npu_cpu_fallback=false surfaces the
  // final Status to the caller instead (the pre-recovery behavior).
  int npu_max_retries = 2;
  SimDuration npu_retry_backoff = 1 * kMillisecond;
  bool npu_cpu_fallback = true;
  // Deterministic fault plan ("payload@5", "timeout@3x2", "ctx@1",
  // "submit@4" — see NpuFaultPlan::Parse). Empty = fall back to the
  // TZLLM_FAULT_PLAN environment variable (the CI fault-sweep hook); both
  // empty = no injection. A malformed plan string fails Validate() with
  // InvalidArgument.
  std::string npu_fault_plan;

  // --- Serving group: multi-session concurrency (src/serve/). -----------

  // Concurrent generation sessions one LlmTa admits: the KV arena holds
  // this many per-session cache slots (all budgeted into the secure scratch
  // region at load), and BeginSession/AdmitSession beyond it fails with
  // kResourceExhausted. 1 keeps the single-session footprint and the
  // legacy "exactly one open session" semantics.
  int max_sessions = 1;
  // Most sessions per decode forward (one MatMatQ8 over the group's
  // current positions per layer, so the weights stream once per group).
  // 0 = no cap. LlmTa::DecodeSessions splits a step into groups of at most
  // this many; with paged_kv a group is also capped by the frames the pool
  // can pin at once (distinct pages plus per-session append headroom).
  int decode_batch = 0;
  // Under-pressure eviction policy for the serving runtime's admission
  // queue.
  ServeEvictPolicy serve_eviction = ServeEvictPolicy::kPriority;
  // Admission-queue bound: Enqueue rejects with kUnavailable once this many
  // requests are waiting (queued or evicted). 0 = unbounded (the pre-ISSUE
  // 10 behavior). Overload then sheds late-comers instead of degrading
  // every admitted session.
  int serve_queue_max = 0;
  // Stuck-tick watchdog: this many consecutive scheduler ticks with zero
  // session progress (no prefill advance, no decode token, no retirement)
  // surface kDeadlineExceeded with diagnostic stats instead of spinning.
  // 0 disables (a no-work tick is then an immediate kInternal, the pre-
  // watchdog contract).
  int serve_watchdog_ticks = 0;
  // Auto-checkpoint cadence for whole-TA crash recovery: every N scheduler
  // ticks the runtime seals every active session (SnapshotSession) plus a
  // serving manifest through tee/checkpoint, so a fresh TA can
  // ServingRuntime::Recover() the whole fleet. 0 disables.
  int serve_checkpoint_every_n_ticks = 0;
  // Deterministic serving-layer fault plan ("spill_tamper@1x100",
  // "ckpt_drop@2", "ta_crash@40" — see ServeFaultPlan::Parse). Empty =
  // fall back to TZLLM_SERVE_FAULT_PLAN (the CI chaos-sweep hook); both
  // empty = no injection. Malformed strings fail Validate().
  std::string serve_fault_plan;

  // --- Paged KV group: page pool, REE spill and prefix sharing. ---------

  // Backs the session KV slots with a shared page pool (fixed pages of
  // kv_page_positions positions x all layers, refcounted, LRU-spilled to
  // encrypted REE memory under pressure) instead of fully-resident flat
  // arenas. Logits are bit-identical either way; false keeps the flat
  // arenas as the paging ablation baseline.
  bool paged_kv = true;
  // Sequence positions per KV page. Smaller pages spill and share at finer
  // grain but add page hops to the attention walk.
  int kv_page_positions = 16;
  // Secure-resident budget of the page pool in bytes; 0 = the flat budget
  // (max_sessions x per-session arena bytes), so enabling paging never
  // grows the scratch region. Values below one session's full-context
  // footprint over-subscribe physical residency and lean on spill.
  uint64_t kv_pool_bytes = 0;
  // Allow evicting cold pages to AES-CTR + SHA-256 protected REE blobs
  // (restored and integrity-checked on demand; tamper => kDataCorruption).
  // Off = the pool is a hard allocation budget.
  bool kv_spill = true;
  // Capacity of the cross-session shared-prefix registry (sessions whose
  // prompts share a registered token prefix map the same read-only pages,
  // copy-on-write past the fork point). 0 disables sharing.
  int kv_prefix_entries = 16;
  // Recompute-on-loss budget: lifetime cap on KV pages re-prefilled per
  // session after a spilled page's REE blob came back tampered, truncated
  // or missing. Within the budget REE misbehavior is a latency event (the
  // covered positions are recomputed bit-identically from the session's
  // token history); past it — or at 0, which disables recovery — the
  // original kDataCorruption surfaces.
  int kv_recompute_max = 256;

  // True exactly when this configuration routes prefill to the NPU backend
  // (reference kernels and prefill_batch <= 1 keep prefill on the CPU,
  // making npu_prefill genuinely inert) — THE predicate LoadModel
  // budgets job contexts with, and the one Validate() gates the NPU/fault
  // knob checks on, so there is no second spelling to drift.
  bool npu_prefill_active() const {
    return npu_prefill && !use_reference_kernels && prefill_batch > 1;
  }

  // Validates the whole configuration, cross-knob effects included
  // (NPU/fault checks apply only when npu_prefill_active()). The single
  // validation entry point: LoadModel calls this once instead of scattering
  // per-knob checks, so every rejected configuration fails before secure
  // memory is allocated. Does NOT check driver wiring (that is runtime
  // state, not configuration — LoadModel still verifies the co-driver is
  // present when NPU prefill is active).
  Status Validate() const;
};

// The thread count an engine configured with `options` actually runs:
// n_threads <= 0 means "all hardware threads", anything larger than the
// hardware is clamped to it (oversubscription only adds scheduler thrash —
// there is no configuration where it wins). hardware_concurrency() == 0
// means "unknown" per the standard, not "one core": honor the request then
// rather than silently de-threading a working configuration.
inline int ResolvedThreads(const EngineOptions& options) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw <= 0) {
    return std::max(1, options.n_threads);
  }
  return options.n_threads <= 0 ? hw : std::min(options.n_threads, hw);
}

// Arena element type for the options' KV mode (reference kernels keep the
// seed's full-width cache so the baseline numerics stay frozen).
inline KvStorage KvStorageFor(const EngineOptions& options) {
  return options.kv_f32 || options.use_reference_kernels ? KvStorage::kF32
                                                         : KvStorage::kF16;
}

}  // namespace tzllm

#endif  // SRC_LLM_ENGINE_OPTIONS_H_
