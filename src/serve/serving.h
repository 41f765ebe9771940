// Multi-session serving runtime: continuous batching over one LlmTa.
//
// The runtime admits up to EngineOptions::max_sessions concurrent generation
// sessions onto a single TA and drives them with a tick-based scheduler.
// Each tick:
//
//   1. Admission/preemption — free KV slots are filled with the most urgent
//      waiting requests (a held-job ServerPool is the admission queue);
//      under ServeEvictPolicy::kPriority a more urgent arrival preempts the
//      least urgent running session via CheckpointSession (the PR 6 sealed
//      blob), whose slot it takes; the victim re-queues at its own priority
//      and is restored bit-identically when capacity frees up. With
//      paged_kv, a slot is a page table, not a resident arena: admission is
//      no longer bounded by what secure scratch can hold resident — the
//      pool spills cold PAGES to encrypted REE memory under pressure, so
//      the expensive whole-session checkpoint eviction above becomes the
//      policy of last resort rather than the only pressure valve.
//   2. One prefill quantum — ONE admitted prompt advances by one chunk of
//      prefill_batch positions (LlmTa::PrefillSessionChunk), so a long
//      incoming prompt interleaves with everyone else's decode instead of
//      blocking the TA for its whole prefill.
//   3. One batched decode step — every running session advances one token
//      through LlmTa::DecodeSessions: per layer one MatMatQ8 across the
//      sessions' current positions, so the weights stream through the cache
//      once per forward regardless of how many sessions ride it (a paged
//      pool too small to pin every session at once splits the step into
//      several forwards). Per-session logits are bit-identical to stepping
//      that session alone.
//   4. Retirement — sessions that hit EOS / budget / context window are
//      finished and their slots freed.
//
// Scheduling is deterministic (priority then FIFO, session order by id);
// wall-clock timestamps are recorded per token for the fig18 latency
// metrics but never feed back into scheduling decisions. Overload and
// failure handling (ISSUE 10) is deterministic too:
//
//   * Admission bound — EngineOptions::serve_queue_max caps the waiting
//     set; Enqueue rejects beyond it with kUnavailable. Queued requests
//     with a deadline_ticks budget that expires before admission are shed
//     with a kUnavailable result instead of degrading admitted sessions.
//   * Stuck-tick watchdog — serve_watchdog_ticks consecutive zero-progress
//     ticks surface kDeadlineExceeded with queue diagnostics.
//   * Crash recovery — every serve_checkpoint_every_n_ticks ticks the
//     runtime snapshots all active sessions (LlmTa::SnapshotSession) and
//     seals a fleet manifest; after a TA crash, Recover() on a fresh
//     runtime over a freshly booted TA re-queues every manifested request,
//     restoring checkpointed sessions token-identically and restarting the
//     rest from their prompts (same tokens either way — generation is
//     deterministic).

#ifndef SRC_SERVE_SERVING_H_
#define SRC_SERVE_SERVING_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/core/llm_ta.h"
#include "src/sim/server.h"

namespace tzllm {

// One generation request submitted to the serving runtime.
struct ServeRequest {
  std::string prompt;
  int max_new_tokens = 0;
  // Lower value = more urgent; ties admit in submission (FIFO) order.
  double priority = 0.0;
  Sampler::Options sampling;
  // Admission deadline in scheduler ticks: still queued (never admitted)
  // this many ticks after submission => shed with a kUnavailable result.
  // 0 = wait forever. Tick-based, not wall-clock: scheduling decisions stay
  // deterministic (tzlint bans wall time in this layer).
  uint64_t deadline_ticks = 0;
};

// A completed request with its timing record. Timestamps are seconds on the
// runtime's own clock (0 = runtime construction).
struct ServeRequestResult {
  uint64_t request_id = 0;
  double priority = 0.0;
  // OK for a completed generation; kUnavailable for a request shed after
  // its deadline_ticks expired in the queue (generation is then empty).
  Status status;
  GenerationResult generation;
  double submit_s = 0.0;
  // When the first generated token was sampled (prefill completion) — TTFT
  // is first_token_s - submit_s.
  double first_token_s = 0.0;
  double finish_s = 0.0;
  // Emission time of each decoded token; adjacent differences are the
  // inter-token latencies.
  std::vector<double> token_s;
  int preemptions = 0;
};

// Aggregate scheduler counters.
struct ServeStats {
  uint64_t ticks = 0;
  uint64_t decode_tokens = 0;
  // Wall time spent inside batched decode steps. decode_tokens /
  // decode_time_s is the aggregate decode throughput — decode only, so it
  // is directly comparable across batch sizes (prefill cost is a latency
  // question and shows up in TTFT, not here).
  double decode_time_s = 0.0;
  // Executor forwards those steps ran and the rows they carried
  // (LlmTa::DecodeStats over this runtime's ticks). decode_rows /
  // decode_forwards is the batch the weights really streamed for: a tick
  // whose sessions do not fit the KV page pool at once runs as several
  // smaller forwards.
  uint64_t decode_forwards = 0;
  uint64_t decode_rows = 0;
  int preemptions = 0;
  // Paged-KV counters, snapshotted from the TA's page pool and prefix
  // registry each tick (all zero when paged_kv is off). Under paging the
  // cheap pressure valve is a page spill/restore — whole-session
  // checkpoint preemptions above should stay rare by comparison.
  uint64_t page_spills = 0;
  uint64_t page_restores = 0;
  uint64_t cow_copies = 0;
  uint64_t prefix_lookups = 0;
  uint64_t prefix_hits = 0;
  // Loss-recovery counters (ISSUE 10): pages whose REE spill blob came back
  // tampered/truncated/missing, and what re-prefilling them cost.
  uint64_t pages_lost = 0;
  uint64_t pages_recomputed = 0;
  uint64_t kv_recoveries = 0;
  double recompute_ms = 0.0;
  // Overload counters: Enqueue rejections (serve_queue_max) and queued
  // requests shed past their deadline_ticks.
  uint64_t requests_rejected = 0;
  uint64_t requests_shed = 0;
  // Crash-recovery counters: auto-checkpoint rounds taken, sessions resumed
  // from a sealed blob by Recover()/admission, and sessions restarted from
  // their prompt because the blob was missing or corrupt.
  uint64_t auto_checkpoints = 0;
  uint64_t sessions_recovered = 0;
  uint64_t sessions_restarted = 0;
};

class ServingRuntime {
 public:
  // `ta` must outlive the runtime and have a model loaded; its
  // EngineOptions supply the session capacity (max_sessions), the prefill
  // quantum (prefill_batch), the decode grouping (decode_batch) and the
  // eviction policy (serve_eviction). `sim` backs the admission-queue
  // ServerPool (held jobs never schedule on it, but the pool needs its
  // substrate).
  ServingRuntime(LlmTa* ta, Simulator* sim);

  // Queues a request; returns its id. Admission happens inside Tick.
  // kUnavailable once serve_queue_max requests are already waiting (queued
  // or evicted) — overload sheds new arrivals instead of degrading every
  // admitted session.
  Result<uint64_t> Enqueue(ServeRequest request);

  // Rebuilds the fleet from the sealed serving manifest on a FRESH runtime
  // (no requests yet) over a freshly booted TA with the same model: every
  // manifested request re-queues at its original id and priority; sessions
  // with a sealed checkpoint resume token-identically on admission, the
  // rest restart from their prompts (deterministic generation makes the
  // final tokens identical either way). kNotFound when no manifest exists.
  Status Recover();

  // Runs one scheduler tick (the four stages above). Returns true while any
  // request is still queued, running or evicted; false once everything
  // completed. kInternal if a tick can make no progress (scheduler bug, not
  // a load condition).
  Result<bool> Tick();

  // Ticks until every enqueued request has completed.
  Status RunToCompletion();

  // Completed requests in completion order.
  const std::vector<ServeRequestResult>& results() const { return results_; }
  const ServeStats& stats() const { return stats_; }
  // Requests not yet completed (queued, running or evicted).
  int pending() const;

  // Test hook: the next `n` ticks skip every scheduler stage (as if the
  // engine made no progress), driving the stuck-tick watchdog
  // deterministically.
  void InjectStallTicksForTest(int n) { stall_inject_ = n; }

 private:
  enum class State {
    kQueued,   // Waiting in the admission queue; no session yet.
    kActive,   // Holds a KV slot (prefilling or decoding).
    kEvicted,  // Checkpointed to flash; waiting in the admission queue.
    kDone,
  };

  struct Request {
    uint64_t id = 0;
    std::string prompt;
    int max_new_tokens = 0;
    double priority = 0.0;
    Sampler::Options sampling;
    State state = State::kQueued;
    SessionId sid = 0;  // Valid from first admission on (survives eviction).
    int preemptions = 0;
    double submit_s = 0.0;
    double first_token_s = 0.0;
    bool has_first_token = false;
    std::vector<double> token_s;
    // Tick counter value at submission; with deadline_ticks > 0 the request
    // is shed once it waits past the budget without ever being admitted.
    uint64_t submit_tick = 0;
    uint64_t deadline_ticks = 0;
    // Re-queued by Recover() with a sealed session checkpoint to restore;
    // its first successful admission counts as a session recovered.
    bool from_manifest = false;
  };

  double Now() const;
  Request* Find(uint64_t id);
  // Pops the admission queue's most urgent request and admits it into a
  // free KV slot (fresh AdmitSession or RestoreSession for an evictee).
  Status AdmitTop();
  // Seals `r`'s session to flash, frees its slot and re-queues it.
  Status Evict(Request* r);
  // The least urgent session eligible as a preemption victim (active,
  // prefilled, not done); ties broken toward the youngest session.
  Request* LeastUrgentRunning();
  // Copies the TA's page-pool / prefix-registry counters into stats_.
  void SnapshotKvStats();
  // The most urgent admitted session still mid-prefill; nullptr if none.
  Request* NextPrefill();
  // Re-queues `r` on the admission ServerPool (held job carrying its id).
  void SubmitJob(const Request& r);
  // Auto-checkpoint round: snapshot every active session and seal the fleet
  // manifest (serve_checkpoint_every_n_ticks cadence).
  Status CheckpointFleet();
  // The sealed manifest bytes: every non-done request's identity, priority,
  // budget, sampling options and prompt.
  std::vector<uint8_t> SerializeManifest() const;

  LlmTa* ta_;
  ServerPool pool_;
  std::map<uint64_t, Request> requests_;  // Deterministic iteration order.
  std::vector<ServeRequestResult> results_;
  ServeStats stats_;
  uint64_t next_request_ = 1;
  // Handoff slot for the admission queue's job closures (see AdmitTop).
  uint64_t popped_request_ = 0;
  // Consecutive zero-progress ticks (watchdog) and pending injected stalls
  // (test hook).
  int stall_ticks_ = 0;
  int stall_inject_ = 0;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace tzllm

#endif  // SRC_SERVE_SERVING_H_
