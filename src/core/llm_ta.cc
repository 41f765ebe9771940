#include "src/core/llm_ta.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <set>
#include <unordered_set>
#include <utility>

#include "src/common/log.h"
#include "src/crypto/sha256.h"
#include "src/llm/cost_model.h"
#include "src/llm/graph.h"
#include "src/tee/checkpoint.h"

namespace tzllm {

namespace {

// KV spill blobs live in attacker-controlled REE memory, so they get their
// own key, derived from the model key with a fixed label (never the model
// key itself: a break of the spill path must not expose the weights). The
// TEE OS key epoch makes the key unique to this load of this TA instance:
// every fresh page pool restarts its spill sequence at 1, so without it a
// blob kept from a previous boot would carry the same labels and
// authenticate, restoring another boot's KV.
AesKey128 DeriveKvSpillKey(const AesKey128& model_key, uint64_t epoch) {
  Sha256 hasher;
  hasher.Update(model_key.data(), model_key.size());
  hasher.Update("kv-spill");
  uint8_t epoch_le[8];
  for (int i = 0; i < 8; ++i) {
    epoch_le[i] = static_cast<uint8_t>(epoch >> (8 * i));
  }
  hasher.Update(epoch_le, sizeof(epoch_le));
  const Sha256Digest digest = hasher.Finalize();
  AesKey128 key{};
  std::copy(digest.begin(), digest.begin() + key.size(), key.begin());
  return key;
}

}  // namespace

LlmTa::LlmTa(SocPlatform* platform, TeeOs* tee_os, TzDriver* tz_driver,
             const EngineOptions& engine_options, TeeNpuDriver* npu_driver)
    : platform_(platform),
      tee_os_(tee_os),
      tz_driver_(tz_driver),
      engine_options_(engine_options),
      npu_driver_(npu_driver) {}

Status LlmTa::Attach() {
  auto ta = tee_os_->CreateTa("llm-ta");
  if (!ta.ok()) {
    return ta.status();
  }
  ta_ = *ta;
  return OkStatus();
}

Status LlmTa::LoadModel(const std::string& model_id, SchedulePolicy policy) {
  if (loaded_) {
    return FailedPrecondition("a model is already loaded");
  }
  // Whole-configuration validation up front (EngineOptions::Validate is the
  // one entry point — serving, NPU and fault knobs together), so every
  // rejected configuration fails before a key is unwrapped or secure memory
  // is allocated.
  TZLLM_RETURN_IF_ERROR(engine_options_.Validate());
  model_id_ = model_id;

  // Serving-layer fault plan: the options string wins (Validate() vetted
  // its syntax); otherwise the TZLLM_SERVE_FAULT_PLAN environment variable
  // (the CI chaos sweep). Resolved once here so every injection point — the
  // KV pool's spill path, the checkpoint saves, the serving runtime's tick
  // crash — reads the same plan.
  if (!engine_options_.serve_fault_plan.empty()) {
    auto serve_plan = ServeFaultPlan::Parse(engine_options_.serve_fault_plan);
    if (!serve_plan.ok()) {
      return serve_plan.status();
    }
    serve_fault_plan_ = *serve_plan;
  } else {
    serve_fault_plan_ = ServeFaultPlan::FromEnv();
  }

  // 1. Key: only the TEE can unwrap; only this TA is authorized.
  auto key = tee_os_->GetModelKey(ta_, model_id);
  if (!key.ok()) {
    return key.status();
  }
  model_key_ = *key;

  // 2. Metadata (decrypt + integrity check against flash tampering).
  auto meta = Tzguf::ReadMeta(&platform_->flash(), model_id, model_key_);
  if (!meta.ok()) {
    return meta.status();
  }
  meta_ = std::make_unique<TzgufMeta>(*meta);
  if (!meta_->materialized) {
    return FailedPrecondition(
        "LlmTa requires a materialized (functional) model");
  }
  spec_ = std::make_unique<ModelSpec>(ModelSpec::Create(meta_->config));

  // 3. Scratch region for the KV arena / activations (also hosts NPU job
  //    execution contexts). Budgeted at the width the caches will actually
  //    store: KvArena::BudgetBytes accounts the flat per-session slots or
  //    the shared KV page pool (whichever this configuration builds), plus
  //    a vocab-size logits row per admissible session — so accounted ==
  //    resident in every mode.
  //    NPU prefill adds the job execution-context window (double-buffered
  //    cmd/iopt/in/out slots) at the region tail, so CreateJob's TZASC
  //    validation passes exactly because the budget covered it.
  if (engine_options_.npu_prefill_active()) {
    if (npu_driver_ == nullptr) {
      return FailedPrecondition(
          "NPU prefill requested (EngineOptions::npu_prefill) but the "
          "platform has no NPU co-driver (RuntimeConfig::use_npu is off or "
          "TeeNpuDriver was not wired into this TA)");
    }
    npu_ctx_bytes_ = NpuBackend::ContextBytes(*spec_, engine_options_);
    // Fault-injection plan: the options string wins (Validate() already
    // vetted its syntax); otherwise the TZLLM_FAULT_PLAN environment
    // variable (CI fault sweeps).
    NpuFaultPlan fault_plan;
    if (!engine_options_.npu_fault_plan.empty()) {
      auto parsed = NpuFaultPlan::Parse(engine_options_.npu_fault_plan);
      if (!parsed.ok()) {
        return parsed.status();
      }
      fault_plan = *parsed;
    } else {
      fault_plan = NpuFaultPlan::FromEnv();
    }
    if (fault_plan.active()) {
      npu_driver_->ArmFaultPlan(fault_plan);
      TZLLM_LOG_INFO("llm-ta", "armed NPU fault plan %s",
                     fault_plan.ToString().c_str());
    }
  }
  // The KV share of the budget comes from the SAME static the arena itself
  // is sized by (KvArena::BudgetBytes) — flat slots and the paged pool alike
  // — so accounted == ArenaBytes() in every mode and the two can never
  // drift. With paged_kv and kv_pool_bytes == 0 the pool inherits the flat
  // slots x per-session product: paging never grows the scratch region.
  KvArenaOptions arena_options;
  arena_options.slots = engine_options_.max_sessions;
  arena_options.storage = KvStorageFor(engine_options_);
  arena_options.kernels = KernelsFor(engine_options_);
  arena_options.paged = engine_options_.paged_kv;
  arena_options.pool.page_positions = engine_options_.kv_page_positions;
  arena_options.pool.pool_bytes = engine_options_.kv_pool_bytes;
  arena_options.pool.spill = engine_options_.kv_spill;
  arena_options.pool.spill_key =
      DeriveKvSpillKey(model_key_, tee_os_->NextKeyEpoch());
  arena_options.prefix_entries = engine_options_.kv_prefix_entries;
  const uint64_t n_slots =
      static_cast<uint64_t>(engine_options_.max_sessions);
  scratch_bytes_ = AlignUp(
      KvArena::BudgetBytes(*spec_, arena_options) +
          spec_->ActivationBytes() +
          n_slots * spec_->config().vocab_size * sizeof(float) +
          npu_ctx_bytes_ + 64 * kKiB,
      kPageSize);
  auto scratch =
      tee_os_->ExtendAllocated(ta_, SecureRegionId::kScratch, scratch_bytes_);
  if (!scratch.ok()) {
    return scratch.status();
  }
  TZLLM_RETURN_IF_ERROR(
      tee_os_->ExtendProtected(ta_, SecureRegionId::kScratch, scratch_bytes_));

  // 4. Pipelined restoration with real side effects.
  TZLLM_RETURN_IF_ERROR(RestoreParameters(policy));

  // 5. Framework state: tokenizer (checkpointable), the per-session KV
  //    arena, and the executor with the prefill backend seam wired to the
  //    NPU co-driver when requested.
  tokenizer_ = std::make_unique<Tokenizer>(spec_->config().vocab_size);
  weights_ = std::make_unique<SecureWeightSource>(this);
  kv_arena_ = std::make_unique<KvArena>(*spec_, arena_options);
  if (kv_arena_->paged()) {
    // The pool may be smaller than slots x full-context (over-subscription
    // is the point), but it must at least hold ONE session's full context
    // resident: a decode step pins every page of its session, so a pool
    // below that floor could wedge with every frame pinned.
    const KvPagePool* pool = kv_arena_->pool();
    if (static_cast<uint64_t>(pool->frames()) * pool->page_positions() <
        static_cast<uint64_t>(spec_->config().max_ctx)) {
      return InvalidArgument(
          "EngineOptions::kv_pool_bytes too small: the KV page pool cannot "
          "hold one session's full context resident");
    }
    // Spill-class fault plans arm the pool itself: every Nth spill blob is
    // tampered with (or truncated) on its way into REE memory, modeling a
    // hostile normal world — detected at restore, recovered by recompute.
    if (serve_fault_plan_.active() &&
        (serve_fault_plan_.fault == ServeFaultClass::kSpillTamper ||
         serve_fault_plan_.fault == ServeFaultClass::kSpillDrop)) {
      kv_arena_->pool()->ArmSpillFault(
          serve_fault_plan_.fault == ServeFaultClass::kSpillDrop,
          serve_fault_plan_.first, serve_fault_plan_.count);
      TZLLM_LOG_INFO("llm-ta", "armed serve fault plan %s on the KV pool",
                     serve_fault_plan_.ToString().c_str());
    }
  }
  if (engine_options_.npu_prefill_active()) {
    NpuBackendConfig backend_config;
    backend_config.platform = platform_;
    backend_config.driver = npu_driver_;
    backend_config.ta = ta_;
    backend_config.ctx_bytes = npu_ctx_bytes_;
    // Job contexts live in the tail of this TA's scratch extent. The extent
    // address comes from the allocation itself (not RegionBase) so the math
    // stays right even if the single-owner region model ever loosens.
    backend_config.ctx_base =
        scratch->addr + scratch_bytes_ - npu_ctx_bytes_;
    // The payloads must run the engine's own table: the fused layer tail
    // carries norm/silu glue whose floats have to match the CPU path
    // bit-for-bit, not just the (table-invariant) integer-dot rows.
    backend_config.kernels = KernelsFor(engine_options_);
    backend_config.fuse_jobs = engine_options_.npu_fusion;
    backend_config.job_timeout = engine_options_.npu_job_timeout;
    backend_config.max_retries = engine_options_.npu_max_retries;
    backend_config.retry_backoff = engine_options_.npu_retry_backoff;
    backend_config.cpu_fallback = engine_options_.npu_cpu_fallback;
    npu_backend_ =
        std::make_unique<NpuBackend>(backend_config);
  }
  executor_ = std::make_unique<TransformerExecutor>(
      spec_.get(), weights_.get(), engine_options_, npu_backend_.get());
  loaded_ = true;
  return OkStatus();
}

Status LlmTa::LoadExtent(uint64_t offset, uint64_t bytes) {
  // The CA loads the encrypted extent from flash into the *unprotected*
  // freshly allocated CMA memory: the flash controller's DMA is checked
  // against the TZASC, so this only works because extend_protected has not
  // yet covered the extent (paper §4.2 bounce-buffer elimination).
  const PhysAddr dst = tee_os_->RegionBase(SecureRegionId::kParams) + offset;
  TZLLM_RETURN_IF_ERROR(platform_->tzasc().CheckDmaAccess(
      DeviceId::kFlashController, dst, bytes));
  std::vector<uint8_t> buf(bytes);
  TZLLM_RETURN_IF_ERROR(platform_->flash().PeekBytes(meta_->DataFile(), offset,
                                                     bytes, buf.data()));
  TZLLM_RETURN_IF_ERROR(platform_->dram().Write(dst, buf.data(), bytes));
  // Now cover it with the TZASC before plaintext ever exists.
  return tee_os_->ExtendProtected(ta_, SecureRegionId::kParams, bytes);
}

Status LlmTa::DecryptExtent(uint64_t offset, uint64_t bytes) {
  const PhysAddr base = tee_os_->RegionBase(SecureRegionId::kParams);
  std::vector<uint8_t> buf(bytes);
  TZLLM_RETURN_IF_ERROR(platform_->dram().Read(base + offset, buf.data(),
                                               bytes));
  Tzguf::DecryptExtent(model_key_, model_id_, offset, buf.data(), bytes);
  // Verify every tensor fully contained in this extent (Iago defense for
  // model loading, §6).
  for (const TensorSpec& t : spec_->tensors()) {
    if (t.file_offset >= offset && t.file_offset + t.bytes <= offset + bytes) {
      TZLLM_RETURN_IF_ERROR(
          Tzguf::VerifyTensor(*meta_, t.index,
                              buf.data() + (t.file_offset - offset),
                              t.data_bytes));
    }
  }
  return platform_->dram().Write(base + offset, buf.data(), bytes);
}

Status LlmTa::RestoreParameters(SchedulePolicy policy) {
  const ComputeGraph graph = ComputeGraph::BuildPrefill(*spec_);
  const CostModel cost(spec_.get());

  RestorePlanOptions options;
  // NPU availability comes from the runtime wiring (RuntimeConfig::use_npu
  // hands this TA the co-driver) plus the engine knobs, not a hardcoded
  // false: the plan prices prefill compute ops at NPU rates exactly when
  // the configuration routes prefill there. npu_ctx_bytes_ is nonzero
  // exactly when LoadModel decided NPU prefill is active (driver wired,
  // npu_prefill set, not kept on the CPU by reference kernels or
  // one-position batches) — one predicate, no second spelling to drift.
  // The plan is nominal per model (n_tokens=16 below).
  options.npu_available = npu_ctx_bytes_ > 0;
  options.decrypt = true;
  options.preemptible = policy == SchedulePolicy::kPriorityPreemptive;
  options.chunk_bytes = 256 * kKiB;  // Functional models are small.

  RestoreHooks hooks;
  hooks.plan_alloc = [this](uint64_t bytes) -> Result<SimDuration> {
    auto extent =
        tee_os_->ExtendAllocated(ta_, SecureRegionId::kParams, bytes);
    if (!extent.ok()) {
      return extent.status();
    }
    return extent->cpu_time;
  };
  hooks.load = [this](uint64_t offset, uint64_t bytes) {
    return LoadExtent(offset, bytes);
  };
  hooks.decrypt = [this](uint64_t offset, uint64_t bytes) {
    return DecryptExtent(offset, bytes);
  };

  auto plan = BuildRestorePlan(*spec_, graph, /*n_tokens=*/16, cost, options,
                               hooks);
  if (!plan.ok()) {
    return plan.status();
  }
  PipelineConfig config;
  config.policy = policy;
  PipelineExecutor executor(&platform_->sim(), config);
  restore_result_ = executor.RunToCompletion(std::move(plan->ops));
  return restore_result_.status;
}

Result<const uint8_t*> LlmTa::SecureWeightSource::TensorData(
    int tensor_index) {
  auto it = cache_.find(tensor_index);
  if (it != cache_.end()) {
    return static_cast<const uint8_t*>(it->second.data());
  }
  LlmTa* ta = ta_;
  const TensorSpec& spec = ta->spec_->tensor(tensor_index);
  const PhysAddr addr =
      ta->tee_os_->RegionBase(SecureRegionId::kParams) + spec.file_offset;
  // A real TA reads through its secure VA mapping; the TEE OS enforces that
  // the mapping exists. We model the same check explicitly.
  if (!ta->tee_os_->TaCanAccess(ta->ta_, addr, spec.data_bytes)) {
    return Status(ErrorCode::kPermissionDenied,
                  "tensor not mapped into TA address space");
  }
  std::vector<uint8_t> buf(spec.data_bytes);
  Status st = ta->platform_->dram().Read(addr, buf.data(), spec.data_bytes);
  if (!st.ok()) {
    return st;
  }
  auto [slot, inserted] = cache_.emplace(tensor_index, std::move(buf));
  return static_cast<const uint8_t*>(slot->second.data());
}

// --- Session bookkeeping. -------------------------------------------------

LlmTa::Session* LlmTa::FindSession(SessionId sid) {
  auto it = sessions_.find(sid);
  return it == sessions_.end() ? nullptr : &it->second;
}

const LlmTa::Session* LlmTa::FindSession(SessionId sid) const {
  auto it = sessions_.find(sid);
  return it == sessions_.end() ? nullptr : &it->second;
}

Result<LlmTa::Session*> LlmTa::SoleSession() {
  if (sessions_.empty()) {
    return Status(ErrorCode::kFailedPrecondition, "no active session");
  }
  if (sessions_.size() > 1) {
    return Status(ErrorCode::kFailedPrecondition,
                  "legacy single-session call with several sessions open "
                  "(pass a SessionId)");
  }
  return &sessions_.begin()->second;
}

bool LlmTa::SessionStopped(const Session& s) const {
  if (s.done) {
    return true;
  }
  if (!s.prefilled) {
    return false;  // Still mid-prefill: there is work left, not a stop.
  }
  const KvCache* kv = kv_arena_->cache(s.slot);
  return s.remaining == 0 || s.next_token == Tokenizer::kEos ||
         kv->seq_len() >= spec_->config().max_ctx;
}

void LlmTa::CloseSession(Session* s) {
  const Status released = kv_arena_->Release(s->slot);
  if (!released.ok()) {
    // Double-release can only mean corrupted bookkeeping; surface it loudly
    // but don't mask the caller's path — the session entry goes either way.
    TZLLM_LOG_ERROR("llm-ta", "session %llu slot release failed: %s",
                    static_cast<unsigned long long>(s->sid),
                    released.ToString().c_str());
  }
  sessions_.erase(s->sid);
}

// --- Recompute-on-loss KV recovery (ISSUE 10). -----------------------------

Status LlmTa::RecoverLostKv(const std::vector<Session*>& sessions,
                            bool* recovered) {
  *recovered = false;
  if (!kv_arena_->paged() || engine_options_.kv_recompute_max <= 0) {
    return OkStatus();
  }
  for (Session* s : sessions) {
    KvCache* kv = kv_arena_->cache(s->slot);
    std::vector<int> lost;
    TZLLM_RETURN_IF_ERROR(kv->ProbeLostPages(&lost));
    if (lost.empty()) {
      continue;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const int seq = kv->seq_len();
    const int pp = kv->page_positions();
    const int prompt_len = static_cast<int>(s->prompt_tokens.size());
    // Ranges still to heal, ascending. Healing one range can surface MORE
    // loss — the re-prefill pins the whole prefix, and under a hostile REE
    // those restores fail too — so every nested kDataCorruption folds the
    // new casualties into this set and the loop restarts from the lowest
    // index. Recovery then survives arbitrarily unreliable spill storage,
    // up to the recompute budget.
    std::set<int> pending;
    uint64_t healed = 0;
    std::vector<TokenId> span;
    auto absorb = [&](const std::vector<int>& found) -> Status {
      // A registry entry holding a lost page would hand zeros to the next
      // AdoptPrefix — invalidate those before detaching anything.
      const int dropped = kv_arena_->DropLostPrefixEntries();
      if (dropped > 0) {
        TZLLM_LOG_WARN("llm-ta",
                       "dropped %d prefix registry entries over lost pages",
                       dropped);
      }
      if (s->pages_recomputed + static_cast<int>(healed + found.size()) >
          engine_options_.kv_recompute_max) {
        return Status(
            ErrorCode::kDataCorruption,
            "KV recompute budget exhausted (EngineOptions::kv_recompute_max):"
            " REE spill storage keeps losing this session's pages");
      }
      // Detach/heal the whole found set first: a page still shared with
      // other holders is swapped for a fresh private one, and the
      // re-prefill below must only ever write pages this session owns
      // exclusively.
      for (int idx : found) {
        TZLLM_RETURN_IF_ERROR(kv->PrepareRecompute(idx));
        pending.insert(idx);
      }
      return OkStatus();
    };
    TZLLM_RETURN_IF_ERROR(absorb(lost));
    // Lowest pending range first: recomputing page i attends over positions
    // < i*pp only, so earlier lost pages are already healed by the time a
    // later one reads them.
    while (!pending.empty()) {
      const int idx = *pending.begin();
      const int a = idx * pp;
      const int b = std::min((idx + 1) * pp, seq);
      if (b <= a) {
        // Allocated-but-unfilled tail page: nothing to recompute.
        pending.erase(pending.begin());
        ++healed;
        continue;
      }
      span.clear();
      span.reserve(b - a);
      for (int p = a; p < b; ++p) {
        // The token that produced position p: the prompt, then the emitted
        // outputs. A token is pushed no later than the step that appends
        // its position, so the history covers every cached position.
        span.push_back(p < prompt_len ? s->prompt_tokens[p]
                                      : s->output_tokens[p - prompt_len]);
      }
      // Rewind the fill marks to the lost range and run the standard
      // chunked prefill over it: PrefillChunk takes its RoPE start from the
      // cache's seq_len, so the rows land at exactly positions [a, b) with
      // the same floats the original pass produced (chunked prefill is
      // bit-identical at any boundary — the house invariant).
      TZLLM_RETURN_IF_ERROR(kv->RewindFill(a));
      const Status refilled = executor_->PrefillChunk(
          span.data(), b - a, kv, nullptr);
      if (!refilled.ok()) {
        Status surface = refilled;
        if (refilled.code() == ErrorCode::kDataCorruption) {
          // The re-prefill's own pin quarantined more spilled pages (they
          // sit below `idx` — its attention reads them). Fold them in and
          // restart from the new lowest range.
          std::vector<int> more;
          const Status probed = kv->ProbeLostPages(&more);
          if (!probed.ok()) {
            surface = probed;
          } else if (!more.empty()) {
            const Status absorbed = absorb(more);
            if (absorbed.ok()) {
              continue;
            }
            surface = absorbed;
          }
        }
        // Leave the marks honest before surfacing: positions past `a` are
        // unreliable now.
        (void)kv->RewindFill(a);  // Cannot fail for an in-range position.
        return surface;
      }
      pending.erase(pending.begin());
      ++healed;
    }
    TZLLM_RETURN_IF_ERROR(kv->RewindFill(seq));
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    s->pages_recomputed += static_cast<int>(healed);
    kv_recovery_stats_.pages_recomputed += healed;
    ++kv_recovery_stats_.recoveries;
    kv_recovery_stats_.recompute_ms += ms;
    *recovered = true;
    TZLLM_LOG_WARN("llm-ta",
                   "session %llu lost %llu KV pages to REE misbehavior; "
                   "recomputed them from token history (%.2f ms)",
                   static_cast<unsigned long long>(s->sid),
                   static_cast<unsigned long long>(healed), ms);
  }
  return OkStatus();
}

Status LlmTa::RetryWithKvRecovery(const std::vector<Session*>& sessions,
                                  const std::function<Status()>& step) {
  for (;;) {
    const Status st = step();
    if (st.ok() || st.code() != ErrorCode::kDataCorruption) {
      return st;
    }
    // A spilled page failed its integrity check while the step pinned the
    // cache. Corruption can only surface at pin time — before any append —
    // so no partial step state exists and rerunning the step is safe.
    bool recovered = false;
    TZLLM_RETURN_IF_ERROR(RecoverLostKv(sessions, &recovered));
    if (!recovered) {
      return st;  // Not a lost-page condition (or recovery is disabled).
    }
    // Terminates: every pass through here healed >= 1 page and the
    // per-session budget (kv_recompute_max) is finite.
  }
}

// --- Handle-based session API. --------------------------------------------

Result<SessionId> LlmTa::AdmitSession(const std::string& prompt,
                                      int max_new_tokens,
                                      const Sampler::Options& sampling) {
  if (!loaded_) {
    return Status(ErrorCode::kFailedPrecondition, "no model loaded");
  }
  if (max_new_tokens < 0) {
    return InvalidArgument("max_new_tokens must be >= 0");
  }
  if (engine_options_.max_sessions == 1 && !sessions_.empty()) {
    // The legacy single-session contract, verbatim: a 1-slot TA refuses a
    // second Begin as a precondition failure, not a capacity condition.
    return Status(ErrorCode::kFailedPrecondition,
                  "a generation session is already active (Finish it first)");
  }
  Session s;
  s.prompt_tokens = tokenizer_->Encode(prompt);
  if (s.prompt_tokens.empty()) {
    return InvalidArgument("empty prompt");
  }
  TZLLM_ASSIGN_OR_RETURN(slot, kv_arena_->Acquire());
  s.sid = next_sid_++;
  s.slot = slot;
  // Cross-session prefix sharing: if a registered prompt prefix matches,
  // the fresh cache maps its read-only pages and prefill resumes past them.
  // Exact-token match against KV rows produced by this same engine
  // configuration, and chunked prefill is bit-identical at any boundary —
  // so adoption changes TTFT, never a logit.
  const int adopted = kv_arena_->AdoptPrefix(slot, s.prompt_tokens);
  s.prefill_pos = adopted;
  s.remaining = max_new_tokens;
  s.sampling = sampling;
  s.sampler = std::make_unique<Sampler>(sampling);
  s.logits.resize(spec_->config().vocab_size);
  const SessionId sid = s.sid;
  sessions_.emplace(sid, std::move(s));
  return sid;
}

Result<bool> LlmTa::PrefillSessionChunk(SessionId sid) {
  Session* s = FindSession(sid);
  if (s == nullptr) {
    return Status(ErrorCode::kFailedPrecondition, "no active session");
  }
  if (s->prefilled) {
    return true;
  }
  KvCache* kv = kv_arena_->cache(s->slot);
  const int total = static_cast<int>(s->prompt_tokens.size());
  const int quantum = std::max(1, engine_options_.prefill_batch);
  const int m = std::min(quantum, total - s->prefill_pos);
  const bool last = s->prefill_pos + m == total;
  // Wrapped in KV recovery: a tampered/dropped REE spill blob surfaces as
  // kDataCorruption when the chunk pins the cache; the lost pages are then
  // re-prefilled from token history and the chunk reruns.
  TZLLM_RETURN_IF_ERROR(RetryWithKvRecovery({s}, [&]() {
    return executor_->PrefillChunk(
        s->prompt_tokens.data() + s->prefill_pos, m, kv,
        last ? s->logits.data() : nullptr);
  }));
  s->prefill_pos += m;
  if (last) {
    s->prefilled = true;
    s->next_token = s->sampler->Sample(s->logits);
    // The fully-prefilled prompt becomes a shareable prefix: later sessions
    // with the same leading tokens map these pages read-only (our own next
    // append copies-on-write off the shared tail page). No-op when paging
    // or sharing is disabled.
    TZLLM_RETURN_IF_ERROR(
        kv_arena_->RegisterPrefix(s->slot, s->prompt_tokens));
  }
  return s->prefilled;
}

Result<SessionId> LlmTa::BeginSession(const std::string& prompt,
                                      int max_new_tokens,
                                      const Sampler::Options& sampling) {
  TZLLM_ASSIGN_OR_RETURN(sid, AdmitSession(prompt, max_new_tokens, sampling));
  // Run the whole prompt through in one go — the non-serving behavior. A
  // failed prefill abandons the admission so the slot is not leaked.
  for (;;) {
    auto finished = PrefillSessionChunk(sid);
    if (!finished.ok()) {
      CloseSession(FindSession(sid));
      return finished.status();
    }
    if (*finished) {
      return sid;
    }
  }
}

Status LlmTa::DecodeSessions(const std::vector<SessionId>& sids) {
  if (!loaded_) {
    return FailedPrecondition("no model loaded");
  }
  if (sids.empty()) {
    return OkStatus();
  }
  // (spilled pages, session) per listed session, for the order below.
  KvPagePool* pool = kv_arena_->pool();
  std::vector<std::pair<int, Session*>> order;
  order.reserve(sids.size());
  std::set<SessionId> seen;
  for (SessionId sid : sids) {
    Session* s = FindSession(sid);
    if (s == nullptr) {
      return FailedPrecondition("decode batch names an inactive session");
    }
    if (!s->prefilled) {
      return FailedPrecondition(
          "decode batch names a session still in prefill");
    }
    if (SessionStopped(*s)) {
      return FailedPrecondition("decode batch names a finished session");
    }
    if (!seen.insert(sid).second) {
      return InvalidArgument("decode batch lists a session twice");
    }
    int spilled = 0;
    for (KvPageId id : kv_arena_->cache(s->slot)->pages()) {
      spilled += pool->resident(id) ? 0 : 1;
    }
    order.emplace_back(spilled, s);
  }
  // Resident sessions first (stable, so ties keep the caller's order): the
  // group whose pages survived the last step runs before anything is
  // evicted, instead of two groups evicting each other every step. Flat
  // caches have no pages, so this is a no-op there.
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  // A step pins every page of every session in its group before any
  // append, so a group is the longest run (at most `limit` sessions) whose
  // distinct pages plus per-session StepFramesNeeded fit the pool's frames.
  // A shared prefix counts once. The first session always runs (the
  // LoadModel floor keeps one full context pinnable). Flat: no frame cap.
  const uint64_t frames =
      pool != nullptr ? static_cast<uint64_t>(pool->frames()) : UINT64_MAX;
  std::unordered_set<KvPageId> group_pages;
  auto pack = [&](size_t off, int limit, uint64_t* need) {
    group_pages.clear();
    *need = 0;
    int n = 0;
    for (; n < limit && off + n < order.size(); ++n) {
      const KvCache* kv = kv_arena_->cache(order[off + n].second->slot);
      uint64_t more = static_cast<uint64_t>(kv->StepFramesNeeded());
      for (KvPageId id : kv->pages()) {
        more += group_pages.count(id) == 0 ? 1 : 0;
      }
      if (n > 0 && *need + more > frames) {
        break;
      }
      *need += more;
      group_pages.insert(kv->pages().begin(), kv->pages().end());
    }
    return n;
  };
  const int max_group = engine_options_.decode_batch > 0
                            ? engine_options_.decode_batch
                            : static_cast<int>(order.size());
  std::vector<TransformerExecutor::DecodeEntry> entries;
  std::vector<Session*> group;
  size_t off = 0;
  while (off < order.size()) {
    uint64_t need = 0;
    int n = pack(off, max_group, &need);
    group.clear();
    for (int i = 0; i < n; ++i) {
      group.push_back(order[off + i].second);
    }
    // Only the step itself is retried on a lost spill blob (corruption
    // surfaces at pin time, before the step appends anything). Recovery
    // can swap a lost shared page for private copies, growing the group's
    // distinct pages, so every attempt re-packs — never past the first n.
    TZLLM_RETURN_IF_ERROR(RetryWithKvRecovery(group, [&]() {
      n = pack(off, n, &need);
      entries.resize(n);
      for (int i = 0; i < n; ++i) {
        entries[i].token = group[i]->next_token;
        entries[i].kv = kv_arena_->cache(group[i]->slot);
        entries[i].logits = group[i]->logits.data();
      }
      if (pool != nullptr) {
        pool->ResetPinnedPeak();
      }
      return executor_->DecodeStepBatch(entries.data(), n);
    }));
    // The packer's prediction is an upper bound on what the step pinned;
    // an undercount would surface as "every resident page is pinned".
    assert(pool == nullptr ||
           static_cast<uint64_t>(pool->pinned_peak()) <= need);
    // Same per-token order as the solo loop: emit the decoded token, then
    // sample its successor.
    for (int i = 0; i < n; ++i) {
      Session* s = group[i];
      s->output_tokens.push_back(s->next_token);
      s->next_token = s->sampler->Sample(s->logits);
      --s->remaining;
    }
    ++decode_stats_.forwards;
    decode_stats_.rows += static_cast<uint64_t>(n);
    off += static_cast<size_t>(n);
  }
  return OkStatus();
}

Result<int> LlmTa::StepSession(SessionId sid, int max_steps) {
  Session* s = FindSession(sid);
  if (s == nullptr) {
    return Status(ErrorCode::kFailedPrecondition, "no active session");
  }
  // Finish any outstanding prefill first (a session restored mid-prefill
  // resumes here).
  while (!s->prefilled) {
    auto finished = PrefillSessionChunk(sid);
    if (!finished.ok()) {
      return finished.status();
    }
  }
  // Token-for-token the classic Generate loop: check stop conditions before
  // emitting, decode the emitted token, then sample its successor.
  KvCache* kv = kv_arena_->cache(s->slot);
  int emitted = 0;
  while (emitted < max_steps && s->remaining > 0) {
    if (s->next_token == Tokenizer::kEos ||
        kv->seq_len() >= spec_->config().max_ctx) {
      s->done = true;
      break;
    }
    s->output_tokens.push_back(s->next_token);
    TZLLM_RETURN_IF_ERROR(RetryWithKvRecovery({s}, [&]() {
      return executor_->DecodeStepInto(s->next_token, kv, s->logits.data());
    }));
    s->next_token = s->sampler->Sample(s->logits);
    --s->remaining;
    ++emitted;
  }
  return emitted;
}

Result<GenerationResult> LlmTa::FinishSession(SessionId sid) {
  Session* s = FindSession(sid);
  if (s == nullptr) {
    return Status(ErrorCode::kFailedPrecondition, "no active session");
  }
  GenerationResult result;
  result.prompt_tokens = std::move(s->prompt_tokens);
  result.output_tokens = std::move(s->output_tokens);
  result.text = tokenizer_->Decode(result.output_tokens);
  CloseSession(s);
  return result;
}

Status LlmTa::AbandonSession(SessionId sid) {
  Session* s = FindSession(sid);
  if (s == nullptr) {
    return FailedPrecondition("no active session");
  }
  CloseSession(s);
  return OkStatus();
}

Result<GenerationResult> LlmTa::Generate(const std::string& prompt,
                                         int max_new_tokens,
                                         const Sampler::Options& sampling) {
  TZLLM_ASSIGN_OR_RETURN(sid,
                         BeginSession(prompt, max_new_tokens, sampling));
  while (!session_done(sid)) {
    auto stepped = StepSession(sid, FindSession(sid)->remaining);
    if (!stepped.ok()) {
      // Don't leave a half-dead session latched (or its KV slot leaked).
      TZLLM_RETURN_IF_ERROR(AbandonSession(sid));
      return stepped.status();
    }
    if (*stepped == 0) {
      break;
    }
  }
  return FinishSession(sid);
}

// --- Session queries. ------------------------------------------------------

bool LlmTa::session_active(SessionId sid) const {
  return FindSession(sid) != nullptr;
}

bool LlmTa::session_prefilled(SessionId sid) const {
  const Session* s = FindSession(sid);
  return s != nullptr && s->prefilled;
}

bool LlmTa::session_done(SessionId sid) const {
  const Session* s = FindSession(sid);
  return s == nullptr || SessionStopped(*s);
}

const std::vector<TokenId>& LlmTa::session_tokens(SessionId sid) const {
  const Session* s = FindSession(sid);
  return s != nullptr ? s->output_tokens : no_tokens_;
}

int LlmTa::free_session_slots() const {
  return kv_arena_ != nullptr ? kv_arena_->free_slots() : 0;
}

bool LlmTa::session_done() const {
  // The pre-redesign semantics: with no session open there is nothing left
  // to step (the default-constructed session's budget was 0).
  return sessions_.size() == 1
             ? SessionStopped(sessions_.begin()->second)
             : true;
}

const std::vector<TokenId>& LlmTa::session_tokens() const {
  return sessions_.size() == 1 ? sessions_.begin()->second.output_tokens
                               : no_tokens_;
}

// --- Session checkpoint / restore. -----------------------------------------

namespace {

// Session-blob primitives (little-endian, explicit widths — the same idiom
// as the TZGUF metadata and KvCache snapshots). TZSESS02 extends the
// original TZSESS01 layout with the session id (right after the magic) and
// the prefill progress (after `done`), so a session preempted mid-prefill
// under the serving scheduler round-trips too.
constexpr char kSessionMagic[8] = {'T', 'Z', 'S', 'E', 'S', 'S', '0', '2'};

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

bool GetU32(const std::vector<uint8_t>& in, size_t* off, uint32_t* v) {
  if (*off + 4 > in.size()) {
    return false;
  }
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(in[*off + i]) << (8 * i);
  }
  *off += 4;
  return true;
}

bool GetU64(const std::vector<uint8_t>& in, size_t* off, uint64_t* v) {
  if (*off + 8 > in.size()) {
    return false;
  }
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(in[*off + i]) << (8 * i);
  }
  *off += 8;
  return true;
}

// Session checkpoints live beside the framework checkpoint but in their own
// flash files: the handle API seals to "<model_id>.sess.<sid>.ckpt" (one
// file per session, so N evicted sessions coexist); the legacy no-argument
// shims keep the original un-suffixed "<model_id>.sess.ckpt".
std::string SessionCheckpointId(const std::string& model_id) {
  return model_id + ".sess";
}

std::string SessionCheckpointId(const std::string& model_id, SessionId sid) {
  return model_id + ".sess." + std::to_string(sid);
}

// The serving runtime's fleet manifest lives beside the session blobs under
// one flash file per model ("<model_id>.serve.ckpt").
std::string ServeManifestId(const std::string& model_id) {
  return model_id + ".serve";
}

}  // namespace

Status LlmTa::BuildSessionBlob(Session* s, std::vector<uint8_t>* blob) {
  // Range-assign (not insert-at-end on the empty vector): gcc 12 -O2
  // misanalyzes the char* range insert as a 1-byte-destination memcpy
  // overflow.
  blob->assign(kSessionMagic, kSessionMagic + sizeof(kSessionMagic));
  PutU64(blob, s->sid);
  PutU32(blob, static_cast<uint32_t>(s->prompt_tokens.size()));
  for (TokenId t : s->prompt_tokens) {
    PutU32(blob, static_cast<uint32_t>(t));
  }
  PutU32(blob, static_cast<uint32_t>(s->output_tokens.size()));
  for (TokenId t : s->output_tokens) {
    PutU32(blob, static_cast<uint32_t>(t));
  }
  PutU32(blob, static_cast<uint32_t>(s->next_token));
  PutU32(blob, static_cast<uint32_t>(s->remaining));
  PutU32(blob, s->done ? 1 : 0);
  PutU32(blob, s->prefilled ? 1 : 0);
  PutU32(blob, static_cast<uint32_t>(s->prefill_pos));
  // Sampler options + RNG words: a restored non-greedy sampler must draw the
  // exact remaining sequence.
  PutU32(blob, s->sampling.greedy ? 1 : 0);
  PutU32(blob, static_cast<uint32_t>(s->sampling.top_k));
  uint64_t temp_bits = 0;
  static_assert(sizeof(temp_bits) == sizeof(s->sampling.temperature));
  std::memcpy(&temp_bits, &s->sampling.temperature, sizeof(temp_bits));
  PutU64(blob, temp_bits);
  PutU64(blob, s->sampling.seed);
  uint64_t rng_state[4];
  s->sampler->SaveRngState(rng_state);
  for (uint64_t word : rng_state) {
    PutU64(blob, word);
  }
  // Paged caches restore any spilled page first; a lost page (tampered or
  // dropped REE blob) is recomputed from token history and the
  // serialization retried, so the sealed KV is never poisoned.
  const size_t header_end = blob->size();
  return RetryWithKvRecovery({s}, [&]() {
    blob->resize(header_end);  // Discard any partial KV from a failed try.
    return kv_arena_->cache(s->slot)->SerializeState(blob);
  });
}

Result<uint64_t> LlmTa::SaveSessionBlob(const std::string& ckpt_id,
                                        const std::vector<uint8_t>& blob) {
  CheckpointService checkpoints(&platform_->flash());
  TZLLM_ASSIGN_OR_RETURN(saved, checkpoints.Save(ckpt_id, model_key_, blob));
  ++ckpt_saves_;
  // ckpt_drop fault: the REE discards the blob it just promised to keep —
  // the restore path must then surface kNotFound, and the serving runtime
  // restarts the session from its prompt.
  if (serve_fault_plan_.active() &&
      serve_fault_plan_.fault == ServeFaultClass::kCkptDrop &&
      serve_fault_plan_.Hits(ckpt_saves_)) {
    TZLLM_RETURN_IF_ERROR(checkpoints.Delete(ckpt_id));
    ++ckpt_drops_injected_;
    TZLLM_LOG_WARN("llm-ta", "ckpt_drop fault: dropped %s after sealing",
                   ckpt_id.c_str());
  }
  return saved;
}

Status LlmTa::SealSession(Session* s, const std::string& ckpt_id) {
  std::vector<uint8_t> blob;
  TZLLM_RETURN_IF_ERROR(BuildSessionBlob(s, &blob));
  TZLLM_ASSIGN_OR_RETURN(saved, SaveSessionBlob(ckpt_id, blob));
  const SessionId sid = s->sid;
  // Eviction: the sealed blob is now the only copy of the session — scrub
  // the KV plaintext, free the slot and drop the live state.
  CloseSession(s);
  TZLLM_LOG_INFO("llm-ta", "session %llu checkpoint sealed (%llu bytes)",
                 static_cast<unsigned long long>(sid),
                 static_cast<unsigned long long>(saved));
  return OkStatus();
}

Status LlmTa::SnapshotSession(SessionId sid) {
  Session* s = FindSession(sid);
  if (s == nullptr) {
    return FailedPrecondition("no active session to snapshot");
  }
  std::vector<uint8_t> blob;
  TZLLM_RETURN_IF_ERROR(BuildSessionBlob(s, &blob));
  TZLLM_ASSIGN_OR_RETURN(
      saved, SaveSessionBlob(SessionCheckpointId(model_id_, sid), blob));
  (void)saved;  // Size is interesting only for the eviction log line.
  return OkStatus();
}

Status LlmTa::CheckpointSession(SessionId sid) {
  Session* s = FindSession(sid);
  if (s == nullptr) {
    return FailedPrecondition("no active session to checkpoint");
  }
  return SealSession(s, SessionCheckpointId(model_id_, sid));
}

Status LlmTa::CheckpointSession() {
  auto sole = SoleSession();
  if (!sole.ok()) {
    return sole.status();
  }
  return SealSession(*sole, SessionCheckpointId(model_id_));
}

Result<SessionId> LlmTa::RestoreSessionBlob(const std::string& ckpt_id) {
  CheckpointService checkpoints(&platform_->flash());
  auto blob = checkpoints.Restore(ckpt_id, model_key_);
  if (!blob.ok()) {
    return blob.status();
  }
  size_t off = 0;
  if (blob->size() < sizeof(kSessionMagic) ||
      std::memcmp(blob->data(), kSessionMagic, sizeof(kSessionMagic)) != 0) {
    return Status(ErrorCode::kDataCorruption, "session checkpoint bad magic");
  }
  off = sizeof(kSessionMagic);
  auto read_tokens = [&](std::vector<TokenId>* out) -> bool {
    uint32_t n = 0;
    if (!GetU32(*blob, &off, &n) || n > (1u << 24)) {
      return false;
    }
    out->resize(n);
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t t = 0;
      if (!GetU32(*blob, &off, &t)) {
        return false;
      }
      (*out)[i] = static_cast<TokenId>(t);
    }
    return true;
  };
  Session s;
  uint64_t sid = 0;
  uint32_t next_token = 0, remaining = 0, done = 0, prefilled = 0,
           prefill_pos = 0, greedy = 0, top_k = 0;
  uint64_t temp_bits = 0, seed = 0, rng_state[4] = {};
  bool ok = GetU64(*blob, &off, &sid) && read_tokens(&s.prompt_tokens) &&
            read_tokens(&s.output_tokens) &&
            GetU32(*blob, &off, &next_token) &&
            GetU32(*blob, &off, &remaining) && GetU32(*blob, &off, &done) &&
            GetU32(*blob, &off, &prefilled) &&
            GetU32(*blob, &off, &prefill_pos) &&
            GetU32(*blob, &off, &greedy) && GetU32(*blob, &off, &top_k) &&
            GetU64(*blob, &off, &temp_bits) && GetU64(*blob, &off, &seed);
  for (uint64_t& word : rng_state) {
    ok = ok && GetU64(*blob, &off, &word);
  }
  if (!ok) {
    return Status(ErrorCode::kDataCorruption, "session checkpoint truncated");
  }
  if (prefill_pos > s.prompt_tokens.size() ||
      (prefilled != 0 && prefill_pos != s.prompt_tokens.size())) {
    return Status(ErrorCode::kDataCorruption,
                  "session checkpoint prefill marks are inconsistent");
  }
  if (sid == 0 || FindSession(sid) != nullptr) {
    return FailedPrecondition(
        "a session with this id is already active (Finish it first)");
  }
  s.sid = sid;
  s.next_token = static_cast<TokenId>(next_token);
  s.remaining = static_cast<int>(remaining);
  s.done = done != 0;
  s.prefilled = prefilled != 0;
  s.prefill_pos = static_cast<int>(prefill_pos);
  s.sampling.greedy = greedy != 0;
  s.sampling.top_k = static_cast<int>(top_k);
  std::memcpy(&s.sampling.temperature, &temp_bits,
              sizeof(s.sampling.temperature));
  s.sampling.seed = seed;
  s.sampler = std::make_unique<Sampler>(s.sampling);
  s.sampler->LoadRngState(rng_state);
  s.logits.resize(spec_->config().vocab_size);
  TZLLM_ASSIGN_OR_RETURN(slot, kv_arena_->Acquire());
  s.slot = slot;
  Status restored = kv_arena_->cache(slot)->RestoreState(
      blob->data() + off, blob->size() - off);
  if (!restored.ok()) {
    const Status released = kv_arena_->Release(slot);
    if (!released.ok()) {
      TZLLM_LOG_ERROR("llm-ta", "slot release after failed restore: %s",
                      released.ToString().c_str());
    }
    return restored;
  }
  next_sid_ = std::max(next_sid_, sid + 1);
  sessions_.emplace(sid, std::move(s));
  return sid;
}

Result<SessionId> LlmTa::RestoreSession(SessionId sid) {
  if (!loaded_) {
    return Status(ErrorCode::kFailedPrecondition, "no model loaded");
  }
  TZLLM_ASSIGN_OR_RETURN(
      restored, RestoreSessionBlob(SessionCheckpointId(model_id_, sid)));
  if (restored != sid) {
    // The blob under this sid's file names another session: flash-level
    // tampering or file mixup either way.
    TZLLM_RETURN_IF_ERROR(AbandonSession(restored));
    return Status(ErrorCode::kDataCorruption,
                  "session checkpoint names a different session");
  }
  return sid;
}

Status LlmTa::RestoreSession() {
  if (!loaded_) {
    return FailedPrecondition("no model loaded");
  }
  if (!sessions_.empty()) {
    return FailedPrecondition(
        "a generation session is already active (Finish it first)");
  }
  auto sid = RestoreSessionBlob(SessionCheckpointId(model_id_));
  if (!sid.ok()) {
    return sid.status();
  }
  return OkStatus();
}

bool LlmTa::HasSessionCheckpoint(SessionId sid) const {
  CheckpointService checkpoints(&platform_->flash());
  return !model_id_.empty() &&
         checkpoints.Exists(SessionCheckpointId(model_id_, sid));
}

bool LlmTa::HasSessionCheckpoint() const {
  CheckpointService checkpoints(&platform_->flash());
  return !model_id_.empty() &&
         checkpoints.Exists(SessionCheckpointId(model_id_));
}

// --- Serving-fleet manifest (whole-TA crash recovery). ----------------------
// The TA stores/loads sealed bytes only; the manifest format is
// ServingRuntime's (src/serve/serving.cc). Sealed under the model key like
// every other checkpoint, so a tampered manifest fails restore instead of
// resurrecting a forged fleet.

Result<uint64_t> LlmTa::SaveServeManifest(
    const std::vector<uint8_t>& manifest) {
  if (!loaded_) {
    return Status(ErrorCode::kFailedPrecondition, "no model loaded");
  }
  CheckpointService checkpoints(&platform_->flash());
  return checkpoints.Save(ServeManifestId(model_id_), model_key_, manifest);
}

Result<std::vector<uint8_t>> LlmTa::LoadServeManifest() {
  if (!loaded_) {
    return Status(ErrorCode::kFailedPrecondition, "no model loaded");
  }
  CheckpointService checkpoints(&platform_->flash());
  return checkpoints.Restore(ServeManifestId(model_id_), model_key_);
}

bool LlmTa::HasServeManifest() const {
  CheckpointService checkpoints(&platform_->flash());
  return !model_id_.empty() &&
         checkpoints.Exists(ServeManifestId(model_id_));
}

Status LlmTa::DropServeManifest() {
  if (!loaded_) {
    return FailedPrecondition("no model loaded");
  }
  CheckpointService checkpoints(&platform_->flash());
  return checkpoints.Delete(ServeManifestId(model_id_));
}

// --- Legacy single-session shims. ------------------------------------------

Result<int> LlmTa::StepSession(int max_steps) {
  auto sole = SoleSession();
  if (!sole.ok()) {
    return sole.status();
  }
  return StepSession((*sole)->sid, max_steps);
}

Result<GenerationResult> LlmTa::FinishSession() {
  auto sole = SoleSession();
  if (!sole.ok()) {
    return sole.status();
  }
  return FinishSession((*sole)->sid);
}

Status LlmTa::Unload() {
  if (!loaded_ && spec_ == nullptr) {
    return OkStatus();
  }
  const SecureRegionStats params =
      tee_os_->RegionStats(SecureRegionId::kParams);
  if (params.protected_bytes > 0) {
    auto scrub =
        tee_os_->Shrink(ta_, SecureRegionId::kParams, params.protected_bytes);
    if (!scrub.ok()) {
      return scrub.status();
    }
  }
  const SecureRegionStats scratch =
      tee_os_->RegionStats(SecureRegionId::kScratch);
  if (scratch.protected_bytes > 0) {
    auto scrub = tee_os_->Shrink(ta_, SecureRegionId::kScratch,
                                 scratch.protected_bytes);
    if (!scrub.ok()) {
      return scrub.status();
    }
  }
  loaded_ = false;
  sessions_.clear();
  executor_.reset();  // Before npu_backend_: the executor points into it.
  npu_backend_.reset();
  kv_arena_.reset();
  weights_.reset();
  npu_ctx_bytes_ = 0;
  return OkStatus();
}

}  // namespace tzllm
