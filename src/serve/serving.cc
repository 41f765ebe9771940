#include "src/serve/serving.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "src/common/log.h"

namespace tzllm {

namespace {

// Little-endian field helpers for the fleet manifest (same idiom as the
// session blobs in llm_ta.cc).
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

// Fleet-manifest magic. V1: u64 next_request, u32 count, then per request
// id/sid/state/priority-bits/budget/deadline/sampling/prompt.
constexpr char kManifestMagic[8] = {'T', 'Z', 'S', 'R', 'V', 'M', 'F', '1'};

}  // namespace

ServingRuntime::ServingRuntime(LlmTa* ta, Simulator* sim)
    : ta_(ta),
      pool_(sim, "serve-admit",
            std::max(1, ta->engine_options().max_sessions)),
      t0_(std::chrono::steady_clock::now()) {}

double ServingRuntime::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
      .count();
}

ServingRuntime::Request* ServingRuntime::Find(uint64_t id) {
  auto it = requests_.find(id);
  return it == requests_.end() ? nullptr : &it->second;
}

void ServingRuntime::SubmitJob(const Request& r) {
  const uint64_t id = r.id;
  ServerPool::Job job;
  job.priority = r.priority;
  job.label = "serve-req";
  job.on_complete = [this, id] { popped_request_ = id; };
  pool_.SubmitHeld(std::move(job));
}

Result<uint64_t> ServingRuntime::Enqueue(ServeRequest request) {
  const int queue_max = ta_->engine_options().serve_queue_max;
  if (queue_max > 0) {
    int waiting = 0;
    for (const auto& [id, r] : requests_) {
      waiting += (r.state == State::kQueued || r.state == State::kEvicted);
    }
    if (waiting >= queue_max) {
      ++stats_.requests_rejected;
      return Unavailable(
          "admission queue full (EngineOptions::serve_queue_max): retry "
          "later");
    }
  }
  const uint64_t id = next_request_++;
  Request r;
  r.id = id;
  r.prompt = std::move(request.prompt);
  r.max_new_tokens = request.max_new_tokens;
  r.priority = request.priority;
  r.sampling = request.sampling;
  r.submit_s = Now();
  r.submit_tick = stats_.ticks;
  r.deadline_ticks = request.deadline_ticks;
  SubmitJob(r);
  requests_.emplace(id, std::move(r));
  return id;
}

Status ServingRuntime::AdmitTop() {
  ServerPool::Job job;
  if (!pool_.TakeTop(&job)) {
    return Internal("admission queue empty at AdmitTop");
  }
  popped_request_ = 0;
  if (job.on_complete) {
    job.on_complete();  // Writes the request id into popped_request_.
  }
  Request* r = Find(popped_request_);
  if (r == nullptr) {
    return Internal("admission queue handed back an unknown request");
  }
  if (r->state == State::kDone) {
    // A request shed past its deadline leaves its held job behind; consume
    // it without admitting anything.
    return OkStatus();
  }
  if (r->state == State::kQueued) {
    TZLLM_ASSIGN_OR_RETURN(
        sid, ta_->AdmitSession(r->prompt, r->max_new_tokens, r->sampling));
    r->sid = sid;
  } else if (r->state == State::kEvicted) {
    // Bit-identical resumption: the restored session decodes exactly the
    // tokens the uninterrupted run would have.
    auto restored = ta_->RestoreSession(r->sid);
    if (!restored.ok()) {
      const ErrorCode code = restored.status().code();
      if (code != ErrorCode::kDataCorruption && code != ErrorCode::kNotFound) {
        return restored.status();
      }
      // The sealed blob is gone or tampered (ckpt_drop / hostile flash):
      // restart from the prompt. Generation is deterministic (same tokens,
      // same sampler seed and RNG start), so the final token sequence is
      // identical to the uninterrupted run — only latency is lost.
      TZLLM_LOG_WARN(
          "serve", "request %llu checkpoint unusable (%s); restarting",
          static_cast<unsigned long long>(r->id),
          restored.status().ToString().c_str());
      TZLLM_ASSIGN_OR_RETURN(
          sid, ta_->AdmitSession(r->prompt, r->max_new_tokens, r->sampling));
      r->sid = sid;
      r->token_s.clear();
      r->has_first_token = false;
      r->first_token_s = 0.0;
      r->from_manifest = false;
      ++stats_.sessions_restarted;
      r->state = State::kActive;
      return OkStatus();
    }
    if (r->from_manifest) {
      // First successful post-crash restore of a manifested session.
      r->from_manifest = false;
      ++stats_.sessions_recovered;
    }
  } else {
    return Internal("admission queue held a request in a non-waiting state");
  }
  r->state = State::kActive;
  return OkStatus();
}

Status ServingRuntime::Evict(Request* r) {
  TZLLM_RETURN_IF_ERROR(ta_->CheckpointSession(r->sid));
  r->state = State::kEvicted;
  ++r->preemptions;
  ++stats_.preemptions;
  SubmitJob(*r);
  return OkStatus();
}

ServingRuntime::Request* ServingRuntime::LeastUrgentRunning() {
  Request* victim = nullptr;
  for (auto& [id, r] : requests_) {
    if (r.state != State::kActive || !ta_->session_prefilled(r.sid) ||
        ta_->session_done(r.sid)) {
      continue;
    }
    // >= : among equal priorities the youngest (largest id) session yields,
    // so long-running work is preempted last.
    if (victim == nullptr || r.priority >= victim->priority) {
      victim = &r;
    }
  }
  return victim;
}

ServingRuntime::Request* ServingRuntime::NextPrefill() {
  Request* next = nullptr;
  for (auto& [id, r] : requests_) {
    if (r.state != State::kActive || ta_->session_prefilled(r.sid)) {
      continue;
    }
    // < : most urgent first; FIFO (smallest id) among equals.
    if (next == nullptr || r.priority < next->priority) {
      next = &r;
    }
  }
  return next;
}

Result<bool> ServingRuntime::Tick() {
  ++stats_.ticks;
  bool worked = false;

  // ta_crash fault: the whole TA dies at this tick ordinal — the caller
  // sees kAborted mid-run and must boot a fresh TA + Recover(), exactly the
  // crash the auto-checkpoint cadence exists for.
  const ServeFaultPlan& plan = ta_->serve_fault_plan();
  if (plan.active() && plan.fault == ServeFaultClass::kTaCrash &&
      plan.Hits(stats_.ticks)) {
    return Aborted("ta_crash fault: serving TA crashed at tick " +
                   std::to_string(stats_.ticks));
  }

  // Test hook: a stalled engine makes no progress this tick; only the
  // watchdog accounting below runs.
  const bool stalled = stall_inject_ > 0;
  if (stalled) {
    --stall_inject_;
  }

  // --- 0. Deadline shedding: queued requests that waited past their
  // deadline_ticks without ever being admitted complete with kUnavailable
  // (their held admission job is consumed as a no-op when it surfaces).
  // Runs before admission so an expired request cannot grab the slot a
  // within-deadline one is waiting for.
  for (auto& [id, r] : requests_) {
    if (stalled || r.state != State::kQueued || r.deadline_ticks == 0 ||
        stats_.ticks - r.submit_tick < r.deadline_ticks) {
      continue;
    }
    ServeRequestResult shed;
    shed.request_id = r.id;
    shed.priority = r.priority;
    shed.status = Unavailable(
        "request shed: queued past its deadline_ticks admission budget");
    shed.submit_s = r.submit_s;
    shed.finish_s = Now();
    results_.push_back(std::move(shed));
    r.state = State::kDone;
    ++stats_.requests_shed;
    worked = true;
  }

  // --- 1. Admission + preemption: fill free slots most-urgent-first; under
  // kPriority, a waiting request strictly more urgent than the least urgent
  // running session evicts it and takes the slot. The loop cannot ping-pong
  // within a tick: an evictee's priority is strictly greater than the
  // request that displaced it, so it never displaces anything back.
  double top = 0.0;
  while (!stalled && pool_.TopPriority(&top)) {
    if (ta_->free_session_slots() > 0) {
      TZLLM_RETURN_IF_ERROR(AdmitTop());
      worked = true;
      continue;
    }
    if (ta_->engine_options().serve_eviction != ServeEvictPolicy::kPriority) {
      break;
    }
    Request* victim = LeastUrgentRunning();
    if (victim == nullptr || !(victim->priority > top)) {
      break;
    }
    TZLLM_RETURN_IF_ERROR(Evict(victim));
    worked = true;
  }

  // --- 2. One prefill quantum for the most urgent admitted prompt.
  if (Request* pf = stalled ? nullptr : NextPrefill(); pf != nullptr) {
    TZLLM_ASSIGN_OR_RETURN(finished, ta_->PrefillSessionChunk(pf->sid));
    if (finished && !pf->has_first_token) {
      pf->first_token_s = Now();  // First generated token just sampled.
      pf->has_first_token = true;
    }
    worked = true;
  }

  // --- 3. One batched decode step across every running session.
  std::vector<SessionId> running;
  std::vector<Request*> running_reqs;
  for (auto& [id, r] : requests_) {
    if (!stalled && r.state == State::kActive &&
        ta_->session_prefilled(r.sid) && !ta_->session_done(r.sid)) {
      running.push_back(r.sid);
      running_reqs.push_back(&r);
    }
  }
  if (!running.empty()) {
    const double before = Now();
    const LlmTa::DecodeStats decode_before = ta_->decode_stats();
    TZLLM_RETURN_IF_ERROR(ta_->DecodeSessions(running));
    const double now = Now();
    stats_.decode_forwards += ta_->decode_stats().forwards -
                              decode_before.forwards;
    stats_.decode_rows += ta_->decode_stats().rows - decode_before.rows;
    for (Request* r : running_reqs) {
      r->token_s.push_back(now);
    }
    stats_.decode_tokens += running.size();
    stats_.decode_time_s += now - before;
    worked = true;
  }

  // --- 4. Retire finished sessions; their slots admit new work next tick.
  for (auto& [id, r] : requests_) {
    if (stalled || r.state != State::kActive || !ta_->session_done(r.sid)) {
      continue;
    }
    auto generation = ta_->FinishSession(r.sid);
    if (!generation.ok()) {
      return generation.status();
    }
    ServeRequestResult done;
    done.request_id = r.id;
    done.priority = r.priority;
    done.generation = std::move(*generation);
    done.submit_s = r.submit_s;
    done.first_token_s = r.first_token_s;
    done.finish_s = Now();
    done.token_s = std::move(r.token_s);
    done.preemptions = r.preemptions;
    results_.push_back(std::move(done));
    r.state = State::kDone;
    worked = true;
  }

  // --- 5. Auto-checkpoint cadence: snapshot the fleet so a whole-TA crash
  // loses at most the ticks since the last round.
  const int every = ta_->engine_options().serve_checkpoint_every_n_ticks;
  if (!stalled && every > 0 && stats_.ticks % static_cast<uint64_t>(every) ==
                                   0) {
    TZLLM_RETURN_IF_ERROR(CheckpointFleet());
  }

  SnapshotKvStats();
  const int left = pending();
  if (left > 0 && !worked) {
    const int watchdog = ta_->engine_options().serve_watchdog_ticks;
    if (watchdog <= 0) {
      // Pre-watchdog contract: a no-work tick with requests outstanding is
      // a scheduler bug, surfaced immediately.
      return Status(ErrorCode::kInternal,
                    "serving scheduler stalled with requests outstanding");
    }
    if (++stall_ticks_ >= watchdog) {
      int queued = 0, active = 0, evicted = 0;
      for (const auto& [id, r] : requests_) {
        queued += r.state == State::kQueued;
        active += r.state == State::kActive;
        evicted += r.state == State::kEvicted;
      }
      return DeadlineExceeded(
          "serving watchdog: " + std::to_string(stall_ticks_) +
          " consecutive zero-progress ticks at tick " +
          std::to_string(stats_.ticks) + " (" + std::to_string(queued) +
          " queued, " + std::to_string(active) + " active, " +
          std::to_string(evicted) + " evicted, " +
          std::to_string(ta_->free_session_slots()) + " free slots)");
    }
  } else {
    stall_ticks_ = 0;
  }
  if (left == 0 && every > 0 && ta_->HasServeManifest()) {
    // The fleet completed: a stale manifest must not resurrect finished
    // sessions on the next boot.
    TZLLM_RETURN_IF_ERROR(ta_->DropServeManifest());
  }
  return left > 0;
}

Status ServingRuntime::CheckpointFleet() {
  bool any = false;
  for (const auto& [id, r] : requests_) {
    if (r.state != State::kActive) {
      continue;
    }
    // Retirement already ran: every remaining active session is live on the
    // TA. SnapshotSession seals without evicting.
    TZLLM_RETURN_IF_ERROR(ta_->SnapshotSession(r.sid));
    any = true;
  }
  if (!any && pending() == 0) {
    return OkStatus();  // Nothing in flight — no manifest round needed.
  }
  const std::vector<uint8_t> manifest = SerializeManifest();
  auto saved = ta_->SaveServeManifest(manifest);
  if (!saved.ok()) {
    return saved.status();
  }
  ++stats_.auto_checkpoints;
  return OkStatus();
}

std::vector<uint8_t> ServingRuntime::SerializeManifest() const {
  // Range-construct off the magic (see the gcc 12 note in llm_ta.cc).
  std::vector<uint8_t> out(kManifestMagic,
                           kManifestMagic + sizeof(kManifestMagic));
  PutU64(&out, next_request_);
  uint32_t count = 0;
  for (const auto& [id, r] : requests_) {
    count += r.state != State::kDone;
  }
  PutU32(&out, count);
  for (const auto& [id, r] : requests_) {
    if (r.state == State::kDone) {
      continue;
    }
    PutU64(&out, r.id);
    PutU64(&out, r.sid);
    // kActive sessions were just snapshotted, so a recovering runtime
    // treats them exactly like evictees: restore the sealed blob.
    PutU32(&out, r.state == State::kQueued ? 0u : 1u);
    uint64_t priority_bits = 0;
    static_assert(sizeof(priority_bits) == sizeof(r.priority));
    std::memcpy(&priority_bits, &r.priority, sizeof(priority_bits));
    PutU64(&out, priority_bits);
    PutU32(&out, static_cast<uint32_t>(r.max_new_tokens));
    PutU64(&out, r.deadline_ticks);
    PutU32(&out, r.sampling.greedy ? 1 : 0);
    PutU32(&out, static_cast<uint32_t>(r.sampling.top_k));
    uint64_t temp_bits = 0;
    static_assert(sizeof(temp_bits) == sizeof(r.sampling.temperature));
    std::memcpy(&temp_bits, &r.sampling.temperature, sizeof(temp_bits));
    PutU64(&out, temp_bits);
    PutU64(&out, r.sampling.seed);
    PutU32(&out, static_cast<uint32_t>(r.prompt.size()));
    out.insert(out.end(), r.prompt.begin(), r.prompt.end());
  }
  return out;
}

Status ServingRuntime::Recover() {
  if (!requests_.empty()) {
    return FailedPrecondition(
        "Recover() requires a fresh runtime (no requests enqueued yet)");
  }
  auto manifest = ta_->LoadServeManifest();
  if (!manifest.ok()) {
    return manifest.status();
  }
  size_t off = 0;
  if (manifest->size() < sizeof(kManifestMagic) ||
      std::memcmp(manifest->data(), kManifestMagic, sizeof(kManifestMagic)) !=
          0) {
    return Status(ErrorCode::kDataCorruption, "serving manifest bad magic");
  }
  off = sizeof(kManifestMagic);
  uint64_t next_request = 0;
  uint32_t count = 0;
  if (!GetU64(*manifest, &off, &next_request) ||
      !GetU32(*manifest, &off, &count) || count > (1u << 20)) {
    return Status(ErrorCode::kDataCorruption, "serving manifest truncated");
  }
  for (uint32_t i = 0; i < count; ++i) {
    Request r;
    uint64_t sid = 0, priority_bits = 0, temp_bits = 0;
    uint32_t state = 0, max_new = 0, greedy = 0, top_k = 0, prompt_len = 0;
    const bool ok =
        GetU64(*manifest, &off, &r.id) && GetU64(*manifest, &off, &sid) &&
        GetU32(*manifest, &off, &state) &&
        GetU64(*manifest, &off, &priority_bits) &&
        GetU32(*manifest, &off, &max_new) &&
        GetU64(*manifest, &off, &r.deadline_ticks) &&
        GetU32(*manifest, &off, &greedy) && GetU32(*manifest, &off, &top_k) &&
        GetU64(*manifest, &off, &temp_bits) &&
        GetU64(*manifest, &off, &r.sampling.seed) &&
        GetU32(*manifest, &off, &prompt_len) &&
        off + prompt_len <= manifest->size();
    if (!ok || state > 1) {
      return Status(ErrorCode::kDataCorruption, "serving manifest truncated");
    }
    r.prompt.assign(reinterpret_cast<const char*>(manifest->data() + off),
                    prompt_len);
    off += prompt_len;
    r.sid = sid;
    r.max_new_tokens = static_cast<int>(max_new);
    std::memcpy(&r.priority, &priority_bits, sizeof(r.priority));
    r.sampling.greedy = greedy != 0;
    r.sampling.top_k = static_cast<int>(top_k);
    std::memcpy(&r.sampling.temperature, &temp_bits,
                sizeof(r.sampling.temperature));
    r.submit_s = Now();
    r.submit_tick = stats_.ticks;
    if (state == 1 && ta_->HasSessionCheckpoint(r.sid)) {
      // Sealed session state survives the crash: resume it bit-identically
      // on admission.
      r.state = State::kEvicted;
      r.from_manifest = true;
    } else {
      // Never admitted, or its checkpoint was lost with the crash window:
      // restart from the prompt (deterministic generation keeps the final
      // tokens identical).
      if (state == 1) {
        ++stats_.sessions_restarted;
      }
      r.state = State::kQueued;
      r.sid = 0;
    }
    SubmitJob(r);
    requests_.emplace(r.id, std::move(r));
  }
  next_request_ = std::max(next_request_, next_request);
  TZLLM_LOG_INFO("serve", "recovered %u manifested requests",
                 static_cast<unsigned>(count));
  return OkStatus();
}

void ServingRuntime::SnapshotKvStats() {
  const LlmTa::KvRecoveryStats& recovery = ta_->kv_recovery_stats();
  stats_.pages_recomputed = recovery.pages_recomputed;
  stats_.kv_recoveries = recovery.recoveries;
  stats_.recompute_ms = recovery.recompute_ms;
  const KvArena* arena = ta_->kv_arena();
  if (arena == nullptr || !arena->paged()) {
    return;
  }
  const KvPageStats& pages = arena->pool()->stats();
  stats_.page_spills = pages.spills;
  stats_.page_restores = pages.restores;
  stats_.cow_copies = pages.cow_copies;
  stats_.pages_lost = pages.pages_lost;
  const KvArena::PrefixStats& prefix = arena->prefix_stats();
  stats_.prefix_lookups = prefix.lookups;
  stats_.prefix_hits = prefix.hits;
}

int ServingRuntime::pending() const {
  int n = 0;
  for (const auto& [id, r] : requests_) {
    n += r.state != State::kDone ? 1 : 0;
  }
  return n;
}

Status ServingRuntime::RunToCompletion() {
  for (;;) {
    TZLLM_ASSIGN_OR_RETURN(more, Tick());
    if (!more) {
      return OkStatus();
    }
  }
}

}  // namespace tzllm
