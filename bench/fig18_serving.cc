// Figure 18 (ISSUE 8): multi-session serving throughput on one TA.
//
// The serving runtime admits N concurrent sessions onto a single LlmTa and
// drives them with the continuous-batching scheduler; the enabling kernel
// win is the batched decode step — one MatMatQ8 per layer across every
// running session's current position, so the weights stream through the
// cache hierarchy once per step regardless of N, where N solo decodes
// stream them N times. This harness sweeps N over {1, 2, 4, 8} on the
// bench-large model (weights far outgrow LLC — weight reuse is the whole
// point) and reports aggregate decode throughput — decode tokens over time
// spent inside batched decode steps, the N-comparable number (prefill cost
// is a latency question and is reported as TTFT, not folded into decode
// throughput) — plus per-request TTFT and inter-token latency
// distributions. It then verifies the serving outputs are BIT-IDENTICAL
// per prompt to solo generation, and exercises a checkpoint-eviction
// scenario under slot pressure.
//
// The chaos section (ISSUE 10) reruns the 16-session over-subscription
// traffic with armed serve-fault plans — every KV page spill tampered or
// dropped, every sealed session checkpoint deleted — and a repeated
// ta_crash + ServingRuntime::Recover() cycle; every run must still finish
// all requests with bit-identical tokens. Emits BENCH_serving.json for the
// CI guards (scripts/check_bench_regression.py --serving / --chaos).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/runtime.h"
#include "src/llm/simd/kernels.h"
#include "src/serve/serving.h"

namespace tzllm {
namespace {

using WallClock = std::chrono::steady_clock;

constexpr int kDecodeBudget = 48;
const std::vector<int> kSessionCounts = {1, 2, 4, 8};

// Decode-time weight reuse only pays once the weights stream from memory
// rather than cache: solo decode re-reads every weight byte per token, so
// if the model sits in LLC the batched step saves nothing. This config
// (~350 MiB of Q8 weights) outruns even large-LLC hosts, putting solo
// decode in the streaming regime the serving batch is built to amortize.
LlmConfig BenchLargeModel() {
  LlmConfig c;
  c.name = "bench-large";
  c.n_layers = 12;
  c.d_model = 1536;
  c.n_heads = 16;
  c.n_kv_heads = 8;
  c.d_ff = 4096;
  c.vocab_size = 8192;
  c.max_ctx = 128;
  return c;
}

std::vector<std::string> ServePrompts() {
  std::vector<std::string> prompts;
  for (int i = 0; i < 8; ++i) {
    prompts.push_back("serving request " + std::to_string(i) +
                      " with its own distinct prompt text");
  }
  return prompts;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p * (values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - lo;
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

struct SweepPoint {
  int sessions = 0;
  uint64_t total_tokens = 0;
  double wall_s = 0.0;          // Enqueue-to-last-retirement wall time.
  double decode_span_s = 0.0;   // First token out -> last request finished.
  double decode_time_s = 0.0;   // Wall time inside batched decode steps.
  double aggregate_tok_s = 0.0;  // total_tokens / decode_time_s.
  double ttft_ms_p50 = 0.0;
  double ttft_ms_p99 = 0.0;
  double itl_ms_p50 = 0.0;
  double itl_ms_p99 = 0.0;
  uint64_t ticks = 0;
  double rows_per_forward = 0.0;  // Sessions per executor decode forward.
};

// Rows per executor decode forward: the batch the weights really streamed
// for (below the session count when the KV pool splits a step).
double RowsPerForward(const ServeStats& stats) {
  return stats.decode_forwards > 0
             ? static_cast<double>(stats.decode_rows) / stats.decode_forwards
             : 0.0;
}

// Runs `n` concurrent requests through the serving runtime on `ta` and
// folds the timing records into one sweep point. `outputs` receives each
// request's tokens in enqueue (= prompt) order.
SweepPoint RunSweepPoint(LlmTa* ta, Simulator* sim, int n,
                         const std::vector<std::string>& prompts,
                         std::vector<std::vector<TokenId>>* outputs) {
  ServingRuntime serve(ta, sim);
  std::vector<uint64_t> ids;
  for (int i = 0; i < n; ++i) {
    ServeRequest req;
    req.prompt = prompts[i];
    req.max_new_tokens = kDecodeBudget;
    auto id = serve.Enqueue(req);
    if (!id.ok()) {
      fprintf(stderr, "enqueue failed: %s\n", id.status().ToString().c_str());
      abort();
    }
    ids.push_back(*id);
  }
  const auto start = WallClock::now();
  Status done = serve.RunToCompletion();
  if (!done.ok()) {
    fprintf(stderr, "serving run (n=%d) failed: %s\n", n,
            done.ToString().c_str());
    abort();
  }
  SweepPoint out;
  out.sessions = n;
  out.wall_s = std::chrono::duration<double>(WallClock::now() - start).count();
  out.ticks = serve.stats().ticks;
  out.rows_per_forward = RowsPerForward(serve.stats());

  std::vector<double> ttft_ms;
  std::vector<double> itl_ms;
  double first_token = 1e30;
  double last_finish = 0.0;
  outputs->assign(n, {});
  for (const ServeRequestResult& r : serve.results()) {
    const size_t idx = r.request_id - ids.front();
    (*outputs)[idx] = r.generation.output_tokens;
    out.total_tokens += r.generation.output_tokens.size();
    ttft_ms.push_back((r.first_token_s - r.submit_s) * 1e3);
    for (size_t t = 1; t < r.token_s.size(); ++t) {
      itl_ms.push_back((r.token_s[t] - r.token_s[t - 1]) * 1e3);
    }
    first_token = std::min(first_token, r.first_token_s);
    last_finish = std::max(last_finish, r.finish_s);
  }
  out.decode_span_s = std::max(1e-9, last_finish - first_token);
  // Aggregate throughput over decode time only: prefill interleaves with
  // decode during the admission ramp (and its cost already shows up as
  // TTFT), so folding it into a "decode tok/s" number would make the
  // metric depend on prompt length rather than on what batching changes.
  out.decode_time_s = std::max(1e-9, serve.stats().decode_time_s);
  out.aggregate_tok_s = out.total_tokens / out.decode_time_s;
  out.ttft_ms_p50 = Percentile(ttft_ms, 0.50);
  out.ttft_ms_p99 = Percentile(ttft_ms, 0.99);
  out.itl_ms_p50 = Percentile(itl_ms, 0.50);
  out.itl_ms_p99 = Percentile(itl_ms, 0.99);
  return out;
}

// Slot-pressure scenario on the small model: two relaxed requests occupy
// both slots, an urgent one arrives, the scheduler checkpoint-evicts a
// victim and later restores it. Reports preemption count and whether every
// request's tokens match its solo run.
struct PreemptionResult {
  int preemptions = 0;
  bool tokens_identical = false;
};

PreemptionResult RunPreemptionScenario() {
  RuntimeConfig config;
  config.model = TestSmallModel();
  config.system = SystemKind::kTzLlm;
  config.materialize_model = true;
  config.engine.prefill_batch = 8;
  config.engine.max_sessions = 2;
  config.engine.serve_eviction = ServeEvictPolicy::kPriority;
  SocPlatform plat;
  SystemRuntime runtime(&plat, config);
  if (!runtime.Setup().ok()) {
    fprintf(stderr, "preemption scenario setup failed\n");
    abort();
  }
  auto ta = runtime.CreateFunctionalTa();
  if (!ta.ok() || !(*ta)->LoadModel(runtime.spec().config().name).ok()) {
    fprintf(stderr, "preemption scenario load failed\n");
    abort();
  }
  const std::vector<std::string> prompts = {
      "relaxed background request one", "relaxed background request two",
      "urgent interactive request"};
  std::vector<std::vector<TokenId>> solo;
  for (const std::string& prompt : prompts) {
    auto ref = (*ta)->Generate(prompt, kDecodeBudget);
    if (!ref.ok()) {
      fprintf(stderr, "solo reference failed: %s\n",
              ref.status().ToString().c_str());
      abort();
    }
    solo.push_back(ref->output_tokens);
  }

  ServingRuntime serve(ta->get(), &plat.sim());
  std::vector<uint64_t> ids;
  for (int i = 0; i < 2; ++i) {
    ServeRequest req;
    req.prompt = prompts[i];
    req.max_new_tokens = kDecodeBudget;
    req.priority = 5.0;
    auto id = serve.Enqueue(req);
    if (!id.ok()) {
      fprintf(stderr, "enqueue failed: %s\n", id.status().ToString().c_str());
      abort();
    }
    ids.push_back(*id);
  }
  // Let both occupy the slots and start decoding before the urgent arrival.
  for (int i = 0; i < 4; ++i) {
    auto more = serve.Tick();
    if (!more.ok()) {
      fprintf(stderr, "tick failed: %s\n", more.status().ToString().c_str());
      abort();
    }
  }
  ServeRequest urgent;
  urgent.prompt = prompts[2];
  urgent.max_new_tokens = kDecodeBudget;
  urgent.priority = 1.0;
  auto urgent_id = serve.Enqueue(urgent);
  if (!urgent_id.ok()) {
    fprintf(stderr, "enqueue failed: %s\n",
            urgent_id.status().ToString().c_str());
    abort();
  }
  ids.push_back(*urgent_id);
  Status done = serve.RunToCompletion();
  if (!done.ok()) {
    fprintf(stderr, "preemption run failed: %s\n", done.ToString().c_str());
    abort();
  }

  PreemptionResult out;
  out.preemptions = serve.stats().preemptions;
  out.tokens_identical = true;
  for (const ServeRequestResult& r : serve.results()) {
    const size_t idx = r.request_id - ids.front();
    if (r.generation.output_tokens != solo[idx]) {
      out.tokens_identical = false;
    }
  }
  return out;
}

// --- 16-session over-subscription: page spill vs whole-session eviction. --
//
// Both runs get the SAME secure KV budget (3 flat slots' worth) and the
// same staggered arrival schedule of 16 requests, with three urgent
// latecomers. The flat baseline's only pressure valves are queueing for a
// slot and whole-session checkpoint eviction (kPriority); the paged engine
// instead admits everyone — a slot is just a page table — and spills cold
// PAGES to encrypted REE memory. Tail TTFT is the comparison: a queued
// request's TTFT includes its predecessors' entire generations, a paged
// request's only its own (interleaved) prefill.

// A long decode budget relative to prefill is the regime that separates the
// two pressure valves: a queued request's TTFT under whole-session eviction
// includes its predecessors' entire (budget-long) generations, while a paged
// request's TTFT only covers its own prefill — page churn during decode
// lands after the first token.
constexpr int kOversubSessions = 16;
constexpr int kOversubBudget = 64;
constexpr int kOversubMaxCtx = 128;
constexpr int kOversubPagePositions = 8;
constexpr int kOversubFlatSlots = 3;
constexpr int kOversubPrefillBatch = 32;

struct OversubPoint {
  double ttft_ms_p50 = 0.0;
  double ttft_ms_p99 = 0.0;
  double wall_s = 0.0;
  int preemptions = 0;
  uint64_t page_spills = 0;
  uint64_t page_restores = 0;
  double rows_per_forward = 0.0;
  bool tokens_identical = false;
  // Chaos accounting (ISSUE 10) — all zero on clean runs.
  int completed = 0;
  int failed = 0;
  uint64_t pages_lost = 0;
  uint64_t pages_recomputed = 0;
  uint64_t kv_recoveries = 0;
  double recompute_ms = 0.0;
  uint64_t sessions_restarted = 0;
};

std::vector<std::string> OversubPrompts() {
  std::vector<std::string> prompts;
  for (int i = 0; i < kOversubSessions; ++i) {
    // Distinct from the first byte: no token prefix is shared, so the
    // comparison isolates paging-vs-eviction (prefix reuse is fig14's
    // experiment, and sharing is disabled below anyway).
    prompts.push_back(std::to_string(i) + " oversubscribed request variant");
  }
  return prompts;
}

LlmConfig OversubModel() {
  LlmConfig c = TestSmallModel();
  // A short context keeps one session at a few pages, so 16 sessions
  // genuinely over-subscribe the 3-slot budget.
  c.max_ctx = kOversubMaxCtx;
  return c;
}

OversubPoint RunOversubPoint(const RuntimeConfig& config,
                             const std::vector<std::vector<TokenId>>& solo) {
  SocPlatform plat;
  SystemRuntime runtime(&plat, config);
  if (!runtime.Setup().ok()) {
    fprintf(stderr, "oversubscription setup failed\n");
    abort();
  }
  auto ta = runtime.CreateFunctionalTa();
  if (!ta.ok() || !(*ta)->LoadModel(runtime.spec().config().name).ok()) {
    fprintf(stderr, "oversubscription load failed\n");
    abort();
  }

  const std::vector<std::string> prompts = OversubPrompts();
  ServingRuntime serve(ta->get(), &plat.sim());
  const auto start = WallClock::now();
  std::vector<uint64_t> ids;
  for (int i = 0; i < kOversubSessions; ++i) {
    ServeRequest req;
    req.prompt = prompts[i];
    req.max_new_tokens = kOversubBudget;
    // Mostly-relaxed FIFO traffic with three urgent latecomers: the
    // latecomers force the flat baseline through checkpoint eviction, the
    // relaxed tail measures queueing.
    req.priority = i < kOversubSessions - 3 ? 50.0 + i : 1.0 + i;
    auto id = serve.Enqueue(req);
    if (!id.ok()) {
      fprintf(stderr, "oversubscription enqueue failed: %s\n",
              id.status().ToString().c_str());
      abort();
    }
    ids.push_back(*id);
    // Staggered arrivals: let the scheduler work between submissions.
    for (int t = 0; t < 2; ++t) {
      auto more = serve.Tick();
      if (!more.ok()) {
        fprintf(stderr, "oversubscription tick failed: %s\n",
                more.status().ToString().c_str());
        abort();
      }
    }
  }
  Status done = serve.RunToCompletion();
  if (!done.ok()) {
    fprintf(stderr, "oversubscription run failed: %s\n",
            done.ToString().c_str());
    abort();
  }

  OversubPoint out;
  out.wall_s = std::chrono::duration<double>(WallClock::now() - start).count();
  out.preemptions = serve.stats().preemptions;
  out.page_spills = serve.stats().page_spills;
  out.page_restores = serve.stats().page_restores;
  out.rows_per_forward = RowsPerForward(serve.stats());
  out.pages_lost = serve.stats().pages_lost;
  out.pages_recomputed = serve.stats().pages_recomputed;
  out.kv_recoveries = serve.stats().kv_recoveries;
  out.recompute_ms = serve.stats().recompute_ms;
  out.sessions_restarted = serve.stats().sessions_restarted;
  std::vector<double> ttft_ms;
  out.tokens_identical = true;
  for (const ServeRequestResult& r : serve.results()) {
    const size_t idx = r.request_id - ids.front();
    if (!r.status.ok()) {
      ++out.failed;
      continue;
    }
    ++out.completed;
    ttft_ms.push_back((r.first_token_s - r.submit_s) * 1e3);
    if (r.generation.output_tokens != solo[idx]) {
      out.tokens_identical = false;
      fprintf(stderr, "oversubscription divergence: prompt %zu\n", idx);
    }
  }
  out.ttft_ms_p50 = Percentile(ttft_ms, 0.50);
  out.ttft_ms_p99 = Percentile(ttft_ms, 0.99);
  return out;
}

// The three engine configurations the over-subscription and chaos sections
// share: a flat single-session reference, the paged 16-session point and
// the flat 3-slot checkpoint-eviction point.
struct OversubConfigs {
  RuntimeConfig solo;
  RuntimeConfig paged;
  RuntimeConfig evict;
};

OversubConfigs BuildOversubConfigs() {
  OversubConfigs out;
  // Solo references on a plain flat single-session engine.
  out.solo.model = OversubModel();
  out.solo.system = SystemKind::kTzLlm;
  out.solo.materialize_model = true;
  out.solo.engine.prefill_batch = kOversubPrefillBatch;
  out.solo.engine.max_sessions = 1;
  out.solo.engine.paged_kv = false;

  const ModelSpec spec = ModelSpec::Create(OversubModel());
  const uint64_t flat_budget =
      kOversubFlatSlots * spec.KvCacheBytes(kOversubMaxCtx);

  // Paged: every session admitted, cold pages spill under the SAME budget.
  out.paged = out.solo;
  out.paged.engine.max_sessions = kOversubSessions;
  out.paged.engine.paged_kv = true;
  out.paged.engine.kv_page_positions = kOversubPagePositions;
  out.paged.engine.kv_pool_bytes = flat_budget;
  out.paged.engine.kv_prefix_entries = 0;  // Isolate paging from reuse.

  // Flat: three resident slots; extra demand queues or checkpoint-evicts.
  out.evict = out.solo;
  out.evict.engine.max_sessions = kOversubFlatSlots;
  out.evict.engine.paged_kv = false;
  out.evict.engine.serve_eviction = ServeEvictPolicy::kPriority;
  return out;
}

std::vector<std::vector<TokenId>> OversubSoloRuns(
    const RuntimeConfig& solo_config) {
  std::vector<std::vector<TokenId>> solo;
  SocPlatform plat;
  SystemRuntime runtime(&plat, solo_config);
  if (!runtime.Setup().ok()) {
    fprintf(stderr, "oversubscription solo setup failed\n");
    abort();
  }
  auto ta = runtime.CreateFunctionalTa();
  if (!ta.ok() || !(*ta)->LoadModel(runtime.spec().config().name).ok()) {
    fprintf(stderr, "oversubscription solo load failed\n");
    abort();
  }
  for (const std::string& prompt : OversubPrompts()) {
    auto ref = (*ta)->Generate(prompt, kOversubBudget);
    if (!ref.ok()) {
      fprintf(stderr, "oversubscription solo failed: %s\n",
              ref.status().ToString().c_str());
      abort();
    }
    solo.push_back(ref->output_tokens);
  }
  return solo;
}

// --- Chaos sweep (ISSUE 10): same traffic, hostile REE. -------------------
//
// Each plan arms ONE injected failure class for the whole run, and the run
// must still complete every request with bit-identical tokens:
//
//   spill_tamper / spill_drop — every KV page spill blob is corrupted or
//     discarded, so every later restore fails its integrity check and the
//     engine re-prefills the covered positions from token history
//     (recompute-on-loss). Runs on the paged 16-session point, where spill
//     pressure is constant.
//   ckpt_drop — every sealed session checkpoint is deleted right after
//     sealing; evicted sessions restart from their prompts on readmission
//     (deterministic generation keeps the tokens identical). Runs on the
//     flat eviction point, where checkpoints are the pressure valve.
struct ChaosRun {
  std::string plan;
  // Which clean over-subscription point this degraded run is compared
  // against ("paged" or "evict") — the spill plans run paged traffic, the
  // checkpoint plan runs the flat eviction traffic.
  std::string baseline;
  OversubPoint point;
};

std::vector<ChaosRun> RunChaosSweep(
    const OversubConfigs& configs,
    const std::vector<std::vector<TokenId>>& solo) {
  std::vector<ChaosRun> runs;
  for (const char* plan : {"spill_tamper@1x1000000", "spill_drop@1x1000000"}) {
    RuntimeConfig config = configs.paged;
    config.engine.serve_fault_plan = plan;
    // EVERY spill is lost: the recompute budget must cover sustained
    // re-prefill for the whole run, not a one-off incident.
    config.engine.kv_recompute_max = 1 << 20;
    runs.push_back({plan, "paged", RunOversubPoint(config, solo)});
  }
  {
    RuntimeConfig config = configs.evict;
    config.engine.serve_fault_plan = "ckpt_drop@1x1000000";
    runs.push_back({config.engine.serve_fault_plan, "evict",
                    RunOversubPoint(config, solo)});
  }
  return runs;
}

// --- ta_crash + Recover() (ISSUE 10). -------------------------------------
//
// Kills the serving TA mid-flight (ta_crash@30). The plan re-arms on every
// reboot — each recovered runtime crashes again at ITS tick 30 — so the
// fleet takes REPEATED crashes and still must drain: every round banks
// progress through the auto-checkpoint cadence, boots a fresh TA on the
// same platform (same flash, same sealed blobs) and Recover()s the fleet
// from the serving manifest, until one round outruns the crash tick.
struct TaCrashResult {
  std::string plan;
  int crashes = 0;
  uint64_t sessions_recovered = 0;
  uint64_t sessions_restarted = 0;
  uint64_t auto_checkpoints = 0;
  int completed = 0;
  bool tokens_identical = false;
};

TaCrashResult RunTaCrashScenario(
    const OversubConfigs& configs,
    const std::vector<std::vector<TokenId>>& solo) {
  RuntimeConfig config = configs.paged;
  config.engine.serve_checkpoint_every_n_ticks = 8;
  config.engine.serve_fault_plan = "ta_crash@30";
  TaCrashResult out;
  out.plan = config.engine.serve_fault_plan;

  SocPlatform plat;
  SystemRuntime runtime(&plat, config);
  if (!runtime.Setup().ok()) {
    fprintf(stderr, "ta_crash setup failed\n");
    abort();
  }
  auto ta = runtime.CreateFunctionalTa();
  if (!ta.ok() || !(*ta)->LoadModel(runtime.spec().config().name).ok()) {
    fprintf(stderr, "ta_crash load failed\n");
    abort();
  }

  const std::vector<std::string> prompts = OversubPrompts();
  std::map<uint64_t, std::vector<TokenId>> outs;  // request id -> tokens
  uint64_t first_id = 0;
  auto drain = [&](const ServingRuntime& serve) {
    for (const ServeRequestResult& r : serve.results()) {
      if (r.status.ok()) {
        outs[r.request_id] = r.generation.output_tokens;
      }
    }
    out.sessions_recovered += serve.stats().sessions_recovered;
    out.sessions_restarted += serve.stats().sessions_restarted;
    out.auto_checkpoints += serve.stats().auto_checkpoints;
  };

  Status done = OkStatus();
  {
    ServingRuntime serve(ta->get(), &plat.sim());
    for (int i = 0; i < kOversubSessions; ++i) {
      ServeRequest req;
      req.prompt = prompts[i];
      req.max_new_tokens = kOversubBudget;
      req.priority = static_cast<double>(i);
      auto id = serve.Enqueue(req);
      if (!id.ok()) {
        fprintf(stderr, "ta_crash enqueue failed: %s\n",
                id.status().ToString().c_str());
        abort();
      }
      if (first_id == 0) {
        first_id = *id;
      }
    }
    done = serve.RunToCompletion();
    drain(serve);
  }
  // Reboot-and-recover rounds. 64 is a generous cap: each crashed round
  // still banks ~3 checkpoint intervals of decode progress.
  for (int round = 0; !done.ok() && round < 64; ++round) {
    if (done.code() != ErrorCode::kAborted) {
      fprintf(stderr, "ta_crash run failed (not the injected crash): %s\n",
              done.ToString().c_str());
      abort();
    }
    ++out.crashes;
    // The "crash": scrub secure memory and drop the TA. Only flash — the
    // model, the session blobs, the serving manifest — survives.
    if (!(*ta)->Unload().ok()) {
      fprintf(stderr, "ta_crash unload failed\n");
      abort();
    }
    (*ta).reset();
    ta = runtime.CreateFunctionalTa();
    if (!ta.ok() || !(*ta)->LoadModel(runtime.spec().config().name).ok()) {
      fprintf(stderr, "ta_crash reboot failed\n");
      abort();
    }
    ServingRuntime serve(ta->get(), &plat.sim());
    const Status recovered = serve.Recover();
    if (!recovered.ok()) {
      fprintf(stderr, "ta_crash Recover() failed: %s\n",
              recovered.ToString().c_str());
      abort();
    }
    done = serve.RunToCompletion();
    drain(serve);
  }
  if (!done.ok()) {
    fprintf(stderr, "ta_crash fleet never drained: %s\n",
            done.ToString().c_str());
    abort();
  }

  out.completed = static_cast<int>(outs.size());
  out.tokens_identical = outs.size() == solo.size();
  for (const auto& [id, tokens] : outs) {
    const size_t idx = static_cast<size_t>(id - first_id);
    if (idx >= solo.size() || tokens != solo[idx]) {
      out.tokens_identical = false;
      fprintf(stderr, "ta_crash divergence: request %llu\n",
              static_cast<unsigned long long>(id));
    }
  }
  return out;
}

}  // namespace
}  // namespace tzllm

int main() {
  using namespace tzllm;

  const std::vector<std::string> prompts = ServePrompts();

  RuntimeConfig config;
  config.model = BenchLargeModel();
  config.system = SystemKind::kTzLlm;
  config.materialize_model = true;
  config.engine.prefill_batch = 16;
  config.engine.max_sessions = 8;
  SocPlatform plat;
  SystemRuntime runtime(&plat, config);
  if (!runtime.Setup().ok()) {
    fprintf(stderr, "setup failed\n");
    return 1;
  }
  auto ta = runtime.CreateFunctionalTa();
  if (!ta.ok() || !(*ta)->LoadModel(runtime.spec().config().name).ok()) {
    fprintf(stderr, "model load failed\n");
    return 1;
  }

  PrintHeader("Figure 18", "Multi-session serving throughput (one TA)");
  printf("model=%s  layers=%d d_model=%d vocab=%d  max_sessions=%d  simd=%s\n",
         runtime.spec().config().name.c_str(), config.model.n_layers,
         config.model.d_model, config.model.vocab_size,
         config.engine.max_sessions, SimdIsaName(ActiveKernels()->isa));

  // Warmup: weights through the cache hierarchy, workspace sized.
  {
    auto warm = (*ta)->Generate(prompts[0], 8);
    if (!warm.ok()) {
      fprintf(stderr, "warmup failed: %s\n",
              warm.status().ToString().c_str());
      return 1;
    }
  }

  // Solo references for the bit-identity check (same TA, same options —
  // max_sessions is a capacity knob, not a numerics knob).
  std::vector<std::vector<TokenId>> solo;
  for (const std::string& prompt : prompts) {
    auto ref = (*ta)->Generate(prompt, kDecodeBudget);
    if (!ref.ok()) {
      fprintf(stderr, "solo reference failed: %s\n",
              ref.status().ToString().c_str());
      return 1;
    }
    solo.push_back(ref->output_tokens);
  }

  std::vector<SweepPoint> sweep;
  bool tokens_identical = true;
  for (int n : kSessionCounts) {
    std::vector<std::vector<TokenId>> outputs;
    sweep.push_back(RunSweepPoint(ta->get(), &plat.sim(), n, prompts,
                                  &outputs));
    for (int i = 0; i < n; ++i) {
      if (outputs[i] != solo[i]) {
        tokens_identical = false;
        fprintf(stderr, "token divergence: n=%d prompt=%d\n", n, i);
      }
    }
  }

  printf("\nServing sweep (%d decode tokens/request):\n", kDecodeBudget);
  PrintRow({"sessions", "agg tok/s", "vs n=1", "ttft p50 ms", "ttft p99 ms",
            "itl p50 ms", "itl p99 ms", "rows/fwd"},
           14);
  const double base = sweep.front().aggregate_tok_s;
  for (const SweepPoint& p : sweep) {
    PrintRow({std::to_string(p.sessions), Fmt("%.1f", p.aggregate_tok_s),
              Fmt("%.2fx", p.aggregate_tok_s / base),
              Fmt("%.1f", p.ttft_ms_p50), Fmt("%.1f", p.ttft_ms_p99),
              Fmt("%.2f", p.itl_ms_p50), Fmt("%.2f", p.itl_ms_p99),
              Fmt("%.2f", p.rows_per_forward)},
             14);
  }
  const double speedup4 = sweep[2].aggregate_tok_s / base;
  printf("\naggregate at 4 sessions vs 1: %.2fx %s\n", speedup4,
         speedup4 >= 2.0 ? "(target >= 2x: PASS)" : "(target >= 2x: FAIL)");
  printf("per-session tokens vs solo: %s\n",
         tokens_identical ? "identical (PASS)" : "DIVERGED (FAIL)");

  // Paged-KV counters for the whole sweep (one TA, cumulative): how much
  // the page pool and prefix registry actually worked. The solo references
  // above registered each prompt as a shareable prefix, so the serving runs
  // adopt those pages and prefill only the final position — the TTFT win
  // paging buys on top of batching.
  const KvArena* sweep_arena = (*ta)->kv_arena();
  const bool sweep_paged = sweep_arena != nullptr && sweep_arena->paged();
  if (sweep_paged) {
    printf("paged kv: %llu spills, %llu restores, %llu cow copies, "
           "%llu/%llu prefix hits\n",
           static_cast<unsigned long long>(sweep_arena->pool()->stats().spills),
           static_cast<unsigned long long>(
               sweep_arena->pool()->stats().restores),
           static_cast<unsigned long long>(
               sweep_arena->pool()->stats().cow_copies),
           static_cast<unsigned long long>(sweep_arena->prefix_stats().hits),
           static_cast<unsigned long long>(
               sweep_arena->prefix_stats().lookups));
  }

  const PreemptionResult preemption = RunPreemptionScenario();
  printf("eviction under pressure: %d preemption(s), evictee tokens %s\n",
         preemption.preemptions,
         preemption.tokens_identical ? "identical (PASS)" : "DIVERGED (FAIL)");

  const OversubConfigs oversub_cfg = BuildOversubConfigs();
  const std::vector<std::vector<TokenId>> oversub_solo =
      OversubSoloRuns(oversub_cfg.solo);
  const OversubPoint oversub_paged =
      RunOversubPoint(oversub_cfg.paged, oversub_solo);
  const OversubPoint oversub_evict =
      RunOversubPoint(oversub_cfg.evict, oversub_solo);
  printf("\nOver-subscription (%d sessions, %d-slot KV budget):\n",
         kOversubSessions, kOversubFlatSlots);
  PrintRow({"mode", "ttft p50 ms", "ttft p99 ms", "wall s", "preempt",
            "spills", "restores", "rows/fwd"},
           13);
  PrintRow({"paged", Fmt("%.1f", oversub_paged.ttft_ms_p50),
            Fmt("%.1f", oversub_paged.ttft_ms_p99),
            Fmt("%.2f", oversub_paged.wall_s),
            std::to_string(oversub_paged.preemptions),
            std::to_string(oversub_paged.page_spills),
            std::to_string(oversub_paged.page_restores),
            Fmt("%.2f", oversub_paged.rows_per_forward)},
           13);
  PrintRow({"evict", Fmt("%.1f", oversub_evict.ttft_ms_p50),
            Fmt("%.1f", oversub_evict.ttft_ms_p99),
            Fmt("%.2f", oversub_evict.wall_s),
            std::to_string(oversub_evict.preemptions),
            std::to_string(oversub_evict.page_spills),
            std::to_string(oversub_evict.page_restores),
            Fmt("%.2f", oversub_evict.rows_per_forward)},
           13);
  const bool oversub_wins =
      oversub_paged.ttft_ms_p99 < oversub_evict.ttft_ms_p99;
  printf("paged tail TTFT vs whole-session eviction: %.1f vs %.1f ms %s\n",
         oversub_paged.ttft_ms_p99, oversub_evict.ttft_ms_p99,
         oversub_wins ? "(paging wins: PASS)" : "(paging LOST: FAIL)");
  printf("over-subscribed tokens vs solo: paged %s, evict %s\n",
         oversub_paged.tokens_identical ? "identical (PASS)"
                                        : "DIVERGED (FAIL)",
         oversub_evict.tokens_identical ? "identical (PASS)"
                                        : "DIVERGED (FAIL)");

  const std::vector<ChaosRun> chaos =
      RunChaosSweep(oversub_cfg, oversub_solo);
  const TaCrashResult ta_crash =
      RunTaCrashScenario(oversub_cfg, oversub_solo);
  printf("\nChaos sweep (same traffic, armed serve-fault plans):\n");
  printf("%-24s %-6s %-6s %-8s %-8s %-8s %s\n", "plan", "done", "fail",
         "lost", "recomp", "restart", "ttft p99 ms");
  bool chaos_clean = true;
  for (const ChaosRun& c : chaos) {
    const OversubPoint& p = c.point;
    chaos_clean = chaos_clean && p.tokens_identical && p.failed == 0;
    printf("%-24s %-6d %-6d %-8llu %-8llu %-8llu %.1f\n", c.plan.c_str(),
           p.completed, p.failed,
           static_cast<unsigned long long>(p.pages_lost),
           static_cast<unsigned long long>(p.pages_recomputed),
           static_cast<unsigned long long>(p.sessions_restarted),
           p.ttft_ms_p99);
  }
  printf("chaos tokens vs solo: %s\n",
         chaos_clean ? "identical, zero failures (PASS)"
                     : "DIVERGED or failed (FAIL)");
  printf("ta_crash (%s): %d crash(es), %llu recovered, %llu restarted, "
         "%llu checkpoint rounds, %d/%d completed, tokens %s\n",
         ta_crash.plan.c_str(), ta_crash.crashes,
         static_cast<unsigned long long>(ta_crash.sessions_recovered),
         static_cast<unsigned long long>(ta_crash.sessions_restarted),
         static_cast<unsigned long long>(ta_crash.auto_checkpoints),
         ta_crash.completed, kOversubSessions,
         ta_crash.tokens_identical ? "identical (PASS)" : "DIVERGED (FAIL)");

  FILE* json = fopen("BENCH_serving.json", "w");
  if (json != nullptr) {
    fprintf(json, "{\n");
    fprintf(json, "  \"model\": \"%s\",\n", config.model.name.c_str());
    fprintf(json, "  \"simd_isa\": \"%s\",\n",
            SimdIsaName(ActiveKernels()->isa));
    fprintf(json, "  \"hardware_concurrency\": %u,\n",
            std::thread::hardware_concurrency());
    fprintf(json, "  \"decode_budget\": %d,\n", kDecodeBudget);
    fprintf(json, "  \"max_sessions\": %d,\n", config.engine.max_sessions);
    fprintf(json, "  \"sessions\": {\n");
    for (size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& p = sweep[i];
      fprintf(json,
              "    \"%d\": {\"aggregate_tok_s\": %.2f, \"total_tokens\": "
              "%llu, \"decode_time_s\": %.4f, \"decode_span_s\": %.4f, "
              "\"wall_s\": %.4f, "
              "\"ttft_ms_p50\": %.2f, \"ttft_ms_p99\": %.2f, "
              "\"itl_ms_p50\": %.3f, \"itl_ms_p99\": %.3f, \"ticks\": "
              "%llu}%s\n",
              p.sessions, p.aggregate_tok_s,
              static_cast<unsigned long long>(p.total_tokens),
              p.decode_time_s, p.decode_span_s, p.wall_s, p.ttft_ms_p50,
              p.ttft_ms_p99,
              p.itl_ms_p50, p.itl_ms_p99,
              static_cast<unsigned long long>(p.ticks),
              i + 1 < sweep.size() ? "," : "");
    }
    fprintf(json, "  },\n");
    fprintf(json, "  \"speedup_4_vs_1\": %.3f,\n", speedup4);
    fprintf(json, "  \"tokens_identical\": %s,\n",
            tokens_identical ? "true" : "false");
    if (sweep_paged) {
      fprintf(json,
              "  \"paged_kv\": {\"page_spills\": %llu, \"page_restores\": "
              "%llu, \"cow_copies\": %llu, \"prefix_lookups\": %llu, "
              "\"prefix_hits\": %llu},\n",
              static_cast<unsigned long long>(
                  sweep_arena->pool()->stats().spills),
              static_cast<unsigned long long>(
                  sweep_arena->pool()->stats().restores),
              static_cast<unsigned long long>(
                  sweep_arena->pool()->stats().cow_copies),
              static_cast<unsigned long long>(
                  sweep_arena->prefix_stats().lookups),
              static_cast<unsigned long long>(
                  sweep_arena->prefix_stats().hits));
    }
    fprintf(json, "  \"preemption\": {\"preemptions\": %d, "
                  "\"tokens_identical\": %s},\n",
            preemption.preemptions,
            preemption.tokens_identical ? "true" : "false");
    fprintf(json, "  \"oversubscription\": {\n");
    fprintf(json, "    \"sessions\": %d,\n", kOversubSessions);
    fprintf(json, "    \"kv_budget_slots\": %d,\n", kOversubFlatSlots);
    fprintf(json,
            "    \"paged\": {\"ttft_ms_p50\": %.2f, \"ttft_ms_p99\": %.2f, "
            "\"wall_s\": %.4f, \"preemptions\": %d, \"page_spills\": %llu, "
            "\"page_restores\": %llu, \"tokens_identical\": %s},\n",
            oversub_paged.ttft_ms_p50, oversub_paged.ttft_ms_p99,
            oversub_paged.wall_s, oversub_paged.preemptions,
            static_cast<unsigned long long>(oversub_paged.page_spills),
            static_cast<unsigned long long>(oversub_paged.page_restores),
            oversub_paged.tokens_identical ? "true" : "false");
    fprintf(json,
            "    \"evict\": {\"ttft_ms_p50\": %.2f, \"ttft_ms_p99\": %.2f, "
            "\"wall_s\": %.4f, \"preemptions\": %d, \"tokens_identical\": "
            "%s},\n",
            oversub_evict.ttft_ms_p50, oversub_evict.ttft_ms_p99,
            oversub_evict.wall_s, oversub_evict.preemptions,
            oversub_evict.tokens_identical ? "true" : "false");
    fprintf(json, "    \"paged_beats_evict_ttft_p99\": %s\n",
            oversub_wins ? "true" : "false");
    fprintf(json, "  },\n");
    fprintf(json, "  \"chaos\": {\n");
    fprintf(json, "    \"ttft_ms_p99_clean\": %.2f,\n",
            oversub_paged.ttft_ms_p99);
    fprintf(json, "    \"ttft_ms_p99_clean_evict\": %.2f,\n",
            oversub_evict.ttft_ms_p99);
    fprintf(json, "    \"plans\": {\n");
    for (size_t i = 0; i < chaos.size(); ++i) {
      const OversubPoint& p = chaos[i].point;
      fprintf(json,
              "      \"%s\": {\"baseline\": \"%s\", \"completed\": %d, "
              "\"failed\": %d, "
              "\"tokens_identical\": %s, \"pages_lost\": %llu, "
              "\"pages_recomputed\": %llu, \"kv_recoveries\": %llu, "
              "\"recompute_ms\": %.2f, \"sessions_restarted\": %llu, "
              "\"ttft_ms_p99\": %.2f}%s\n",
              chaos[i].plan.c_str(), chaos[i].baseline.c_str(), p.completed,
              p.failed,
              p.tokens_identical ? "true" : "false",
              static_cast<unsigned long long>(p.pages_lost),
              static_cast<unsigned long long>(p.pages_recomputed),
              static_cast<unsigned long long>(p.kv_recoveries),
              p.recompute_ms,
              static_cast<unsigned long long>(p.sessions_restarted),
              p.ttft_ms_p99, i + 1 < chaos.size() ? "," : "");
    }
    fprintf(json, "    },\n");
    fprintf(json,
            "    \"ta_crash\": {\"plan\": \"%s\", \"crashes\": %d, "
            "\"sessions_recovered\": %llu, \"sessions_restarted\": %llu, "
            "\"auto_checkpoints\": %llu, \"completed\": %d, "
            "\"tokens_identical\": %s}\n",
            ta_crash.plan.c_str(), ta_crash.crashes,
            static_cast<unsigned long long>(ta_crash.sessions_recovered),
            static_cast<unsigned long long>(ta_crash.sessions_restarted),
            static_cast<unsigned long long>(ta_crash.auto_checkpoints),
            ta_crash.completed,
            ta_crash.tokens_identical ? "true" : "false");
    fprintf(json, "  }\n");
    fprintf(json, "}\n");
    fclose(json);
    printf("\nwrote BENCH_serving.json\n");
  }
  return 0;
}
