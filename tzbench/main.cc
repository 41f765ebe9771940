// tzbench — the repository benchmark (see tzbench/README.md).
//
//   tzbench --workload cold_start|chat|shared_prefix_spill --seed N
//           --seconds S --trace 0|1 [--git-sha SHA] [--trace-out PATH]
//
// A single-threaded, closed-loop load generator over the public API of the
// functional TZ-LLM stack (SystemRuntime, LlmTa, ServingRuntime) on the
// bench-medium model. Prompts and output lengths come from --seed; the
// system under test receives only the generated prompts. After the timed
// window a seeded sample of completed requests is re-run solo on the same
// TA and must reproduce its tokens exactly.
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics of an
// untraced window. --trace 1 records spans and counters around every call
// into the system and reports the per-layer metrics instead, plus the share
// of the window the recording itself took. The line before it holds the
// provenance block, request counts, sample counts, ITL and the percentiles
// the sample supports.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/runtime.h"
#include "src/crypto/aes.h"
#include "src/crypto/sha256.h"
#include "src/llm/kv_page_pool.h"
#include "src/llm/simd/kernels.h"
#include "src/llm/tokenizer.h"
#include "src/serve/serving.h"
#include "tzbench/trace.h"

#ifndef TZBENCH_BUILD_TYPE
#define TZBENCH_BUILD_TYPE "unknown"
#endif

namespace tzbench {
namespace {

using tzllm::EngineOptions;
using tzllm::KvArena;
using tzllm::KvCache;
using tzllm::LlmConfig;
using tzllm::LlmTa;
using tzllm::ModelSpec;
using tzllm::RuntimeConfig;
using tzllm::SecureRegionId;
using tzllm::ServeRequest;
using tzllm::ServeRequestResult;
using tzllm::ServingRuntime;
using tzllm::SocPlatform;
using tzllm::Status;
using tzllm::SystemRuntime;
using tzllm::TokenId;
using tzllm::Tokenizer;

using WallClock = std::chrono::steady_clock;

constexpr int kSetupRepeats = 3;   // setup_s is the median of these.
constexpr int kSoloChecks = 3;     // Completed requests re-run solo per window.
constexpr double kMiB = 1024.0 * 1024.0;
constexpr uint64_t kSpillPoolPages = 24;  // shared_prefix_spill KV pool.

int64_t WallNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             WallClock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) { return (WallNs() - start_ns) / 1e9; }

// The host's vCPUs change speed from second to second, each with its own
// neighbours on the host, and the scheduler keeps a single-threaded run on
// one of them. Moving the thread to the next allowed CPU about once a second
// spreads a run over all of them, so a run does not measure the luck of one
// vCPU. Best effort: a failed call leaves the thread where it is.
void RotateCpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) {
          out.push_back(c);
        }
      }
    }
    return out;
  }();
  static size_t next = 0;
  static int64_t last_ns = 0;
  if (cpus.size() < 2 || WallNs() - last_ns < 1'000'000'000) {
    return;
  }
  last_ns = WallNs();
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next++ % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

[[noreturn]] void Die(const std::string& what) {
  fprintf(stderr, "tzbench: %s\n", what.c_str());
  exit(1);
}

void CheckOk(const Status& st, const char* what) {
  if (!st.ok()) {
    Die(std::string(what) + ": " + st.ToString());
  }
}

// The fig17 bench-medium geometry: 8 layers, d_model 512, ~29.6 MB of Q8
// weights. The weights outgrow L2, so kernel, batching and restore changes
// all show, while one setup stays around a second.
LlmConfig BenchMediumModel() {
  LlmConfig c;
  c.name = "bench-medium";
  c.n_layers = 8;
  c.d_model = 512;
  c.n_heads = 8;
  c.n_kv_heads = 4;
  c.d_ff = 1408;
  c.vocab_size = 4096;
  c.max_ctx = 256;
  return c;
}

// --- Workloads. -------------------------------------------------------------

struct Workload {
  std::string name;
  int clients = 1;
  bool serving = false;
  // Prompt shape: `shared_tokens` of one common system prompt, then a
  // distinct turn of prompt_min..prompt_max tokens.
  int shared_tokens = 0;
  int prompt_min = 0;
  int prompt_max = 0;
  int output_min = 0;
  int output_max = 0;
  // Ticks between successive clients' first requests; 0 sends them all at
  // once.
  int ramp_ticks = 0;
  EngineOptions options;  // Defaults plus the workload's own knobs.
};

bool MakeWorkload(const std::string& name, const ModelSpec& spec,
                  Workload* w) {
  w->name = name;
  if (name == "cold_start") {
    // One client; every request restores the model from flash, prefills a
    // ~160-token prompt on the NPU path, decodes 16 tokens and unloads.
    w->clients = 1;
    w->prompt_min = w->prompt_max = 160;
    w->output_min = w->output_max = 16;
    w->options.npu_prefill = true;
    return true;
  }
  if (name == "chat") {
    // Six clients, distinct short prompts, output lengths spread so decode
    // batches take sizes that are and are not multiples of four. The KV
    // pool is the default (fits everything): no spills, no prefix hits.
    w->clients = 6;
    w->serving = true;
    w->prompt_min = 32;
    w->prompt_max = 48;
    w->output_min = 32;
    w->output_max = 128;
    w->options.max_sessions = 6;
    return true;
  }
  if (name == "shared_prefix_spill") {
    // Twelve clients against eight session slots (the admission queue holds
    // the rest). Every prompt is one common 160-token system prompt plus a
    // distinct 24-token turn, and every output is 32 tokens. Eight sessions
    // reference 26..50 KV pages (the shared 10-page prefix once, 2..5
    // private pages each) and the prefix registry holds more. The pool holds
    // 24 pages, below the smallest of those working sets, so every batched
    // decode step spills and restores private pages (about three per output
    // token) while the prefix pages stay shared. A pool near the working set
    // would flip between steps with and without spills, and the window would
    // time that mix, not the spill path.
    //
    // TTFT here is mostly the wait in the admission queue. With output
    // lengths drawn at random, that wait is the time until the fifth next
    // retirement, spread over 1..7 s, and the median of the ~15 requests a
    // window sends jumped by a quarter between seeds. With fixed outputs and
    // clients ramped in four ticks apart, the slots retire about every four
    // ticks, and the schedule, counted in ticks, is the same on every run.
    w->clients = 12;
    w->serving = true;
    w->shared_tokens = 160;
    w->prompt_min = w->prompt_max = 24;
    w->output_min = w->output_max = 32;
    w->ramp_ticks = 4;
    w->options.max_sessions = 8;
    w->options.kv_pool_bytes =
        kSpillPoolPages * tzllm::KvPagePool::PageBytes(
                              spec, tzllm::KvStorage::kF16,
                              w->options.kv_page_positions);
    return true;
  }
  return false;
}

// Seeded prompt text with an exact token count under the model's tokenizer.
class PromptGen {
 public:
  PromptGen(uint64_t seed, int vocab_size) : rng_(seed), tok_(vocab_size) {}

  int Uniform(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  // Random words until the text encodes to at least `n` tokens, cut back to
  // exactly `n`. Greedy longest-match encoding of a token-boundary prefix
  // reproduces the same tokens, so the cut text encodes to `n` tokens.
  std::string Text(int n) {
    static const char* kWords[] = {
        "the",    "secure", "memory", "model",   "token",  "layer",
        "cache",  "flash",  "world",  "normal",  "trust",  "zone",
        "device", "phone",  "user",   "answer",  "please", "explain",
        "why",    "how",    "what",   "when",    "write",  "short",
        "story",  "about",  "river",  "city",    "winter", "light",
        "number", "seven",  "green",  "quick",   "slow",   "data",
        "key",    "page",   "blue",   "mountain", "song",  "letter",
        "friend", "garden", "window", "paper",   "engine", "signal"};
    constexpr int kNumWords = sizeof(kWords) / sizeof(kWords[0]);
    std::string text;
    std::vector<TokenId> tokens;
    while (static_cast<int>(tokens.size()) < n + 2) {
      for (int i = 0; i < 8; ++i) {
        text += kWords[Uniform(0, kNumWords - 1)];
        text += (Uniform(0, 9) == 0) ? ". " : " ";
      }
      tokens = tok_.Encode(text);
    }
    tokens.resize(n);
    return tok_.Decode(tokens);
  }

  std::mt19937_64& rng() { return rng_; }

 private:
  std::mt19937_64 rng_;
  Tokenizer tok_;
};

struct Request {
  uint64_t id = 0;  // Serving request id, or the cycle index in cold_start.
  std::string prompt;
  int max_new = 0;
  std::vector<TokenId> output;
  bool ok = false;
};

Request NextRequest(const Workload& w, PromptGen* gen,
                    const std::string& system_prompt) {
  Request r;
  r.prompt = system_prompt + gen->Text(gen->Uniform(w.prompt_min,
                                                    w.prompt_max));
  r.max_new = gen->Uniform(w.output_min, w.output_max);
  return r;
}

// --- The system under test. -------------------------------------------------

struct Stack {
  std::unique_ptr<SocPlatform> platform;
  std::unique_ptr<SystemRuntime> runtime;
  std::unique_ptr<LlmTa> ta;
};

uint64_t SecureBytes(SystemRuntime& rt) {
  return rt.tee_os().RegionStats(SecureRegionId::kParams).protected_bytes +
         rt.tee_os().RegionStats(SecureRegionId::kScratch).protected_bytes;
}

// External KV accounting check: resident plus spilled bytes must equal what
// the live sessions' lengths imply (an emptied slot has length 0).
bool KvAccountingHolds(const LlmTa& ta, int n_layers) {
  const KvArena* arena = ta.kv_arena();
  if (arena == nullptr) {
    return true;
  }
  uint64_t expect = 0;
  for (int s = 0; s < arena->slots(); ++s) {
    const KvCache* c = arena->cache(s);
    expect += static_cast<uint64_t>(c->seq_len()) * n_layers * c->kv_dim() *
              tzllm::kKvVectorsPerPosition * c->bytes_per_elem();
  }
  return arena->CurrentBytes() + arena->SpilledBytes() == expect;
}

// Weight bytes one decode step streams, computed from tensor sizes: every
// tensor but the token embedding (a decode step reads one embedding row).
uint64_t DecodeWeightBytes(const ModelSpec& spec) {
  uint64_t bytes = 0;
  for (const auto& t : spec.tensors()) {
    if (t.role != tzllm::TensorRole::kTokEmbedding) {
      bytes += t.data_bytes;
    }
  }
  return bytes;
}

// Everything a window measures. End-to-end samples are taken in every run;
// per-layer fields are filled only when the recorder is on.
struct Window {
  double seconds = 0.0;
  std::vector<double> ttft_ms;
  std::vector<double> itl_ms;
  uint64_t out_tokens = 0;
  uint64_t peak_secure_bytes = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t kv_mismatches = 0;
  uint64_t solo_checked = 0;
  uint64_t solo_mismatches = 0;
  std::map<std::string, double> layer;  // Per-layer metrics.
};

void NoteSecure(SystemRuntime& rt, Window* win) {
  win->peak_secure_bytes = std::max(win->peak_secure_bytes, SecureBytes(rt));
}

// Re-runs a seeded sample of completed requests solo on the same TA (which
// must have the model loaded and no open sessions) and counts any request
// whose tokens differ from its run under load.
void SoloCheck(LlmTa* ta, std::vector<Request*> done, std::mt19937_64* rng,
               Window* win) {
  std::shuffle(done.begin(), done.end(), *rng);
  const size_t n = std::min<size_t>(kSoloChecks, done.size());
  for (size_t i = 0; i < n; ++i) {
    auto solo = ta->Generate(done[i]->prompt, done[i]->max_new);
    CheckOk(solo.status(), "solo re-run");
    ++win->solo_checked;
    if (solo->output_tokens != done[i]->output) {
      ++win->solo_mismatches;
      done[i]->ok = false;
    }
  }
}

void CountOutcome(const Request& r, Window* win) {
  ++win->attempted;
  if (!r.ok) {
    ++win->failed;
  }
}

// --- cold_start. ------------------------------------------------------------

struct ColdCycle {
  double ttft_ms = 0.0;
  double load_ms = 0.0;
  double prefill_ms = 0.0;
  double restore_sim_ms = 0.0;
  std::vector<double> step_ms;  // Each StepSession call.
  std::vector<double> itl_ms;   // Gaps between visible tokens.
  double seconds = 0.0;
  int prompt_tokens = 0;
  tzllm::KvPageStats kv;
  uint64_t prefix_lookups = 0;
  uint64_t prefix_hits = 0;
  uint64_t adopted = 0;
  uint64_t kv_resident_peak = 0;
  uint64_t kv_spilled_peak = 0;
};

// One cold request: LoadModel (restore from flash) -> BeginSession (prefill,
// first token) -> StepSession until done -> FinishSession -> Unload.
ColdCycle RunColdCycle(Stack* s, Request* req, SpanRecorder* rec,
                       Window* win) {
  LlmTa* ta = s->ta.get();
  SystemRuntime& rt = *s->runtime;
  const std::string& model = rt.spec().config().name;
  const int n_layers = rt.spec().config().n_layers;
  ColdCycle c;
  const int64_t t0 = WallNs();
  const int root = rec->Open("request", t0, -1, req->id);

  const int64_t sim0 = static_cast<int64_t>(s->platform->sim().Now());
  CheckOk(ta->LoadModel(model), "LoadModel");
  const int64_t t_loaded = WallNs();
  const int64_t sim_loaded = static_cast<int64_t>(s->platform->sim().Now());
  rec->Add("core.LoadModel", t0, t_loaded, root, req->id);
  rec->Add("core.restore", sim0, sim_loaded, -1, req->id, SpanClock::kSim);
  c.load_ms = (t_loaded - t0) / 1e6;
  c.restore_sim_ms = ta->restore_result().makespan / 1e6;
  NoteSecure(rt, win);

  auto sid = ta->BeginSession(req->prompt, req->max_new);
  CheckOk(sid.status(), "BeginSession");
  int64_t t_prev = WallNs();
  rec->Add("llm.BeginSession", t_loaded, t_prev, root, req->id);
  c.prefill_ms = (t_prev - t_loaded) / 1e6;
  c.ttft_ms = (t_prev - t0) / 1e6;
  NoteSecure(rt, win);
  if (!KvAccountingHolds(*ta, n_layers)) {
    ++win->kv_mismatches;
  }

  // A step emits the token sampled before it and samples the next, so the
  // gaps between visible tokens are the step durations except the last
  // step's, whose sampled token exceeds the budget and is dropped.
  std::vector<double> step_ms;
  while (true) {
    auto stepped = ta->StepSession(*sid, 1);
    CheckOk(stepped.status(), "StepSession");
    if (*stepped == 0) {
      break;
    }
    const int64_t t = WallNs();
    rec->Add("llm.StepSession", t_prev, t, root, req->id);
    step_ms.push_back((t - t_prev) / 1e6);
    t_prev = t;
    if (!KvAccountingHolds(*ta, n_layers)) {
      ++win->kv_mismatches;
    }
    if (rec->enabled()) {
      const int64_t s0 = WallNs();
      const auto* pool = ta->kv_arena()->pool();
      c.kv_resident_peak = std::max(c.kv_resident_peak, pool->ResidentBytes());
      c.kv_spilled_peak = std::max(c.kv_spilled_peak, pool->SpilledBytes());
      rec->Charge(WallNs() - s0);
    }
  }
  c.itl_ms.assign(step_ms.begin(), step_ms.end() - (step_ms.empty() ? 0 : 1));
  c.step_ms = std::move(step_ms);
  if (rec->enabled() && ta->kv_arena()->pool() != nullptr) {
    c.kv = ta->kv_arena()->pool()->stats();
    const auto& ps = ta->kv_arena()->prefix_stats();
    c.prefix_lookups = ps.lookups;
    c.prefix_hits = ps.hits;
    c.adopted = ps.adopted_positions;
  }

  const int64_t t_fin0 = WallNs();
  auto gen = ta->FinishSession(*sid);
  CheckOk(gen.status(), "FinishSession");
  const int64_t t_fin1 = WallNs();
  rec->Add("llm.FinishSession", t_fin0, t_fin1, root, req->id);
  CheckOk(ta->Unload(), "Unload");
  const int64_t t_end = WallNs();
  rec->Add("core.Unload", t_fin1, t_end, root, req->id);
  rec->Close(root, t_end);

  req->output = gen->output_tokens;
  c.prompt_tokens = static_cast<int>(gen->prompt_tokens.size());
  // Correct shape: at least one token, within budget, and all secure memory
  // handed back to the REE after Unload.
  req->ok = !req->output.empty() &&
            static_cast<int>(req->output.size()) <= req->max_new &&
            SecureBytes(rt) == 0;
  c.seconds = (t_end - t0) / 1e9;
  return c;
}

struct NpuCounters {
  uint64_t jobs = 0;
  int64_t switch_ns = 0;
  uint64_t fallback = 0;
};

NpuCounters ReadNpu(SystemRuntime& rt) {
  return {rt.tee_npu().secure_jobs_completed(),
          static_cast<int64_t>(rt.tee_npu().total_measured_switch_time()),
          rt.tee_npu().fallback_jobs()};
}

Window RunColdWindow(Stack* s, const Workload& w, PromptGen* gen,
                     double seconds, SpanRecorder* rec) {
  Window win;
  std::vector<Request> reqs;
  std::vector<ColdCycle> cycles;
  const NpuCounters npu0 = ReadNpu(*s->runtime);
  const int64_t open = WallNs();
  const int64_t close = open + static_cast<int64_t>(seconds * 1e9);
  while (WallNs() < close) {
    RotateCpu();
    reqs.push_back(NextRequest(w, gen, ""));
    reqs.back().id = reqs.size();
    cycles.push_back(RunColdCycle(s, &reqs.back(), rec, &win));
  }
  const NpuCounters npu1 = ReadNpu(*s->runtime);

  double total_s = 0.0;
  for (const ColdCycle& c : cycles) {
    win.ttft_ms.push_back(c.ttft_ms);
    win.itl_ms.insert(win.itl_ms.end(), c.itl_ms.begin(), c.itl_ms.end());
    total_s += c.seconds;
  }
  for (const Request& r : reqs) {
    win.out_tokens += r.output.size();
  }
  // Whole cycles only: a window cut mid-cycle would count a load phase
  // without its tokens.
  win.seconds = total_s;

  // Solo check: tokens under the timed loop must match a re-run on the same
  // TA (loaded once more, then released).
  CheckOk(s->ta->LoadModel(s->runtime->spec().config().name), "LoadModel");
  std::vector<Request*> done;
  for (Request& r : reqs) {
    done.push_back(&r);
  }
  SoloCheck(s->ta.get(), done, &gen->rng(), &win);
  CheckOk(s->ta->Unload(), "Unload");
  for (const Request& r : reqs) {
    CountOutcome(r, &win);
  }

  if (!rec->enabled()) {
    return win;
  }
  const double n = static_cast<double>(cycles.size());
  const double param_mb = s->runtime->spec().total_param_bytes() / kMiB;
  std::vector<double> load_ms, restore_sim, prefill_per_tok, step_ms;
  double spills = 0, restores = 0, cow = 0, lookups = 0, hits = 0;
  double adopted = 0, prompt_tok = 0, res_peak = 0, spill_peak = 0;
  for (const ColdCycle& c : cycles) {
    load_ms.push_back(c.load_ms);
    restore_sim.push_back(c.restore_sim_ms);
    prefill_per_tok.push_back(c.prefill_ms / std::max(1, c.prompt_tokens));
    step_ms.insert(step_ms.end(), c.step_ms.begin(), c.step_ms.end());
    spills += c.kv.spills;
    restores += c.kv.restores;
    cow += c.kv.cow_copies;
    lookups += c.prefix_lookups;
    hits += c.prefix_hits;
    adopted += c.adopted;
    prompt_tok += c.prompt_tokens;
    res_peak = std::max(res_peak, static_cast<double>(c.kv_resident_peak));
    spill_peak = std::max(spill_peak, static_cast<double>(c.kv_spilled_peak));
  }
  const double load_p50 = Percentile(load_ms, 0.5);
  const double step_p50 = Percentile(step_ms, 0.5);
  const double out_tok = std::max<double>(1.0, win.out_tokens);
  auto& L = win.layer;
  L["core.restore.wall_ms"] = load_p50;
  L["core.restore.mb_per_s"] = param_mb / (load_p50 / 1e3);
  L["core.restore.sim_ms"] = Percentile(restore_sim, 0.5);
  L["tee.npu.jobs_per_req"] = (npu1.jobs - npu0.jobs) / n;
  L["tee.npu.switch_us_per_job"] =
      npu1.jobs > npu0.jobs
          ? (npu1.switch_ns - npu0.switch_ns) / 1e3 / (npu1.jobs - npu0.jobs)
          : 0.0;
  L["tee.npu.fallback_jobs"] = static_cast<double>(npu1.fallback -
                                                   npu0.fallback);
  L["llm.prefill.ms_per_tok"] = Percentile(prefill_per_tok, 0.5);
  L["llm.decode.ms_per_step"] = step_p50;
  L["llm.decode.batch.mean"] = 1.0;
  L["llm.decode.batch_rem_frac"] = 1.0;
  L["llm.decode.weight_gb_per_s"] =
      DecodeWeightBytes(s->runtime->spec()) / 1e9 / (step_p50 / 1e3);
  L["llm.kv.spills_per_tok"] = spills / out_tok;
  L["llm.kv.restores_per_tok"] = restores / out_tok;
  L["llm.kv.cow_per_req"] = cow / n;
  L["llm.kv.spilled_mb.peak"] = spill_peak / kMiB;
  L["llm.kv.resident_mb.peak"] = res_peak / kMiB;
  L["llm.kv.prefix_hit_frac"] = lookups > 0 ? hits / lookups : 0.0;
  L["llm.kv.adopted_tok_frac"] = prompt_tok > 0 ? adopted / prompt_tok : 0.0;
  L["serve.tick_ms.p50"] = 0.0;
  L["serve.queue_depth.mean"] = 0.0;
  L["serve.ticks_per_req"] = 0.0;
  // Share of each request's wall time spent in the benchmark itself rather
  // than inside a call into the system.
  const std::vector<Span>& spans = rec->spans();
  const std::vector<int64_t> self = SelfTimes(spans);
  double req_total = 0, req_self = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == "request") {
      req_total += spans[i].end - spans[i].start;
      req_self += self[i];
    }
  }
  L["bench.self_frac"] = req_total > 0 ? req_self / req_total : 0.0;
  return win;
}

// --- chat and shared_prefix_spill. -----------------------------------------

struct TickRecord {
  double t0 = 0.0;  // Runtime clock, seconds.
  double t1 = 0.0;
  int queued = 0;   // Requests waiting for admission before the tick.
  uint64_t decode_tokens = 0;  // Cumulative ServeStats counters after it.
  double decode_time_s = 0.0;
  tzllm::KvPageStats kv;
  KvArena::PrefixStats prefix;
  uint64_t resident_bytes = 0;
  uint64_t spilled_bytes = 0;
};

Window RunServingWindow(Stack* s, const Workload& w, PromptGen* gen,
                        const std::string& system_prompt, double seconds,
                        SpanRecorder* rec) {
  Window win;
  LlmTa* ta = s->ta.get();
  SystemRuntime& rt = *s->runtime;
  const int n_layers = rt.spec().config().n_layers;
  ServingRuntime serve(ta, &s->platform->sim());
  // The runtime timestamps results on its own clock, zeroed at construction;
  // this origin maps the benchmark's clock onto it.
  const int64_t origin = WallNs();
  auto rt_now = [origin] { return (WallNs() - origin) / 1e9; };

  std::map<uint64_t, Request> reqs;  // By serving request id.
  auto submit = [&] {
    Request r = NextRequest(w, gen, system_prompt);
    ServeRequest sr;
    sr.prompt = r.prompt;
    sr.max_new_tokens = r.max_new;
    const int64_t t0 = WallNs();
    auto id = serve.Enqueue(sr);
    CheckOk(id.status(), "Enqueue");
    r.id = *id;
    rec->Add("serve.Enqueue", t0, WallNs(), -1, r.id);
    reqs.emplace(r.id, std::move(r));
  };

  // The window opens once every client has started and the first admission
  // wave has retired (as many completions as there are session slots,
  // capped by the client count), so the arrival burst is never timed.
  const int warm_completions = std::min(w.clients, w.options.max_sessions);
  double open = -1.0;
  double close = -1.0;
  double last_in_window = -1.0;
  size_t seen = 0;
  std::vector<TickRecord> ticks;
  int started = 0;  // Clients that have sent their first request.
  for (int tick = 0;; ++tick) {
    for (; started < w.clients && tick >= started * w.ramp_ticks; ++started) {
      submit();
    }
    TickRecord tr;
    if (rec->enabled()) {
      const int64_t s0 = WallNs();
      tr.queued = serve.pending() - ta->open_sessions();
      rec->Charge(WallNs() - s0);
    }
    RotateCpu();
    const int64_t t0 = WallNs();
    tr.t0 = rt_now();
    auto more = serve.Tick();
    CheckOk(more.status(), "Tick");
    const int64_t t1 = WallNs();
    tr.t1 = rt_now();
    rec->Add("serve.Tick", t0, t1, -1, 0);
    NoteSecure(rt, &win);
    if (!KvAccountingHolds(*ta, n_layers)) {
      ++win.kv_mismatches;
    }
    if (rec->enabled()) {
      const int64_t s0 = WallNs();
      tr.decode_tokens = serve.stats().decode_tokens;
      tr.decode_time_s = serve.stats().decode_time_s;
      const auto* pool = ta->kv_arena()->pool();
      tr.kv = pool->stats();
      tr.prefix = ta->kv_arena()->prefix_stats();
      tr.resident_bytes = pool->ResidentBytes();
      tr.spilled_bytes = pool->SpilledBytes();
      ticks.push_back(tr);
      rec->Charge(WallNs() - s0);
    }
    const auto& results = serve.results();
    for (; seen < results.size(); ++seen) {
      const ServeRequestResult& res = results[seen];
      Request& r = reqs.at(res.request_id);
      r.output = res.generation.output_tokens;
      r.ok = res.status.ok() && !r.output.empty() &&
             static_cast<int>(r.output.size()) <= r.max_new;
      if (open < 0 && started == w.clients &&
          static_cast<int>(seen) + 1 >= warm_completions) {
        open = tr.t1;
        close = open + seconds;
      }
      if (close < 0 || tr.t1 < close) {
        submit();  // Closed loop: the client sends its next request.
      }
    }
    if (close >= 0 && tr.t1 <= close) {
      last_in_window = tr.t1;
    }
    if (close >= 0 && tr.t1 >= close && serve.pending() == 0) {
      break;
    }
  }
  // The window ends with the last tick that finished inside it, so the
  // throughput denominator is a measured time, not the requested one.
  close = last_in_window;
  win.seconds = close - open;
  if (win.seconds <= 0) {
    Die("--seconds is shorter than one scheduler tick");
  }

  // Samples: TTFT of requests sent inside the window; inter-token gaps and
  // output tokens whose emission falls inside it (first-wave requests still
  // decoding count from the moment the window opens). The first token is
  // sampled when the prefill completes and each decode step samples the
  // next, so a request with n output tokens has them at first_token_s and
  // at the ends of its first n - 1 decode steps; the last step's sample
  // exceeds the budget and is dropped.
  auto in_window = [&](double t) { return t > open && t <= close; };
  std::vector<Request*> done;
  double prompt_tokens_in = 0;
  uint64_t completed_in = 0;
  for (const ServeRequestResult& res : serve.results()) {
    Request& r = reqs.at(res.request_id);
    done.push_back(&r);
    if (res.submit_s >= open && res.submit_s < close) {
      win.ttft_ms.push_back((res.first_token_s - res.submit_s) * 1e3);
    }
    std::vector<double> emit = {res.first_token_s};
    emit.insert(emit.end(), res.token_s.begin(),
                res.token_s.end() - (res.token_s.empty() ? 0 : 1));
    for (size_t i = 0; i < emit.size(); ++i) {
      if (!in_window(emit[i])) {
        continue;
      }
      ++win.out_tokens;
      if (i > 0) {
        win.itl_ms.push_back((emit[i] - emit[i - 1]) * 1e3);
      }
    }
    if (in_window(res.first_token_s)) {
      prompt_tokens_in += res.generation.prompt_tokens.size();
    }
    if (in_window(res.finish_s)) {
      ++completed_in;
    }
  }
  SoloCheck(ta, done, &gen->rng(), &win);
  for (const auto& [id, r] : reqs) {
    CountOutcome(r, &win);
  }

  if (!rec->enabled()) {
    return win;
  }
  // Per-layer metrics over the ticks that ran inside the window, as deltas
  // of the counters sampled at each tick boundary.
  const TickRecord* before = nullptr;
  const TickRecord* last = nullptr;
  std::vector<double> tick_ms, batch;
  double queued_sum = 0, non_decode_s = 0, decode_s = 0;
  double res_peak = 0, spill_peak = 0;
  int rem_steps = 0;
  for (size_t i = 0; i < ticks.size(); ++i) {
    if (i == 0 || !(ticks[i].t0 >= open && ticks[i].t1 <= close)) {
      continue;
    }
    const TickRecord& prev = ticks[i - 1];
    if (before == nullptr) {
      before = &prev;
    }
    last = &ticks[i];
    const TickRecord& t = ticks[i];
    tick_ms.push_back((t.t1 - t.t0) * 1e3);
    queued_sum += t.queued;
    const double step_s = t.decode_time_s - prev.decode_time_s;
    decode_s += step_s;
    non_decode_s += (t.t1 - t.t0) - step_s;
    const uint64_t b = t.decode_tokens - prev.decode_tokens;
    if (b > 0) {
      batch.push_back(static_cast<double>(b));
      rem_steps += (b % 4 != 0) ? 1 : 0;
    }
    res_peak = std::max(res_peak, static_cast<double>(t.resident_bytes));
    spill_peak = std::max(spill_peak, static_cast<double>(t.spilled_bytes));
  }
  if (before == nullptr) {
    Die("no scheduler tick ran inside the timed window");
  }
  const double n_ticks = static_cast<double>(tick_ms.size());
  const double steps = std::max<double>(1.0, batch.size());
  double batch_sum = 0;
  for (double b : batch) {
    batch_sum += b;
  }
  const double out_tok = std::max<double>(1.0, win.out_tokens);
  const double reqs_done = std::max<double>(1.0, completed_in);
  const double lookups =
      static_cast<double>(last->prefix.lookups - before->prefix.lookups);
  const double adopted = static_cast<double>(
      last->prefix.adopted_positions - before->prefix.adopted_positions);
  const double ms_per_step = decode_s * 1e3 / steps;
  auto& L = win.layer;
  // Restore ran once, in setup; its numbers describe that load.
  L["core.restore.sim_ms"] = ta->restore_result().makespan / 1e6;
  L["tee.npu.jobs_per_req"] = 0.0;
  L["tee.npu.switch_us_per_job"] = 0.0;
  L["tee.npu.fallback_jobs"] = 0.0;
  // Tick time outside the decode step (admission, the prefill quantum,
  // retirement) per prompt position actually computed (adopted prefix
  // positions are not computed).
  L["llm.prefill.ms_per_tok"] =
      non_decode_s * 1e3 / std::max(1.0, prompt_tokens_in - adopted);
  L["llm.decode.ms_per_step"] = ms_per_step;
  L["llm.decode.batch.mean"] = batch_sum / steps;
  L["llm.decode.batch_rem_frac"] = rem_steps / steps;
  L["llm.decode.weight_gb_per_s"] =
      DecodeWeightBytes(rt.spec()) / 1e9 / (ms_per_step / 1e3);
  L["llm.kv.spills_per_tok"] =
      (last->kv.spills - before->kv.spills) / out_tok;
  L["llm.kv.restores_per_tok"] =
      (last->kv.restores - before->kv.restores) / out_tok;
  L["llm.kv.cow_per_req"] =
      (last->kv.cow_copies - before->kv.cow_copies) / reqs_done;
  L["llm.kv.spilled_mb.peak"] = spill_peak / kMiB;
  L["llm.kv.resident_mb.peak"] = res_peak / kMiB;
  L["llm.kv.prefix_hit_frac"] =
      lookups > 0 ? (last->prefix.hits - before->prefix.hits) / lookups : 0.0;
  L["llm.kv.adopted_tok_frac"] =
      prompt_tokens_in > 0 ? adopted / prompt_tokens_in : 0.0;
  L["serve.tick_ms.p50"] = Percentile(tick_ms, 0.5);
  L["serve.queue_depth.mean"] = queued_sum / std::max(1.0, n_ticks);
  L["serve.ticks_per_req"] = n_ticks / reqs_done;
  // Share of the window the benchmark spent outside Tick/Enqueue calls.
  double covered_ns = 0;
  const int64_t open_ns = origin + static_cast<int64_t>(open * 1e9);
  const int64_t close_ns = origin + static_cast<int64_t>(close * 1e9);
  for (const Span& sp : rec->spans()) {
    const int64_t a = std::max(sp.start, open_ns);
    const int64_t b = std::min(sp.end, close_ns);
    if (b > a) {
      covered_ns += static_cast<double>(b - a);
    }
  }
  L["bench.self_frac"] = 1.0 - covered_ns / ((close - open) * 1e9);
  return win;
}

// --- Setup. -----------------------------------------------------------------

// Builds the platform, provisions the encrypted model on flash and creates
// the TA. Warm workloads also load the model and run one short generation:
// the first prefill after LoadModel copies every tensor into the secure
// weight cache, which is set-up work, not request latency. cold_start runs
// one full untimed cycle instead, so process-level first-touch costs stay
// out of every timed request while each timed request still restores from
// flash.
// Returns the wall time of the warm workloads' LoadModel in ms (0 for
// cold_start, whose loads are timed per request).
double BuildStack(const Workload& w, PromptGen* gen,
                  const std::string& system_prompt, Stack* s,
                  Window* scratch_window) {
  RuntimeConfig config;
  config.model = BenchMediumModel();
  config.system = tzllm::SystemKind::kTzLlm;
  config.materialize_model = true;
  config.engine = w.options;
  s->platform = std::make_unique<SocPlatform>();
  s->runtime = std::make_unique<SystemRuntime>(s->platform.get(), config);
  CheckOk(s->runtime->Setup(), "SystemRuntime::Setup");
  auto ta = s->runtime->CreateFunctionalTa();
  CheckOk(ta.status(), "CreateFunctionalTa");
  s->ta = std::move(*ta);
  if (!w.serving) {
    SpanRecorder off(false);
    Request warm = NextRequest(w, gen, "");
    RunColdCycle(s, &warm, &off, scratch_window);
    return 0.0;
  }
  const int64_t t0 = WallNs();
  CheckOk(s->ta->LoadModel(s->runtime->spec().config().name), "LoadModel");
  const double load_ms = (WallNs() - t0) / 1e6;
  // With a shared system prompt the warm generation also registers it as a
  // prefix, as a server that has served that prompt before would hold it.
  auto warm = s->ta->Generate(system_prompt + gen->Text(32), 2);
  CheckOk(warm.status(), "warm-up generation");
  return load_ms;
}

// Throughput of the public crypto primitives the restore pipeline and the
// KV spill path run, on a model-sized and on a KV-page-sized buffer: median
// of three timed passes, each at least 50 ms long.
void MeasureCrypto(const ModelSpec& spec, std::map<std::string, double>* L) {
  const size_t model_bytes = spec.total_param_bytes();
  const size_t page_bytes = tzllm::KvPagePool::PageBytes(
      spec, tzllm::KvStorage::kF16, EngineOptions().kv_page_positions);
  std::vector<uint8_t> buf(model_bytes);
  for (size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<uint8_t>(i * 131u + 7u);
  }
  tzllm::AesKey128 key{};
  tzllm::AesBlock iv{};
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(i + 1);
  }
  const tzllm::AesCtr aes(key, iv);
  volatile uint8_t sink = 0;  // Keeps every digest observable.
  auto mib_per_s = [&](size_t bytes, auto&& op) {
    std::vector<double> rates;
    for (int pass = 0; pass < 3; ++pass) {
      const int64_t t0 = WallNs();
      size_t done = 0;
      do {
        op(bytes);
        done += bytes;
      } while (WallNs() - t0 < 50'000'000);
      rates.push_back(done / kMiB / SecondsSince(t0));
    }
    return Percentile(rates, 0.5);
  };
  auto crypt = [&](size_t n) { aes.Crypt(0, buf.data(), n); };
  auto hash = [&](size_t n) {
    sink = sink ^ tzllm::Sha256::Hash(buf.data(), n)[0];
  };
  (*L)["crypto.aes_ctr.mb_per_s"] = mib_per_s(model_bytes, crypt);
  (*L)["crypto.aes_ctr.page_mb_per_s"] = mib_per_s(page_bytes, crypt);
  (*L)["crypto.sha256.mb_per_s"] = mib_per_s(model_bytes, hash);
  (*L)["crypto.sha256.page_mb_per_s"] = mib_per_s(page_bytes, hash);
}

// --- Output. ----------------------------------------------------------------

std::string Num(double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// Unit of each per-layer metric, by name suffix.
std::string LayerUnit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const size_t n = strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("mb_per_s")) return "MiB/s";
  if (ends("gb_per_s")) return "GB/s";
  if (ends("_mb.peak")) return "MiB";
  if (ends("_us_per_job")) return "us";
  if (ends("_ms") || ends("ms_per_tok") || ends("ms_per_step") ||
      ends("tick_ms.p50")) {
    return "ms";
  }
  if (ends("_frac")) return "frac";
  if (ends("_pct")) return "%";
  return "count";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetrics(const std::vector<Metric>& metrics, bool correct,
                  uint64_t attempted, uint64_t failed) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           Num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  printf("%s\n", out.c_str());
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string git_sha = "unknown";
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      Die("missing value for " + k);
    }
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--git-sha") {
      a.git_sha = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      Die("unknown argument " + k);
    }
  }
  if (a.seconds <= 0) {
    Die("--seconds must be positive");
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const ModelSpec spec = ModelSpec::Create(BenchMediumModel());
  Workload w;
  if (!MakeWorkload(args.workload, spec, &w)) {
    Die("unknown workload '" + args.workload +
        "' (cold_start, chat, shared_prefix_spill)");
  }
  PromptGen gen(args.seed, spec.config().vocab_size);
  const std::string system_prompt =
      w.shared_tokens > 0 ? gen.Text(w.shared_tokens) : "";

  // Set up kSetupRepeats times; keep the last stack and report the median.
  std::vector<double> setup_s;
  std::vector<double> setup_load_ms;
  Stack stack;
  Window setup_window;
  for (int i = 0; i < kSetupRepeats; ++i) {
    RotateCpu();
    stack = Stack();
    const int64_t t0 = WallNs();
    setup_load_ms.push_back(BuildStack(w, &gen, system_prompt, &stack,
                                       &setup_window));
    setup_s.push_back(SecondsSince(t0));
  }

  SpanRecorder rec(args.trace);
  Window win = w.serving ? RunServingWindow(&stack, w, &gen, system_prompt,
                                            args.seconds, &rec)
                         : RunColdWindow(&stack, w, &gen, args.seconds, &rec);
  const std::string nesting = CheckNesting(rec.spans());
  if (!args.trace_out.empty() && args.trace &&
      !WriteChromeTrace(rec.spans(), args.trace_out)) {
    Die("cannot write " + args.trace_out);
  }

  const bool correct = win.failed == 0 && win.kv_mismatches == 0 &&
                       win.solo_mismatches == 0 && nesting.empty();
  // A KV accounting mismatch is not tied to one request; it still counts
  // against ok_frac.
  const uint64_t bad = std::min(win.attempted, win.failed + win.kv_mismatches);
  const double ok_frac =
      win.attempted > 0
          ? static_cast<double>(win.attempted - bad) / win.attempted
          : 0.0;

  // Detail line: provenance, request counts, sample counts and supported
  // tails.
  std::string detail = "{\"provenance\": {";
  detail += "\"git_sha\": \"" + args.git_sha + "\"";
  detail += ", \"build_type\": \"" + std::string(TZBENCH_BUILD_TYPE) + "\"";
  detail += ", \"compiler\": \"" + Compiler() + "\"";
  detail += ", \"simd_isa\": \"" +
            std::string(tzllm::SimdIsaName(tzllm::ActiveKernels()->isa)) +
            "\"";
  detail += ", \"hardware_concurrency\": " +
            std::to_string(std::thread::hardware_concurrency());
  detail += ", \"resolved_threads\": " +
            std::to_string(tzllm::ResolvedThreads(w.options));
  detail += ", \"model\": {\"name\": \"" + spec.config().name +
            "\", \"n_layers\": " + std::to_string(spec.config().n_layers) +
            ", \"d_model\": " + std::to_string(spec.config().d_model) +
            ", \"d_ff\": " + std::to_string(spec.config().d_ff) +
            ", \"vocab\": " + std::to_string(spec.config().vocab_size) +
            ", \"max_ctx\": " + std::to_string(spec.config().max_ctx) +
            ", \"param_bytes\": " + std::to_string(spec.total_param_bytes()) +
            "}";
  detail += ", \"seed\": " + std::to_string(args.seed) + "}";
  detail += ", \"workload\": \"" + w.name + "\"";
  detail += ", \"clients\": " + std::to_string(w.clients);
  detail += ", \"requests\": {\"sent\": " + std::to_string(win.attempted) +
            ", \"succeeded\": " + std::to_string(win.attempted - win.failed) +
            ", \"failed\": " + std::to_string(win.failed) + "}";
  detail += ", \"solo_checked\": " + std::to_string(win.solo_checked);
  detail += ", \"solo_mismatches\": " + std::to_string(win.solo_mismatches);
  detail += ", \"kv_accounting_mismatches\": " +
            std::to_string(win.kv_mismatches);
  detail += ", \"window_s\": " + Num(win.seconds);
  detail += ", \"samples\": {\"ttft\": " +
            std::to_string(win.ttft_ms.size()) +
            ", \"itl\": " + std::to_string(win.itl_ms.size()) + "}";
  // A tail percentile is null when fewer than ten samples lie beyond it.
  auto tail = [](const std::vector<double>& v, double q) {
    return TailSupported(v.size(), q) ? Num(Percentile(v, q))
                                      : std::string("null");
  };
  detail += ", \"latency\": {\"itl_ms.p50\": " +
            Num(Percentile(win.itl_ms, 0.5)) +
            ", \"ttft_ms.p90\": " + tail(win.ttft_ms, 0.90) +
            ", \"itl_ms.p90\": " + tail(win.itl_ms, 0.90) +
            ", \"itl_ms.p99\": " + tail(win.itl_ms, 0.99) + "}";
  detail += ", \"setup_s_each\": [";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    detail += (i ? ", " : "") + Num(setup_s[i]);
  }
  detail += "]";
  if (args.trace) {
    detail += ", \"trace\": {\"spans\": " +
              std::to_string(rec.spans().size()) + ", \"nesting\": \"" +
              (nesting.empty() ? std::string("ok") : nesting) +
              "\", \"self_ms\": {";
    bool first = true;
    for (const auto& [name, ns] : SelfTimeByName(rec.spans())) {
      detail += (first ? "\"" : ", \"") + name + "\": " + Num(ns / 1e6);
      first = false;
    }
    detail += "}}";
    detail += ", \"notes\": \"llm.decode.weight_gb_per_s counts weight bytes "
              "computed from tensor sizes; tee.npu.* and core.restore.sim_ms "
              "are on the simulator clock; self_ms of sim spans is simulated "
              "time\"";
  }
  detail += "}";
  printf("%s\n", detail.c_str());

  if (!correct) {
    fprintf(stderr, "tzbench: correctness check failed (%s)\n",
            nesting.empty() ? "see the detail line" : nesting.c_str());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Percentile(setup_s, 0.5), "s"},
        {"ttft_ms.p50", Percentile(win.ttft_ms, 0.5), "ms"},
        {"out_tok_per_s", win.out_tokens / win.seconds, "1/s"},
        {"ok_frac", ok_frac, "frac"},
        {"secure_mem_mb", win.peak_secure_bytes / kMiB, "MiB"},
    };
  } else {
    // Warm workloads restore once per setup; their restore wall time is the
    // median of the setup loads.
    if (w.serving) {
      const double load_ms = Percentile(setup_load_ms, 0.5);
      win.layer["core.restore.wall_ms"] = load_ms;
      win.layer["core.restore.mb_per_s"] =
          spec.total_param_bytes() / kMiB / (load_ms / 1e3);
    }
    // The traced run's own bookkeeping (span records, counter samples) as a
    // share of the window it measured.
    win.layer["trace.overhead_pct"] =
        100.0 * rec.cost_ns() / (win.seconds * 1e9);
    MeasureCrypto(spec, &win.layer);
    for (const auto& [name, value] : win.layer) {
      metrics.push_back({name, value, LayerUnit(name)});
    }
  }
  PrintMetrics(metrics, correct, win.attempted, win.failed);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace tzbench

int main(int argc, char** argv) { return tzbench::Main(argc, argv); }
