// Batched multi-session decode parity (ISSUE 8): DecodeSessions advances K
// concurrent sessions with one MatMatQ8 per layer across all of them, and
// the result must be BIT-IDENTICAL per session to running each prompt alone
// on an otherwise identical engine. That identity is what lets the serving
// runtime batch sessions freely: batching is a throughput decision, never a
// quality decision. Covered across the kernel matrix (threads 1/auto x SIMD
// auto/forced-scalar), across decode_batch groupings, across the caller's
// session order, and under paged KV: frame-capped groups over a shared
// prefix, and the per-step frame prediction checked against pools sized to
// exactly that prediction.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/core/runtime.h"
#include "src/llm/executor.h"
#include "src/llm/kv_cache.h"
#include "src/llm/tzguf.h"

namespace tzllm {
namespace {

constexpr int kBudget = 12;

const std::vector<std::string>& Prompts() {
  static const std::vector<std::string> prompts = {
      "first concurrent session prompt",
      "a rather different second prompt for the batch",
      "third prompt",
  };
  return prompts;
}

RuntimeConfig Config(int max_sessions, int n_threads, bool force_scalar) {
  RuntimeConfig config;
  config.model = TestSmallModel();
  config.system = SystemKind::kTzLlm;
  config.materialize_model = true;
  config.engine.prefill_batch = 8;
  config.engine.max_sessions = max_sessions;
  config.engine.n_threads = n_threads;
  config.engine.force_scalar = force_scalar;
  return config;
}

// Each prompt generated alone on a single-session engine built from
// `config` — the bit-identity reference.
std::vector<GenerationResult> SoloRuns(RuntimeConfig config,
                                       const std::vector<std::string>& prompts) {
  config.engine.max_sessions = 1;
  SocPlatform plat;
  SystemRuntime runtime(&plat, config);
  EXPECT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  EXPECT_TRUE(ta.ok());
  EXPECT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());
  std::vector<GenerationResult> out;
  for (const std::string& prompt : prompts) {
    auto result = (*ta)->Generate(prompt, kBudget);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    out.push_back(result.ok() ? *result : GenerationResult{});
  }
  return out;
}

// `prompts` live on one TA, advanced in lockstep through DecodeSessions;
// `reversed` lists the running sessions to it in reverse order. A non-empty
// `warm_prompt` is generated first, so its pages are a registered prefix.
std::vector<GenerationResult> ConcurrentRun(
    const RuntimeConfig& config, const std::vector<std::string>& prompts,
    bool reversed, LlmTa::DecodeStats* decode_stats,
    const std::string& warm_prompt = "") {
  SocPlatform plat;
  SystemRuntime runtime(&plat, config);
  EXPECT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  EXPECT_TRUE(ta.ok());
  EXPECT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());
  if (!warm_prompt.empty()) {
    // Registers the prompt's pages as a shareable prefix.
    EXPECT_TRUE((*ta)->Generate(warm_prompt, 1).ok());
  }

  std::vector<SessionId> sids;
  for (const std::string& prompt : prompts) {
    auto sid = (*ta)->BeginSession(prompt, kBudget);
    EXPECT_TRUE(sid.ok()) << sid.status().ToString();
    sids.push_back(sid.ok() ? *sid : 0);
  }

  // Sessions finish at different times (EOS); keep batching the live ones.
  for (;;) {
    std::vector<SessionId> running;
    for (SessionId sid : sids) {
      if (!(*ta)->session_done(sid)) {
        running.push_back(sid);
      }
    }
    if (running.empty()) {
      break;
    }
    if (reversed) {
      std::reverse(running.begin(), running.end());
    }
    Status step = (*ta)->DecodeSessions(running);
    EXPECT_TRUE(step.ok()) << step.ToString();
    if (!step.ok()) {
      break;
    }
  }

  if (decode_stats != nullptr) {
    *decode_stats = (*ta)->decode_stats();
  }
  std::vector<GenerationResult> out;
  for (SessionId sid : sids) {
    auto result = (*ta)->FinishSession(sid);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    out.push_back(result.ok() ? *result : GenerationResult{});
  }
  return out;
}

// Prompts() on one TA over the flat KV arena.
std::vector<GenerationResult> ConcurrentRun(int n_threads, bool force_scalar,
                                            int decode_batch) {
  RuntimeConfig config =
      Config(static_cast<int>(Prompts().size()), n_threads, force_scalar);
  config.engine.decode_batch = decode_batch;
  return ConcurrentRun(config, Prompts(), /*reversed=*/false, nullptr);
}

void ExpectIdentical(const std::vector<GenerationResult>& solo,
                     const std::vector<GenerationResult>& batched) {
  ASSERT_EQ(solo.size(), batched.size());
  for (size_t i = 0; i < solo.size(); ++i) {
    ASSERT_GT(solo[i].output_tokens.size(), 0u) << "prompt " << i;
    EXPECT_EQ(batched[i].output_tokens, solo[i].output_tokens)
        << "prompt " << i << " diverged under batched decode";
    EXPECT_EQ(batched[i].text, solo[i].text) << "prompt " << i;
  }
}

class BatchedDecodeParityTest
    : public ::testing::TestWithParam<std::pair<int, bool>> {};

TEST_P(BatchedDecodeParityTest, ConcurrentSessionsMatchSoloBitIdentically) {
  const auto [n_threads, force_scalar] = GetParam();
  const auto solo = SoloRuns(Config(1, n_threads, force_scalar), Prompts());
  const auto batched = ConcurrentRun(n_threads, force_scalar,
                                     /*decode_batch=*/0);
  ExpectIdentical(solo, batched);
}

INSTANTIATE_TEST_SUITE_P(
    KernelMatrix, BatchedDecodeParityTest,
    ::testing::Values(std::make_pair(1, false), std::make_pair(0, false),
                      std::make_pair(1, true), std::make_pair(0, true)),
    [](const ::testing::TestParamInfo<std::pair<int, bool>>& info) {
      return std::string("threads") +
             (info.param.first == 0 ? "auto"
                                    : std::to_string(info.param.first)) +
             (info.param.second ? "_scalar" : "_simd");
    });

TEST(BatchedDecodeTest, DecodeBatchGroupingDoesNotChangeTokens) {
  // decode_batch splits one step into groups of that size; the grouping is
  // a scheduling knob and must not perturb a single token.
  const auto all_at_once = ConcurrentRun(1, false, /*decode_batch=*/0);
  const auto grouped = ConcurrentRun(1, false, /*decode_batch=*/2);
  ExpectIdentical(all_at_once, grouped);
}

TEST(BatchedDecodeTest, DecodeSessionsRejectsMisuse) {
  SocPlatform plat;
  SystemRuntime runtime(&plat, Config(2, 1, false));
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());

  auto sid = (*ta)->BeginSession(Prompts()[0], kBudget);
  ASSERT_TRUE(sid.ok());

  // A session may appear at most once per batch.
  EXPECT_EQ((*ta)->DecodeSessions({*sid, *sid}).code(),
            ErrorCode::kInvalidArgument);
  // Unknown handles fail closed.
  EXPECT_EQ((*ta)->DecodeSessions({*sid, SessionId{999}}).code(),
            ErrorCode::kFailedPrecondition);
  // An admitted-but-unprefilled session cannot decode yet.
  auto admitted = (*ta)->AdmitSession(Prompts()[1], kBudget);
  ASSERT_TRUE(admitted.ok());
  EXPECT_EQ((*ta)->DecodeSessions({*admitted}).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_TRUE((*ta)->AbandonSession(*admitted).ok());
  EXPECT_TRUE((*ta)->AbandonSession(*sid).ok());
}

TEST(BatchedDecodeTest, ArenaExhaustionIsResourceExhausted) {
  SocPlatform plat;
  SystemRuntime runtime(&plat, Config(2, 1, false));
  ASSERT_TRUE(runtime.Setup().ok());
  auto ta = runtime.CreateFunctionalTa();
  ASSERT_TRUE(ta.ok());
  ASSERT_TRUE((*ta)->LoadModel(runtime.spec().config().name).ok());

  auto a = (*ta)->BeginSession(Prompts()[0], kBudget);
  ASSERT_TRUE(a.ok());
  auto b = (*ta)->BeginSession(Prompts()[1], kBudget);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*ta)->free_session_slots(), 0);
  // With max_sessions > 1 a full arena is kResourceExhausted (the legacy
  // "already active" FailedPrecondition is reserved for max_sessions == 1).
  EXPECT_EQ((*ta)->BeginSession(Prompts()[2], kBudget).status().code(),
            ErrorCode::kResourceExhausted);
  // Finishing one session frees its slot for the next admission.
  ASSERT_TRUE((*ta)->FinishSession(*a).ok());
  EXPECT_EQ((*ta)->free_session_slots(), 1);
  auto c = (*ta)->BeginSession(Prompts()[2], kBudget);
  EXPECT_TRUE(c.ok()) << c.status().ToString();
}

// --- Paged KV: frame-capped decode groups. ----------------------------------

constexpr int kPagePositions = 8;

// A short context keeps a session at a handful of pages, so a pool of a few
// frames over-subscribes three sessions while one always fits (LoadModel's
// floor is one full context: 64 / 8 = 8 frames).
RuntimeConfig PagedConfig(int frames) {
  RuntimeConfig config = Config(3, 1, false);
  config.model.max_ctx = 64;
  config.engine.paged_kv = true;
  config.engine.kv_page_positions = kPagePositions;
  const ModelSpec spec = ModelSpec::Create(config.model);
  config.engine.kv_pool_bytes =
      frames * KvPagePool::PageBytes(spec, KvStorage::kF16, kPagePositions);
  return config;
}

TEST(PagedBatchedDecodeTest, SharedPrefixSessionsShareForwardsUnderPressure) {
  // Three sessions adopt one registered 25-token preamble (three shared
  // pages) and add 5-8 private prompt tokens and 12 outputs each. Their
  // pages plus the registry's outgrow the 10-frame pool, so pages spill
  // every few steps. Charging each session its whole page table plus two
  // would fit one session per forward; counting the shared pages once fits
  // two or three.
  const std::string preamble = "system: shared serving preamble text. ";
  const std::vector<std::string> prompts = {
      preamble + "alpha request", preamble + "beta query",
      preamble + "gamma ask"};
  const RuntimeConfig config = PagedConfig(/*frames=*/10);
  RuntimeConfig flat = config;
  flat.engine.paged_kv = false;
  flat.engine.kv_pool_bytes = 0;
  const auto solo = SoloRuns(flat, prompts);

  LlmTa::DecodeStats stats;
  const auto paged = ConcurrentRun(config, prompts, /*reversed=*/false,
                                   &stats, /*warm_prompt=*/preamble);
  ExpectIdentical(solo, paged);
  ASSERT_GT(stats.forwards, 0u);
  EXPECT_GT(static_cast<double>(stats.rows) / stats.forwards, 1.0)
      << stats.rows << " rows in " << stats.forwards << " forwards";
}

TEST(PagedBatchedDecodeTest, PermutedOrderUnderPressureKeepsTokens) {
  // DecodeSessions reorders (resident first) and regroups (frame-capped)
  // the sessions it is given; the caller's order must not reach a token.
  const RuntimeConfig config = PagedConfig(/*frames=*/8);
  RuntimeConfig flat = config;
  flat.engine.paged_kv = false;
  flat.engine.kv_pool_bytes = 0;
  const auto solo = SoloRuns(flat, Prompts());
  ExpectIdentical(solo, ConcurrentRun(config, Prompts(), false, nullptr));
  ExpectIdentical(solo, ConcurrentRun(config, Prompts(), true, nullptr));
}

// One decode step over caches of one pool, as DecodeSessions packs a group:
// the frames it predicts (distinct pages plus StepFramesNeeded each) must
// cover what the step really pins, and a pool of exactly that many frames
// must run it.
class ExactPoolTest : public ::testing::Test {
 protected:
  ExactPoolTest()
      : spec_(ModelSpec::Create(TestTinyModel())),
        weights_(Tzguf::ReferenceWeights(spec_, 16)),
        source_(weights_),
        executor_(&spec_, &source_) {}

  KvPagePoolOptions PoolOpts(int frames) const {
    KvPagePoolOptions o;
    o.page_positions = kPagePositions;
    o.pool_bytes = frames * KvPagePool::PageBytes(spec_, KvStorage::kF16,
                                                  kPagePositions);
    return o;
  }

  static std::vector<TokenId> Tokens(int n) {
    std::vector<TokenId> out(n);
    for (int i = 0; i < n; ++i) {
      out[i] = 3 + (i * 5) % 200;
    }
    return out;
  }

  static int PredictedFrames(const std::vector<KvCache*>& caches) {
    std::set<KvPageId> pages;
    int headroom = 0;
    for (const KvCache* c : caches) {
      pages.insert(c->pages().begin(), c->pages().end());
      headroom += c->StepFramesNeeded();
    }
    return static_cast<int>(pages.size()) + headroom;
  }

  // Logits of `prompt` followed by one decode of `token` on a flat cache.
  std::vector<float> FlatDecode(const std::vector<TokenId>& prompt,
                                TokenId token) {
    KvCache flat(spec_);
    EXPECT_TRUE(executor_.Prefill(prompt, &flat).ok());
    auto logits = executor_.DecodeStep(token, &flat);
    EXPECT_TRUE(logits.ok()) << logits.status().ToString();
    return logits.ok() ? *logits : std::vector<float>{};
  }

  ModelSpec spec_;
  std::vector<Tensor> weights_;
  HostWeightSource source_;
  TransformerExecutor executor_;
};

TEST_F(ExactPoolTest, AppendOpeningAPageFitsItsPrediction) {
  // 16 positions fill two pages exactly; the next append opens a third.
  const std::vector<TokenId> prompt = Tokens(16);
  for (int frames : {3, 2}) {
    KvPagePool pool(spec_, KvStorage::kF16, PoolOpts(frames));
    KvCache kv(spec_, &pool, KvStorage::kF16, nullptr);
    ASSERT_TRUE(executor_.Prefill(prompt, &kv).ok());
    EXPECT_EQ(kv.StepFramesNeeded(), 1);
    ASSERT_EQ(PredictedFrames({&kv}), 3);
    std::vector<float> logits(spec_.config().vocab_size);
    TransformerExecutor::DecodeEntry entry{7, &kv, logits.data()};
    pool.ResetPinnedPeak();
    const Status st = executor_.DecodeStepBatch(&entry, 1);
    if (frames == 3) {
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(pool.pinned_peak(), 3);
      EXPECT_EQ(logits, FlatDecode(prompt, 7));
    } else {
      // One frame short of the prediction: the prediction is tight.
      EXPECT_EQ(st.code(), ErrorCode::kResourceExhausted) << st.ToString();
    }
  }
}

TEST_F(ExactPoolTest, TwoSessionsCopyingOneSharedTailFitTheirPrediction) {
  // 12 positions: page 1 is half full. Two caches adopt both pages while
  // the source keeps its reference, so each append copies the same shared
  // tail page and the group needs two frames beyond its two pages.
  const std::vector<TokenId> prompt = Tokens(12);
  for (int frames : {4, 3}) {
    KvPagePool pool(spec_, KvStorage::kF16, PoolOpts(frames));
    KvCache source(spec_, &pool, KvStorage::kF16, nullptr);
    ASSERT_TRUE(executor_.Prefill(prompt, &source).ok());
    KvCache a(spec_, &pool, KvStorage::kF16, nullptr);
    KvCache b(spec_, &pool, KvStorage::kF16, nullptr);
    ASSERT_TRUE(a.AdoptPrefix(source.pages().data(), 2, 12).ok());
    ASSERT_TRUE(b.AdoptPrefix(source.pages().data(), 2, 12).ok());
    EXPECT_EQ(a.StepFramesNeeded(), 1);
    EXPECT_EQ(b.StepFramesNeeded(), 1);
    ASSERT_EQ(PredictedFrames({&a, &b}), 4);
    std::vector<float> logits_a(spec_.config().vocab_size);
    std::vector<float> logits_b(spec_.config().vocab_size);
    TransformerExecutor::DecodeEntry entries[] = {{7, &a, logits_a.data()},
                                                  {9, &b, logits_b.data()}};
    const uint64_t cow_before = pool.stats().cow_copies;
    pool.ResetPinnedPeak();
    const Status st = executor_.DecodeStepBatch(entries, 2);
    if (frames == 4) {
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(pool.stats().cow_copies - cow_before, 2u);
      EXPECT_EQ(pool.pinned_peak(), 4);
      EXPECT_EQ(logits_a, FlatDecode(prompt, 7));
      EXPECT_EQ(logits_b, FlatDecode(prompt, 9));
    } else {
      EXPECT_EQ(st.code(), ErrorCode::kResourceExhausted) << st.ToString();
    }
  }
}

}  // namespace
}  // namespace tzllm
