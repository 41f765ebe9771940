#include "src/llm/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "src/llm/tzguf.h"

namespace tzllm {
namespace {

TEST(NumericsTest, RmsNormUnitGain) {
  const int n = 4;
  const float x[n] = {1.0f, -2.0f, 3.0f, -4.0f};
  const float gain[n] = {1.0f, 1.0f, 1.0f, 1.0f};
  float out[n];
  RmsNorm(x, gain, out, n);
  // RMS of out should be ~1.
  double sum = 0.0;
  for (float v : out) {
    sum += v * v;
  }
  EXPECT_NEAR(std::sqrt(sum / n), 1.0, 1e-4);
  // Sign preserved, ratios preserved.
  EXPECT_LT(out[1], 0.0f);
  EXPECT_NEAR(out[2] / out[0], 3.0f, 1e-4);
}

TEST(NumericsTest, SoftmaxSumsToOneAndOrders) {
  float x[3] = {1.0f, 3.0f, 2.0f};
  Softmax(x, 3);
  EXPECT_NEAR(x[0] + x[1] + x[2], 1.0f, 1e-5);
  EXPECT_GT(x[1], x[2]);
  EXPECT_GT(x[2], x[0]);
}

TEST(NumericsTest, SoftmaxNumericallyStable) {
  float x[2] = {1000.0f, 1001.0f};
  Softmax(x, 2);
  EXPECT_FALSE(std::isnan(x[0]));
  EXPECT_NEAR(x[0] + x[1], 1.0f, 1e-5);
}

TEST(NumericsTest, RopePreservesNormAndIsPositionDependent) {
  const int head_dim = 8;
  float a[head_dim], b[head_dim];
  for (int i = 0; i < head_dim; ++i) {
    a[i] = b[i] = static_cast<float>(i + 1);
  }
  ApplyRope(a, 1, head_dim, 3);
  ApplyRope(b, 1, head_dim, 4);
  double norm_a = 0.0, ref = 0.0;
  bool differs = false;
  for (int i = 0; i < head_dim; ++i) {
    norm_a += a[i] * a[i];
    ref += (i + 1.0) * (i + 1.0);
    differs |= std::fabs(a[i] - b[i]) > 1e-5;
  }
  EXPECT_NEAR(norm_a, ref, 1e-2);  // Rotation preserves norm.
  EXPECT_TRUE(differs);            // Position changes the rotation.
  // Position 0 is the identity.
  float c[head_dim];
  for (int i = 0; i < head_dim; ++i) {
    c[i] = static_cast<float>(i + 1);
  }
  ApplyRope(c, 1, head_dim, 0);
  for (int i = 0; i < head_dim; ++i) {
    EXPECT_NEAR(c[i], i + 1.0f, 1e-5);
  }
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest()
      : spec_(ModelSpec::Create(TestTinyModel())),
        weights_(Tzguf::ReferenceWeights(spec_, 77)),
        source_(weights_),
        executor_(&spec_, &source_),
        kv_(spec_) {}

  ModelSpec spec_;
  std::vector<Tensor> weights_;
  HostWeightSource source_;
  TransformerExecutor executor_;
  KvCache kv_;
};

TEST_F(ExecutorTest, PrefillProducesFiniteLogits) {
  auto logits = executor_.Prefill({10, 20, 30}, &kv_);
  ASSERT_TRUE(logits.ok());
  ASSERT_EQ(logits->size(),
            static_cast<size_t>(spec_.config().vocab_size));
  for (float v : *logits) {
    EXPECT_TRUE(std::isfinite(v));
  }
  EXPECT_EQ(kv_.seq_len(), 3);
}

TEST_F(ExecutorTest, DeterministicAcrossRuns) {
  auto a = executor_.Prefill({1, 2, 3, 4}, &kv_);
  ASSERT_TRUE(a.ok());
  KvCache kv2(spec_);
  TransformerExecutor exec2(&spec_, &source_);
  auto b = exec2.Prefill({1, 2, 3, 4}, &kv2);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST_F(ExecutorTest, IncrementalDecodeMatchesPrefill) {
  // Logits for token sequence t0..t3 computed via prefill must equal
  // prefill(t0..t2) + decode(t3): the KV-cache correctness property.
  const std::vector<TokenId> tokens = {5, 6, 7, 8};
  auto full = executor_.Prefill(tokens, &kv_);
  ASSERT_TRUE(full.ok());

  KvCache kv2(spec_);
  TransformerExecutor exec2(&spec_, &source_);
  auto partial = exec2.Prefill({5, 6, 7}, &kv2);
  ASSERT_TRUE(partial.ok());
  auto step = exec2.DecodeStep(8, &kv2);
  ASSERT_TRUE(step.ok());
  ASSERT_EQ(step->size(), full->size());
  for (size_t i = 0; i < full->size(); ++i) {
    EXPECT_NEAR((*step)[i], (*full)[i], 1e-4f) << i;
  }
}

TEST_F(ExecutorTest, PromptChangesLogits) {
  auto a = executor_.Prefill({1, 2, 3}, &kv_);
  ASSERT_TRUE(a.ok());
  KvCache kv2(spec_);
  TransformerExecutor exec2(&spec_, &source_);
  auto b = exec2.Prefill({3, 2, 1}, &kv2);
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);  // Order matters (positional encoding + causality).
}

TEST_F(ExecutorTest, RejectsBadTokens) {
  EXPECT_FALSE(executor_.Prefill({-1}, &kv_).ok());
  EXPECT_FALSE(executor_.Prefill({100000}, &kv_).ok());
  EXPECT_FALSE(executor_.Prefill({}, &kv_).ok());
}

TEST_F(ExecutorTest, ContextLimitEnforced) {
  std::vector<TokenId> long_prompt(spec_.config().max_ctx + 1, 1);
  EXPECT_FALSE(executor_.Prefill(long_prompt, &kv_).ok());
}

TEST_F(ExecutorTest, DecodeStepIntoMatchesByValueApi) {
  ASSERT_TRUE(executor_.Prefill({5, 6, 7}, &kv_).ok());
  KvCache kv2(spec_);
  TransformerExecutor exec2(&spec_, &source_);
  ASSERT_TRUE(exec2.Prefill({5, 6, 7}, &kv2).ok());

  auto by_value = executor_.DecodeStep(8, &kv_);
  ASSERT_TRUE(by_value.ok());
  std::vector<float> buf(spec_.config().vocab_size, -1e30f);
  ASSERT_TRUE(exec2.DecodeStepInto(8, &kv2, buf.data()).ok());
  EXPECT_EQ(*by_value, buf);  // Same path, same floats.
}

TEST_F(ExecutorTest, RejectsOddHeadDimGeometry) {
  // head_dim = 60 / 4 = 15: the RoPE pair loops would read head[i + 1] one
  // float past the head. The executor must fail fast with a clear status,
  // on every entry point, instead of computing garbage.
  LlmConfig bad = TestTinyModel();
  bad.d_model = 60;
  bad.n_heads = 4;
  bad.n_kv_heads = 2;
  const ModelSpec bad_spec = ModelSpec::Create(bad);
  const auto weights = Tzguf::ReferenceWeights(bad_spec, 77);
  HostWeightSource source(weights);
  TransformerExecutor exec(&bad_spec, &source);
  KvCache kv(bad_spec);
  auto prefill = exec.Prefill({1, 2}, &kv);
  ASSERT_FALSE(prefill.ok());
  EXPECT_EQ(prefill.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_NE(prefill.status().message().find("head_dim"), std::string::npos);
  std::vector<float> buf(bad.vocab_size);
  EXPECT_FALSE(exec.DecodeStepInto(1, &kv, buf.data()).ok());
  const TokenId chunk[] = {1, 2};
  EXPECT_FALSE(exec.PrefillChunk(chunk, 2, &kv, buf.data()).ok());
  const TransformerExecutor::DecodeEntry entry{1, &kv, buf.data()};
  EXPECT_FALSE(exec.DecodeStepBatch(&entry, 1).ok());
}

TEST_F(ExecutorTest, DecodeBatchRejectsRowsThatShareACache) {
  // Two rows of one cache must sit at consecutive positions; a decode batch
  // puts every row at its cache's seq_len(), so a repeated cache is invalid
  // — adjacent or not — and nothing may be pinned or appended.
  ASSERT_TRUE(executor_.Prefill({5, 6, 7}, &kv_).ok());
  KvCache other(spec_);
  ASSERT_TRUE(executor_.Prefill({8, 9}, &other).ok());
  const uint64_t bytes = kv_.CurrentBytes();
  const uint64_t other_bytes = other.CurrentBytes();
  std::vector<float> a(spec_.config().vocab_size), b(a.size()), c(a.size());
  const TransformerExecutor::DecodeEntry adjacent[] = {
      {1, &kv_, a.data()}, {2, &kv_, b.data()}};
  const TransformerExecutor::DecodeEntry split[] = {
      {1, &kv_, a.data()}, {2, &other, b.data()}, {3, &kv_, c.data()}};
  for (const auto& [entries, n] :
       {std::make_pair(adjacent, 2), std::make_pair(split, 3)}) {
    const Status st = executor_.DecodeStepBatch(entries, n);
    EXPECT_EQ(st.code(), ErrorCode::kInvalidArgument) << st.ToString();
    EXPECT_EQ(kv_.seq_len(), 3);
    EXPECT_EQ(kv_.CurrentBytes(), bytes);
    EXPECT_EQ(other.seq_len(), 2);
    EXPECT_EQ(other.CurrentBytes(), other_bytes);
  }
  // Distinct caches still decode.
  const TransformerExecutor::DecodeEntry ok[] = {{1, &kv_, a.data()},
                                                 {2, &other, b.data()}};
  ASSERT_TRUE(executor_.DecodeStepBatch(ok, 2).ok());
  EXPECT_EQ(kv_.seq_len(), 4);
  EXPECT_EQ(other.seq_len(), 3);
}

// Chunked PrefillChunk against one-shot Prefill on a 70-token prompt:
// logits and every cached K/V row must be bit-identical at any chunk size,
// in every numerics configuration of the single forward schedule.
class ChunkedPrefillTest : public ::testing::TestWithParam<const char*> {
 protected:
  static EngineOptions Options(const std::string& config) {
    EngineOptions options;
    options.force_scalar = config == "force_scalar";
    options.use_reference_kernels = config == "reference";
    return options;
  }
};

TEST_P(ChunkedPrefillTest, ChunksBitIdenticalToOneShotPrefill) {
  const ModelSpec spec = ModelSpec::Create(TestSmallModel());
  const auto weights = Tzguf::ReferenceWeights(spec, 2026);
  HostWeightSource source(weights);
  const EngineOptions options = Options(GetParam());
  std::vector<TokenId> prompt(70);
  for (int i = 0; i < 70; ++i) {
    prompt[i] = 1 + (i * 7) % (spec.config().vocab_size - 2);
  }
  TransformerExecutor one_shot(&spec, &source, options);
  KvCache want_kv(spec, KvStorageFor(options), KernelsFor(options));
  auto want = one_shot.Prefill(prompt, &want_kv);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  std::vector<uint8_t> want_rows;
  ASSERT_TRUE(want_kv.SerializeState(&want_rows).ok());

  for (int chunk : {1, 5, 32}) {
    SCOPED_TRACE(chunk);
    TransformerExecutor exec(&spec, &source, options);
    KvCache kv(spec, KvStorageFor(options), KernelsFor(options));
    std::vector<float> logits(spec.config().vocab_size);
    for (int off = 0; off < 70; off += chunk) {
      const int m = std::min(chunk, 70 - off);
      ASSERT_TRUE(exec.PrefillChunk(prompt.data() + off, m, &kv,
                                    off + m == 70 ? logits.data() : nullptr)
                      .ok());
    }
    EXPECT_EQ(logits, *want);
    std::vector<uint8_t> rows;
    ASSERT_TRUE(kv.SerializeState(&rows).ok());
    EXPECT_EQ(rows, want_rows);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, ChunkedPrefillTest,
                         ::testing::Values("default", "force_scalar",
                                           "reference"));

}  // namespace
}  // namespace tzllm
