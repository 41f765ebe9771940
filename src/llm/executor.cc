#include "src/llm/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

namespace tzllm {

namespace {

// Below this many multiply-accumulates the attention fork/join costs more
// than the heads themselves (first decode positions, tiny test models); such
// calls run inline on the caller. Same rationale and magnitude as the matmul
// kernels' threshold in tensor.cc.
constexpr uint64_t kAttnParallelMinWork = 48 * 1024;

// End of the run of rows that share rows[i]'s KV cache.
template <typename Row>
int RunEnd(const Row* rows, int i, int n) {
  int j = i + 1;
  while (j < n && rows[j].kv == rows[i].kv) {
    ++j;
  }
  return j;
}

}  // namespace

void RmsNorm(const float* x, const float* gain, float* out, int n) {
  ScalarKernels()->rms_norm(x, gain, out, n);
}

void Softmax(float* x, int n) { ScalarKernels()->softmax(x, n); }

void ApplyRope(float* vec, int n_heads, int head_dim, int pos) {
  for (int h = 0; h < n_heads; ++h) {
    float* head = vec + h * head_dim;
    for (int i = 0; i < head_dim; i += 2) {
      const float freq =
          std::pow(10000.0f, -static_cast<float>(i) / head_dim);
      const float angle = pos * freq;
      const float c = std::cos(angle);
      const float s = std::sin(angle);
      const float x0 = head[i];
      const float x1 = head[i + 1];
      head[i] = x0 * c - x1 * s;
      head[i + 1] = x0 * s + x1 * c;
    }
  }
}

void ApplyRopeTable(float* vec, int n_heads, int head_dim, int pos,
                    const RopeTable& table) {
  const float* row = table.Row(pos);
  for (int h = 0; h < n_heads; ++h) {
    float* head = vec + h * head_dim;
    for (int i = 0; i < head_dim; i += 2) {
      const float c = row[i];
      const float s = row[i + 1];
      const float x0 = head[i];
      const float x1 = head[i + 1];
      head[i] = x0 * c - x1 * s;
      head[i + 1] = x0 * s + x1 * c;
    }
  }
}

TransformerExecutor::TransformerExecutor(const ModelSpec* spec,
                                         WeightSource* weights,
                                         const EngineOptions& options,
                                         ComputeBackend* prefill_backend)
    : spec_(spec), weights_(weights), options_(options),
      kernels_(KernelsFor(options)),
      n_threads_(ResolvedThreads(options)),
      init_status_(spec->ValidateGeometry()) {
  if (n_threads_ > 1) {
    pool_ = std::make_unique<ThreadPool>(n_threads_);
  }
  cpu_backend_ = std::make_unique<CpuBackend>(options_, pool_.get(), kernels_);
  // The NPU payloads run quantized kernels only, so a reference engine keeps
  // its prefill on the CPU instead of mixing numerics.
  prefill_backend_ =
      prefill_backend != nullptr && !options_.use_reference_kernels
          ? prefill_backend
          : cpu_backend_.get();
  // One attention-scores row per pool part: each (position, head) work item
  // fully rewrites its part's row before reading it.
  scores_.resize(static_cast<size_t>(std::max(1, n_threads_)) *
                 std::max(0, spec->config().max_ctx));
}

Result<const uint8_t*> TransformerExecutor::Weights(TensorRole role,
                                                    int layer) {
  const TensorSpec* t = spec_->Find(role, layer);
  if (t == nullptr) {
    return Status(ErrorCode::kNotFound, "tensor spec missing");
  }
  return weights_->TensorData(t->index);
}

void TransformerExecutor::Rope(float* vec, int n_heads, int pos) const {
  const int head_dim = spec_->config().head_dim();
  const RopeTable& table = spec_->rope();
  if (options_.use_reference_kernels || table.empty() ||
      pos >= table.max_ctx()) {
    ApplyRope(vec, n_heads, head_dim, pos);
  } else {
    ApplyRopeTable(vec, n_heads, head_dim, pos, table);
  }
}

Status TransformerExecutor::EmbedToken(TokenId token, float* hidden) {
  const LlmConfig& c = spec_->config();
  TZLLM_ASSIGN_OR_RETURN(embd, Weights(TensorRole::kTokEmbedding, -1));
  // Row `token` of the Q8_0 embedding matrix.
  const uint64_t row_blocks = c.d_model / kQ8BlockElems;
  const uint8_t* row =
      embd + static_cast<uint64_t>(token) * row_blocks * kQ8BlockBytes;
  DequantizeQ8(row, c.d_model, hidden);
  return OkStatus();
}

void TransformerExecutor::Attend(int layer, int start, int m, const float* q,
                                 float* out, const KvCache& kv) {
  const LlmConfig& c = spec_->config();
  const int d = c.d_model;
  const int head_dim = c.head_dim();
  const int n_heads = c.n_heads;
  const int kv_dim = c.kv_dim();
  const int group = n_heads / c.n_kv_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const bool f16 = kv.storage() == KvStorage::kF16;

  // One flat work list of m x n_heads independent (position, head) items,
  // split into one contiguous range per pool part (the same static
  // partition as the matmul kernels, so the schedule — and the floats — is
  // identical at every thread count). Each item fully writes scores[0, pos]
  // before reading it, so one private max_ctx scratch row per part is
  // enough; the items themselves never share state.
  const uint64_t items = static_cast<uint64_t>(m) * n_heads;
  auto run_items = [&](uint64_t w0, uint64_t w1, float* scores) {
    for (uint64_t w = w0; w < w1; ++w) {
      const int i = static_cast<int>(w / n_heads);
      const int h = static_cast<int>(w % n_heads);
      const int pos = start + i;
      const int kv_head = h / group;
      const float* qh = q + static_cast<size_t>(i) * d + h * head_dim;
      const size_t head_off = static_cast<size_t>(kv_head) * head_dim;
      // Visits the cached rows [0, pos] of one plane, contiguous in runs of
      // RunLen(p) positions (all of max_ctx flat, one page paged): it hops
      // bases between runs but visits positions — and accumulates floats —
      // in the flat order, so paging never moves a float. The caller's step
      // pin keeps every page base valid across this parallel region.
      auto walk = [&](auto row_at, auto visit) {
        for (int p = 0; p <= pos;) {
          const int run = std::min(kv.RunLen(p), pos + 1 - p);
          auto* row = row_at(p) + head_off;
          for (int r = 0; r < run; ++r, row += kv_dim) {
            visit(p + r, row);
          }
          p += run;
        }
      };
      if (f16) {
        walk([&](int p) { return kv.KeyHalfAt(layer, p); },
             [&](int p, const uint16_t* k) {
               scores[p] = kernels_->dot_qk_f16(qh, k, head_dim) * scale;
             });
      } else {
        walk([&](int p) { return kv.KeyAt(layer, p); },
             [&](int p, const float* k) {
               scores[p] = kernels_->dot_qk_f32(qh, k, head_dim) * scale;
             });
      }
      kernels_->softmax(scores, pos + 1);
      float* oh = out + static_cast<size_t>(i) * d + h * head_dim;
      std::fill(oh, oh + head_dim, 0.0f);
      if (f16) {
        walk([&](int p) { return kv.ValueHalfAt(layer, p); },
             [&](int p, const uint16_t* v) {
               kernels_->axpy_f16(scores[p], v, oh, head_dim);
             });
      } else {
        walk([&](int p) { return kv.ValueAt(layer, p); },
             [&](int p, const float* v) {
               kernels_->axpy_f32(scores[p], v, oh, head_dim);
             });
      }
    }
  };

  std::chrono::steady_clock::time_point t0;
  if (options_.collect_stats) {
    t0 = std::chrono::steady_clock::now();
  }
  // ~2 MACs per cached element per head; below the threshold the heads run
  // inline on the caller.
  const uint64_t work = items * static_cast<uint64_t>(start + m) * head_dim * 2;
  if (pool_ != nullptr && items > 1 && work >= kAttnParallelMinWork) {
    // Partition over part indices (chunk == 1 per part), not raw items, so
    // each part knows its own scratch row; the item split per part mirrors
    // the pool's contiguous static partition.
    const uint64_t n_parts = static_cast<uint64_t>(pool_->n_threads());
    pool_->ParallelFor(0, n_parts, [&](uint64_t p0, uint64_t p1) {
      for (uint64_t part = p0; part < p1; ++part) {
        run_items(part * items / n_parts, (part + 1) * items / n_parts,
                  scores_.data() + part * c.max_ctx);
      }
    });
  } else {
    run_items(0, items, scores_.data());
  }
  if (options_.collect_stats) {
    attend_seconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
}

Status TransformerExecutor::CheckRows(const Row* rows, int n) {
  const LlmConfig& c = spec_->config();
  for (int i = 0, j; i < n; i = j) {
    const KvCache* kv = rows[i].kv;
    j = RunEnd(rows, i, n);
    if (std::any_of(rows, rows + i, [&](const Row& r) { return r.kv == kv; })) {
      return InvalidArgument("rows of one KV cache must be adjacent");
    }
    for (int r = i; r < j; ++r) {
      if (rows[r].pos != kv->seq_len() + (r - i)) {
        return InvalidArgument(
            "rows of one KV cache must be consecutive from its seq_len()");
      }
      if (rows[r].token < 0 || rows[r].token >= c.vocab_size) {
        return InvalidArgument("token out of vocabulary");
      }
    }
    if (kv->seq_len() + (j - i) > c.max_ctx) {
      return ResourceExhausted("KV cache full (context length exceeded)");
    }
  }
  return OkStatus();
}

void TransformerExecutor::Reserve(RowBatch* b, int m) {
  if (m <= b->capacity) {
    return;
  }
  const LlmConfig& c = spec_->config();
  const size_t rows = m, d = c.d_model, kv = c.kv_dim(), ff = c.d_ff;
  for (std::vector<float>* buf :
       {&b->hiddens, &b->norm, &b->q, &b->attn, &b->proj, &b->down}) {
    buf->resize(rows * d);
  }
  b->k.resize(rows * kv);
  b->v.resize(rows * kv);
  b->gate.resize(rows * ff);
  b->up.resize(rows * ff);
  b->capacity = m;
}

Status TransformerExecutor::Advance(RowBatch* b, ComputeBackend* backend) {
  const LlmConfig& c = spec_->config();
  const int d = c.d_model;
  const int kv_dim = c.kv_dim();
  const int m = b->m;
  const int l = b->layer;

  if (!b->attend_next) {
    // Stage A. The previous layer's tail must have landed in hiddens before
    // the norm reads it; while we waited (and while we norm and quantize
    // here) the other batch's jobs run on the backend's timeline.
    TZLLM_RETURN_IF_ERROR(backend->Await(b->tail_ticket));
    b->tail_ticket = kCompletedTicket;
    TZLLM_ASSIGN_OR_RETURN(w_norm, Weights(TensorRole::kAttnNorm, l));
    for (int i = 0; i < m; ++i) {
      kernels_->rms_norm(b->hiddens.data() + i * d,
                         reinterpret_cast<const float*>(w_norm),
                         b->norm.data() + i * d, d);
    }
    b->acts.QuantizeRows(b->norm.data(), m, d);
    TZLLM_ASSIGN_OR_RETURN(wq, Weights(TensorRole::kWq, l));
    TZLLM_ASSIGN_OR_RETURN(wk, Weights(TensorRole::kWk, l));
    TZLLM_ASSIGN_OR_RETURN(wv, Weights(TensorRole::kWv, l));
    const MatMatOp qkv[] = {
        {wq, static_cast<uint64_t>(d), b->q.data()},
        {wk, static_cast<uint64_t>(kv_dim), b->k.data()},
        {wv, static_cast<uint64_t>(kv_dim), b->v.data()}};
    TZLLM_ASSIGN_OR_RETURN(ticket, backend->SubmitMatMatGroup(qkv, 3, b->acts));
    b->qkv_ticket = ticket;
    b->attend_next = true;
    return OkStatus();
  }

  // Stage B. Each row rotates at its own position; each run of rows sharing
  // a cache appends its K/V rows and attends in one fused call (causality is
  // the p <= pos bound inside Attend). A row only ever reads its own cache,
  // so batching never mixes sessions or moves a float.
  TZLLM_RETURN_IF_ERROR(backend->Await(b->qkv_ticket));
  b->qkv_ticket = kCompletedTicket;
  for (int i = 0; i < m; ++i) {
    Rope(b->q.data() + i * d, c.n_heads, b->rows[i].pos);
    Rope(b->k.data() + i * kv_dim, c.n_kv_heads, b->rows[i].pos);
  }
  for (int i = 0, j; i < m; i = j) {
    j = RunEnd(b->rows, i, m);
    KvCache* kv = b->rows[i].kv;
    TZLLM_RETURN_IF_ERROR(kv->AppendBatch(l, j - i, b->k.data() + i * kv_dim,
                                          b->v.data() + i * kv_dim));
    Attend(l, b->rows[i].pos, j - i, b->q.data() + i * d,
           b->attn.data() + i * d, *kv);
  }

  // The post-attention segment (Wo + residual + FFN) as one fused
  // submission; the requantization scratch aliases the attention
  // activations, which the Wo matmul consumes first.
  b->acts.QuantizeRows(b->attn.data(), m, d);
  TZLLM_ASSIGN_OR_RETURN(wo, Weights(TensorRole::kWo, l));
  TZLLM_ASSIGN_OR_RETURN(w_ffn_norm, Weights(TensorRole::kFfnNorm, l));
  TZLLM_ASSIGN_OR_RETURN(w_gate, Weights(TensorRole::kWGate, l));
  TZLLM_ASSIGN_OR_RETURN(w_up, Weights(TensorRole::kWUp, l));
  TZLLM_ASSIGN_OR_RETURN(w_down, Weights(TensorRole::kWDown, l));
  const LayerTailOp tail{m, d, c.d_ff, wo,
                         reinterpret_cast<const float*>(w_ffn_norm), w_gate,
                         w_up, w_down, b->hiddens.data(), b->proj.data(),
                         b->norm.data(), b->gate.data(), b->up.data(),
                         b->down.data(), &b->acts};
  TZLLM_ASSIGN_OR_RETURN(ticket, backend->SubmitLayerTail(tail, b->acts));
  b->tail_ticket = ticket;
  b->attend_next = false;
  ++b->layer;
  return OkStatus();
}

Status TransformerExecutor::Retire(RowBatch* b, ComputeBackend* backend) {
  TZLLM_RETURN_IF_ERROR(backend->Await(b->tail_ticket));
  b->tail_ticket = kCompletedTicket;
  for (int i = 0, j; i < b->m; i = j) {
    j = RunEnd(b->rows, i, b->m);
    b->rows[i].kv->FinishPositions(j - i);
  }

  // One LM-head pass over the rows that asked for logits: norm them,
  // quantize them together and stream the vocabulary weights once. Each row
  // norms, quantizes and dots independently, so the pass is bit-identical
  // to a per-row head.
  const LlmConfig& c = spec_->config();
  const int d = c.d_model;
  const size_t vocab = c.vocab_size;
  TZLLM_ASSIGN_OR_RETURN(w_out_norm, Weights(TensorRole::kOutputNorm, -1));
  TZLLM_ASSIGN_OR_RETURN(w_head, Weights(TensorRole::kLmHead, -1));
  int k = 0;
  float* out = nullptr;
  for (int i = 0; i < b->m; ++i) {
    if (b->rows[i].logits != nullptr) {
      kernels_->rms_norm(b->hiddens.data() + i * d,
                         reinterpret_cast<const float*>(w_out_norm),
                         b->norm.data() + k++ * d, d);
      out = b->rows[i].logits;
    }
  }
  if (k == 0) {
    return OkStatus();
  }
  b->acts.QuantizeRows(b->norm.data(), k, d);
  if (k > 1) {
    // Several rows: MatMat writes them contiguously, then they scatter.
    logits_rows_.resize(k * vocab);
    out = logits_rows_.data();
  }
  const MatMatOp lm[] = {{w_head, vocab, out}};
  TZLLM_ASSIGN_OR_RETURN(ticket,
                         cpu_backend_->SubmitMatMatGroup(lm, 1, b->acts));
  TZLLM_RETURN_IF_ERROR(cpu_backend_->Await(ticket));
  for (int i = 0, r = 0; k > 1 && i < b->m; ++i) {
    if (b->rows[i].logits != nullptr) {
      std::memcpy(b->rows[i].logits, out + r++ * vocab, sizeof(float) * vocab);
    }
  }
  return OkStatus();
}

Status TransformerExecutor::Forward(const Row* rows, int n, int batch_rows,
                                    ComputeBackend* backend) {
  TZLLM_RETURN_IF_ERROR(init_status_);
  TZLLM_RETURN_IF_ERROR(CheckRows(rows, n));
  // Pin every cache for the whole run: appends interleave across caches and
  // batches, and an unpinned page could otherwise be evicted between one
  // run's append and another's attend.
  std::vector<KvCachePin> pins;
  for (int i = 0; i < n; i = RunEnd(rows, i, n)) {
    TZLLM_ASSIGN_OR_RETURN(pin, rows[i].kv->PinForStep());
    pins.push_back(std::move(pin));
  }
  // Every slot in use is sized before the first submission: in-flight jobs
  // hold raw pointers into the other slot's buffers.
  const int depth = backend->asynchronous() && n > batch_rows ? 2 : 1;
  for (int s = 0; s < depth; ++s) {
    Reserve(&batches_[s], std::min(batch_rows, n));
  }

  auto run = [&]() -> Status {
    RowBatch* active[2] = {};
    int n_active = 0;
    int next = 0;
    auto admit = [&](RowBatch* b) -> Status {
      b->rows = rows + next;
      b->m = std::min(batch_rows, n - next);
      b->layer = 0;
      b->attend_next = false;
      b->qkv_ticket = b->tail_ticket = kCompletedTicket;
      for (int i = 0; i < b->m; ++i) {
        TZLLM_RETURN_IF_ERROR(EmbedToken(
            b->rows[i].token, b->hiddens.data() + i * spec_->config().d_model));
      }
      next += b->m;
      active[n_active++] = b;
      return OkStatus();
    };
    for (int s = 0; s < depth; ++s) {
      TZLLM_RETURN_IF_ERROR(admit(&batches_[s]));
    }
    while (n_active > 0) {
      // Advance every batch one stage, oldest first: that order is what
      // lands batch b's KV rows before batch b+1 attends at each layer.
      for (int i = 0; i < n_active; ++i) {
        TZLLM_RETURN_IF_ERROR(Advance(active[i], backend));
      }
      // Batches past their last layer tail retire, oldest first; each freed
      // slot takes the next rows as the youngest batch.
      while (n_active > 0 && active[0]->layer == spec_->config().n_layers &&
             !active[0]->attend_next) {
        RowBatch* b = active[0];
        TZLLM_RETURN_IF_ERROR(Retire(b, backend));
        active[0] = active[1];
        --n_active;
        if (next < n) {
          TZLLM_RETURN_IF_ERROR(admit(b));
        }
      }
    }
    return OkStatus();
  };
  const Status st = run();
  if (!st.ok()) {
    // In-flight payloads write through pointers into the batch workspaces;
    // drain them before surfacing the original error.
    (void)backend->Sync();
  }
  return st;
}

Result<std::vector<float>> TransformerExecutor::Prefill(
    const std::vector<TokenId>& tokens, KvCache* kv) {
  std::vector<float> logits(spec_->config().vocab_size);
  TZLLM_RETURN_IF_ERROR(RunPrompt(tokens.data(),
                                  static_cast<int>(tokens.size()), kv,
                                  logits.data(), options_.prefill_batch));
  return logits;
}

Status TransformerExecutor::PrefillChunk(const TokenId* tokens, int m,
                                         KvCache* kv, float* logits) {
  return RunPrompt(tokens, m, kv, logits, m);
}

Status TransformerExecutor::RunPrompt(const TokenId* tokens, int m,
                                      KvCache* kv, float* logits,
                                      int batch_rows) {
  if (tokens == nullptr || m <= 0 || kv == nullptr) {
    return InvalidArgument("empty prompt or missing KV cache");
  }
  rows_.resize(m);
  for (int i = 0; i < m; ++i) {
    rows_[i] = {tokens[i], kv, kv->seq_len() + i, nullptr};
  }
  rows_[m - 1].logits = logits;
  return Forward(rows_.data(), m, std::max(1, batch_rows), prefill_backend_);
}

Status TransformerExecutor::DecodeStepInto(TokenId token, KvCache* kv,
                                           float* logits) {
  const DecodeEntry entry{token, kv, logits};
  return DecodeStepBatch(&entry, 1);
}

Result<std::vector<float>> TransformerExecutor::DecodeStep(TokenId token,
                                                           KvCache* kv) {
  std::vector<float> logits(spec_->config().vocab_size);
  TZLLM_RETURN_IF_ERROR(DecodeStepInto(token, kv, logits.data()));
  return logits;
}

Status TransformerExecutor::DecodeStepBatch(const DecodeEntry* entries,
                                            int n) {
  if (entries == nullptr || n <= 0) {
    return InvalidArgument("empty decode batch");
  }
  rows_.resize(n);
  for (int i = 0; i < n; ++i) {
    if (entries[i].kv == nullptr || entries[i].logits == nullptr) {
      return InvalidArgument("decode batch entry missing its cache or logits");
    }
    rows_[i] = {entries[i].token, entries[i].kv, entries[i].kv->seq_len(),
                entries[i].logits};
  }
  return Forward(rows_.data(), n, n, cpu_backend_.get());
}

}  // namespace tzllm
