#include "src/llm/kv_page_pool.h"

#include <algorithm>
#include <cstring>

namespace tzllm {

namespace {

// Spill blob layout (all little-endian, the checkpoint idiom):
//   magic | u32 page_id | u64 spill_seq | tag (32) | ciphertext.
// Sealer (src/crypto/seal.h) authenticates the first 20 bytes with the page:
// any bit flipped in the REE blob, or a blob relabeled or substituted for
// another page, fails restore with kDataCorruption — the same contract the
// session checkpoints enforce. The CTR IV is derived from the tag, so a
// spill sequence that restarts after a TA crash never reuses a keystream
// on different page contents.
constexpr char kSpillMagic[8] = {'T', 'Z', 'K', 'V', 'P', 'G', '0', '2'};
constexpr size_t kSpillLabels = sizeof(kSpillMagic) + 4 + 8;
constexpr size_t kSpillHeader = kSpillLabels + 32;

}  // namespace

uint64_t KvPagePool::PageBytes(const ModelSpec& spec, KvStorage storage,
                               int page_positions) {
  const LlmConfig& c = spec.config();
  const uint64_t elem = storage == KvStorage::kF16 ? 2 : 4;
  return static_cast<uint64_t>(c.n_layers) * page_positions * c.kv_dim() *
         kKvVectorsPerPosition * elem;
}

int KvPagePool::FramesFor(const ModelSpec& spec, KvStorage storage,
                          const KvPagePoolOptions& opts) {
  const uint64_t page = PageBytes(spec, storage, opts.page_positions);
  return static_cast<int>(std::max<uint64_t>(1, opts.pool_bytes / page));
}

KvPagePool::KvPagePool(const ModelSpec& spec, KvStorage storage,
                       const KvPagePoolOptions& opts)
    : n_layers_(spec.config().n_layers),
      kv_dim_(spec.config().kv_dim()),
      page_positions_(std::max(1, opts.page_positions)),
      storage_(storage),
      spill_(opts.spill),
      spill_sealer_(opts.spill_key) {
  v_plane_ = static_cast<size_t>(n_layers_) * page_positions_ * kv_dim_;
  page_elems_ = v_plane_ * kKvVectorsPerPosition;
  page_bytes_ = PageBytes(spec, storage_, page_positions_);
  const int n_frames = FramesFor(spec, storage_, opts);
  frames_.resize(static_cast<size_t>(n_frames) * page_bytes_ / sizeof(uint64_t),
                 0);
  frame_owner_.assign(n_frames, kInvalidKvPage);
  free_frames_.reserve(n_frames);
  // Highest index first so pop_back hands out frame 0, 1, ... in order.
  for (int f = n_frames - 1; f >= 0; --f) {
    free_frames_.push_back(f);
  }
}

void KvPagePool::ScrubFrame(int frame) {
  std::memset(FrameBytes(frame), 0, page_bytes_);
}

Result<int> KvPagePool::TakeFrame() {
  if (!free_frames_.empty()) {
    const int frame = free_frames_.back();
    free_frames_.pop_back();
    return frame;
  }
  // Evict the least-recently-touched unpinned resident page. The scan is
  // over live pages (bounded by frames + spilled), and ties break toward
  // the smallest id — fully deterministic.
  KvPageId victim = kInvalidKvPage;
  for (KvPageId id = 0; id < pages_.size(); ++id) {
    const Page& p = pages_[id];
    // A lost page must not spill: its zeroed frame would round-trip the
    // encrypt/verify path and come back as silently "valid" zeros.
    if (p.state != PageState::kResident || p.pins > 0 || p.lost) {
      continue;
    }
    if (victim == kInvalidKvPage || p.lru < pages_[victim].lru) {
      victim = id;
    }
  }
  if (victim == kInvalidKvPage) {
    return Status(ErrorCode::kResourceExhausted,
                  "KV page pool exhausted: every resident page is pinned "
                  "(shrink the decode batch or raise kv_pool_bytes)");
  }
  if (!spill_) {
    return Status(ErrorCode::kResourceExhausted,
                  "KV page pool full and spill is disabled "
                  "(EngineOptions::kv_spill): raise kv_pool_bytes or finish "
                  "a session");
  }
  TZLLM_RETURN_IF_ERROR(SpillPage(victim));
  const int frame = free_frames_.back();
  free_frames_.pop_back();
  return frame;
}

Status KvPagePool::SpillPage(KvPageId id) {
  Page& p = pages_[id];
  if (p.state != PageState::kResident) {
    return Internal("spill of a non-resident KV page");
  }
  p.spill_seq = ++spill_clock_;
  std::vector<uint8_t> blob;
  blob.reserve(kSpillHeader + page_bytes_);
  blob.insert(blob.end(), kSpillMagic, kSpillMagic + sizeof(kSpillMagic));
  for (int i = 0; i < 4; ++i) {
    blob.push_back(static_cast<uint8_t>(id >> (8 * i)));
  }
  for (int i = 0; i < 8; ++i) {
    blob.push_back(static_cast<uint8_t>(p.spill_seq >> (8 * i)));
  }
  const size_t ct_off = kSpillHeader;
  const uint8_t* plain = FrameBytes(p.frame);
  blob.resize(ct_off);  // The tag slot, filled once the tag is known.
  blob.insert(blob.end(), plain, plain + page_bytes_);
  const Sha256Digest tag =
      spill_sealer_.Seal(blob.data(), kSpillLabels, blob.data() + ct_off,
                         blob.data() + ct_off, page_bytes_);
  std::memcpy(blob.data() + kSpillLabels, tag.data(), tag.size());
  if (spill_fault_armed_) {
    const uint64_t ordinal = stats_.spills + 1;  // 1-based, like NpuFaultPlan.
    if (ordinal >= spill_fault_first_ &&
        ordinal < spill_fault_first_ + spill_fault_count_) {
      if (spill_fault_drop_) {
        // The REE "loses" the blob: nothing but a stub survives, so restore
        // fails the size/magic check.
        blob.resize(kSpillHeader / 2);
      } else {
        // One ciphertext byte flipped: decrypts fine, tag mismatches.
        blob[ct_off + page_bytes_ / 2] ^= 0x5a;
      }
      ++stats_.spill_faults_injected;
    }
  }
  p.ree_blob = std::move(blob);
  // Scrub before the frame is reused: no KV plaintext outlives eviction.
  ScrubFrame(p.frame);
  frame_owner_[p.frame] = kInvalidKvPage;
  free_frames_.push_back(p.frame);
  p.frame = -1;
  p.state = PageState::kSpilled;
  ++spilled_pages_;
  ++stats_.spills;
  return OkStatus();
}

Status KvPagePool::RestorePage(KvPageId id) {
  Page& p = pages_[id];
  if (p.state != PageState::kSpilled) {
    return Internal("restore of a non-spilled KV page");
  }
  const std::vector<uint8_t>& blob = p.ree_blob;
  if (blob.size() != kSpillHeader + page_bytes_ ||
      std::memcmp(blob.data(), kSpillMagic, sizeof(kSpillMagic)) != 0) {
    return Status(ErrorCode::kDataCorruption,
                  "spilled KV page blob truncated or bad magic");
  }
  size_t off = sizeof(kSpillMagic);
  uint32_t blob_id = 0;
  for (int i = 0; i < 4; ++i) {
    blob_id |= static_cast<uint32_t>(blob[off + i]) << (8 * i);
  }
  off += 4;
  uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) {
    seq |= static_cast<uint64_t>(blob[off + i]) << (8 * i);
  }
  off += 8;
  if (blob_id != id || seq != p.spill_seq) {
    // A stale or foreign blob substituted in REE memory (replay of an older
    // spill generation included): its tag is valid only for its own labels,
    // so this check is what rejects the replay.
    return Status(ErrorCode::kDataCorruption,
                  "spilled KV page blob labels do not match the page");
  }
  Sha256Digest tag;
  std::memcpy(tag.data(), blob.data() + off, tag.size());
  off += tag.size();

  TZLLM_ASSIGN_OR_RETURN(frame, TakeFrame());
  if (!spill_sealer_
           .Open(blob.data(), kSpillLabels, tag, blob.data() + off,
                 FrameBytes(frame), page_bytes_)
           .ok()) {
    ScrubFrame(frame);
    free_frames_.push_back(frame);
    return Status(ErrorCode::kDataCorruption,
                  "spilled KV page failed its integrity check (REE memory "
                  "tampered)");
  }
  p.ree_blob.clear();
  p.ree_blob.shrink_to_fit();
  p.frame = frame;
  frame_owner_[frame] = id;
  p.state = PageState::kResident;
  --spilled_pages_;
  ++stats_.restores;
  return OkStatus();
}

Result<KvPageId> KvPagePool::Alloc(bool pinned) {
  TZLLM_ASSIGN_OR_RETURN(frame, TakeFrame());
  KvPageId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    id = static_cast<KvPageId>(pages_.size());
    pages_.emplace_back();
  }
  Page& p = pages_[id];
  p.state = PageState::kResident;
  p.frame = frame;
  p.refs = 1;
  p.pins = pinned ? 1 : 0;
  if (pinned) {
    NotePinned();
  }
  p.lost = false;
  p.lru = ++lru_clock_;
  p.spill_seq = 0;
  frame_owner_[frame] = id;
  // Frames are scrubbed on every release, so a fresh page is already zero.
  return id;
}

void KvPagePool::Ref(KvPageId id) {
  if (ValidLive(id)) {
    ++pages_[id].refs;
  }
}

Status KvPagePool::Unref(KvPageId id) {
  if (!ValidLive(id)) {
    return InvalidArgument("unref of a free or invalid KV page");
  }
  Page& p = pages_[id];
  if (--p.refs > 0) {
    return OkStatus();
  }
  if (p.pins > 0) {
    return Internal("last unref of a pinned KV page");
  }
  if (p.state == PageState::kResident) {
    ScrubFrame(p.frame);
    frame_owner_[p.frame] = kInvalidKvPage;
    free_frames_.push_back(p.frame);
    p.frame = -1;
  } else {
    p.ree_blob.clear();
    p.ree_blob.shrink_to_fit();
    --spilled_pages_;
  }
  p.state = PageState::kFree;
  free_ids_.push_back(id);
  return OkStatus();
}

int KvPagePool::refcount(KvPageId id) const {
  return ValidLive(id) ? pages_[id].refs : 0;
}

bool KvPagePool::resident(KvPageId id) const {
  return ValidLive(id) && pages_[id].state == PageState::kResident;
}

Status KvPagePool::EnsureResident(KvPageId id) {
  if (!ValidLive(id)) {
    return InvalidArgument("EnsureResident on a free or invalid KV page");
  }
  Page& p = pages_[id];
  if (p.lost) {
    return Status(ErrorCode::kDataCorruption,
                  "KV page was lost to REE misbehavior and awaits recompute");
  }
  if (p.state == PageState::kSpilled) {
    TZLLM_RETURN_IF_ERROR(RestorePage(id));
  }
  p.lru = ++lru_clock_;
  return OkStatus();
}

Status KvPagePool::Pin(KvPageId id) {
  TZLLM_RETURN_IF_ERROR(EnsureResident(id));
  if (pages_[id].pins++ == 0) {
    NotePinned();
  }
  return OkStatus();
}

void KvPagePool::Unpin(KvPageId id) {
  if (ValidLive(id) && pages_[id].pins > 0 && --pages_[id].pins == 0) {
    --pinned_pages_;
  }
}

void KvPagePool::Touch(KvPageId id) {
  if (ValidLive(id)) {
    pages_[id].lru = ++lru_clock_;
  }
}

Status KvPagePool::Quarantine(KvPageId id) {
  if (!ValidLive(id)) {
    return InvalidArgument("Quarantine on a free or invalid KV page");
  }
  Page& p = pages_[id];
  if (p.state != PageState::kSpilled) {
    return FailedPrecondition("Quarantine of a resident KV page");
  }
  // The blob is unrecoverable — drop it before claiming a frame so the
  // eviction scan never considers this page a spill candidate mid-claim.
  p.ree_blob.clear();
  p.ree_blob.shrink_to_fit();
  TZLLM_ASSIGN_OR_RETURN(frame, TakeFrame());
  // Frames are scrubbed on release, so the quarantined page reads as zeros
  // — but `lost` makes every read path refuse it until ClearLost.
  p.frame = frame;
  frame_owner_[frame] = id;
  p.state = PageState::kResident;
  p.lost = true;
  p.lru = ++lru_clock_;
  --spilled_pages_;
  ++stats_.pages_lost;
  return OkStatus();
}

bool KvPagePool::lost(KvPageId id) const {
  return ValidLive(id) && pages_[id].lost;
}

Status KvPagePool::ClearLost(KvPageId id) {
  if (!ValidLive(id) || !pages_[id].lost) {
    return FailedPrecondition("ClearLost on a page that is not lost");
  }
  if (pages_[id].state != PageState::kResident) {
    return Internal("lost KV page is not resident");
  }
  pages_[id].lost = false;
  pages_[id].lru = ++lru_clock_;
  return OkStatus();
}

void KvPagePool::ArmSpillFault(bool drop, uint64_t first, uint64_t count) {
  spill_fault_armed_ = count > 0;
  spill_fault_drop_ = drop;
  spill_fault_first_ = first;
  spill_fault_count_ = count;
}

uint16_t* KvPagePool::Data16(KvPageId id) {
  return resident(id) ? reinterpret_cast<uint16_t*>(FrameBytes(pages_[id].frame))
                      : nullptr;
}

const uint16_t* KvPagePool::Data16(KvPageId id) const {
  return resident(id)
             ? reinterpret_cast<const uint16_t*>(FrameBytes(pages_[id].frame))
             : nullptr;
}

float* KvPagePool::Data32(KvPageId id) {
  return resident(id) ? reinterpret_cast<float*>(FrameBytes(pages_[id].frame))
                      : nullptr;
}

const float* KvPagePool::Data32(KvPageId id) const {
  return resident(id)
             ? reinterpret_cast<const float*>(FrameBytes(pages_[id].frame))
             : nullptr;
}

uint8_t* KvPagePool::ree_blob_data(KvPageId id) {
  if (!ValidLive(id) || pages_[id].state != PageState::kSpilled) {
    return nullptr;
  }
  return pages_[id].ree_blob.data();
}

size_t KvPagePool::ree_blob_size(KvPageId id) const {
  if (!ValidLive(id) || pages_[id].state != PageState::kSpilled) {
    return 0;
  }
  return pages_[id].ree_blob.size();
}

}  // namespace tzllm
