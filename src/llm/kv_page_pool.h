// Global KV page pool: the paged backing store for the serving KV arena.
//
// A page is a fixed block of kv_page_positions consecutive sequence
// positions spanning ALL layers' K and V planes at the cache's storage
// width — the unit of allocation, refcounting, sharing and eviction.
// Within a page the layout mirrors the flat arena: a K plane then a V
// plane, each [layer][pos_in_page][kv_dim], so positions of one layer stay
// contiguous inside a page and attention walks runs of kv_page_positions
// rows between page hops.
//
// The pool owns a fixed number of resident frames in secure scratch (sized
// to the old slots x ArenaBytes budget by the TA). When every frame is in
// use, allocation and restore evict the least-recently-touched unpinned
// page to REE memory, sealed under the spill key (src/crypto/seal.h: keyed
// HMAC-SHA256 tag over the page id, spill sequence and plaintext, AES-128-CTR
// under an IV derived from that tag): REE memory is attacker-controlled, so
// a tampered or substituted spilled page fails restore with
// kDataCorruption, never with silently wrong KV, and no two distinct pages
// are ever encrypted under one keystream — not even across a TA restart,
// where the spill sequence starts over. Pinned pages (a decode
// step in flight) are never evicted. Recency is a monotonic counter, not a
// clock — eviction order is deterministic and replayable.
//
// Pages are refcounted so sessions admitted with a common token prefix can
// map the same read-only pages (KvArena's prefix registry holds one ref per
// registered prefix); writes to a shared page copy it first (COW, handled
// by KvCache::AppendBatch).

#ifndef SRC_LLM_KV_PAGE_POOL_H_
#define SRC_LLM_KV_PAGE_POOL_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/common/status.h"
#include "src/crypto/aes.h"
#include "src/crypto/seal.h"
#include "src/llm/model_spec.h"

namespace tzllm {

// Cached vectors per position per layer: one K and one V.
inline constexpr uint64_t kKvVectorsPerPosition = 2;
// Element width of the default f16 storage — the width the secure scratch
// budget and the decode cost model assume. The arena really stores entries
// at this width (KvStorage::kF16), so accounting equals residency.
inline constexpr uint64_t kKvAccountedBytesPerElem = 2;

// Element type of the cache arena. kF16 is the production mode; kF32 is the
// reference baseline the parity tests diff the half-width path against.
enum class KvStorage : uint8_t {
  kF16 = 0,
  kF32 = 1,
};

// Logical page handle. Ids are pool-scoped and recycled only after the last
// reference drops.
using KvPageId = uint32_t;
inline constexpr KvPageId kInvalidKvPage = 0xffffffffu;

struct KvPagePoolOptions {
  // Sequence positions per page. Smaller pages spill at finer grain but add
  // page-table hops to attention; 16 keeps a full page at one SIMD-friendly
  // run.
  int page_positions = 16;
  // Secure-resident budget the frame store is carved from; the frame count
  // is pool_bytes / page_bytes (at least one). The TA passes the old
  // slots x per-session ArenaBytes product so paging never grows the
  // scratch region.
  uint64_t pool_bytes = 0;
  // Allow evicting cold pages to encrypted REE memory. Off = the pool is a
  // hard budget: allocation beyond the frames fails with ResourceExhausted.
  bool spill = true;
  // Key the spill blobs are encrypted under (derived from the model key by
  // the TA; tests may use any fixed key).
  AesKey128 spill_key{};
};

struct KvPageStats {
  uint64_t spills = 0;    // Pages encrypted out to REE memory.
  uint64_t restores = 0;  // Pages decrypted back into a frame.
  uint64_t cow_copies = 0;  // Shared pages privatized before a write.
  uint64_t pages_lost = 0;  // Spilled pages quarantined after failed restore.
  uint64_t spill_faults_injected = 0;  // Blobs tampered/dropped by the plan.
};

class KvPagePool {
 public:
  KvPagePool(const ModelSpec& spec, KvStorage storage,
             const KvPagePoolOptions& opts);

  // Static so LlmTa can budget the scratch region with EXACTLY the numbers
  // the constructed pool will report (the accounting-agreement invariant).
  static uint64_t PageBytes(const ModelSpec& spec, KvStorage storage,
                            int page_positions);
  static int FramesFor(const ModelSpec& spec, KvStorage storage,
                       const KvPagePoolOptions& opts);

  int page_positions() const { return page_positions_; }
  uint64_t page_bytes() const { return page_bytes_; }
  int frames() const { return static_cast<int>(frame_owner_.size()); }
  int free_frames() const { return static_cast<int>(free_frames_.size()); }
  int resident_pages() const { return frames() - free_frames(); }
  int spilled_pages() const { return spilled_pages_; }
  bool spill_enabled() const { return spill_; }

  // --- Page lifecycle. ---------------------------------------------------

  // Allocates a zeroed resident page with refcount 1 (pin count 1 when
  // `pinned` — a page allocated mid-step must not become an eviction victim
  // of a later allocation in the same step). Evicts the LRU unpinned page
  // when no frame is free; ResourceExhausted when spill is off or every
  // frame is pinned.
  Result<KvPageId> Alloc(bool pinned);
  // Adds / drops a reference. The last Unref scrubs the frame (or drops the
  // spill blob) and recycles the id.
  void Ref(KvPageId id);
  Status Unref(KvPageId id);
  int refcount(KvPageId id) const;

  // --- Residency. --------------------------------------------------------

  bool resident(KvPageId id) const;
  // Restores a spilled page into a frame (decrypt + integrity check;
  // kDataCorruption on tamper), evicting colder unpinned pages if needed.
  // No-op when already resident. Counts as a recency touch. Fails with
  // kDataCorruption on a quarantined (lost) page until ClearLost — zeros
  // must never be silently read as KV data.
  Status EnsureResident(KvPageId id);
  // EnsureResident + pin: the page cannot be evicted until Unpin. Pins
  // nest.
  Status Pin(KvPageId id);
  void Unpin(KvPageId id);
  // High-water mark, since the last ResetPinnedPeak(), of the pages holding
  // at least one pin: the frames a step really held at once.
  int pinned_peak() const { return pinned_peak_; }
  void ResetPinnedPeak() { pinned_peak_ = pinned_pages_; }
  // Recency bump (deterministic monotonic counter).
  void Touch(KvPageId id);

  // --- Loss & recovery (ISSUE 10). ---------------------------------------
  // When RestorePage fails (tampered, truncated or dropped REE blob) the
  // page's data is gone but the session that references it is not: the
  // owner quarantines the page — blob discarded, a zeroed frame claimed,
  // state resident but flagged `lost` so every read path refuses it — and
  // then recomputes the covered positions before calling ClearLost.

  // Spilled -> resident+lost on a zeroed frame. refs/pins are untouched.
  Status Quarantine(KvPageId id);
  bool lost(KvPageId id) const;
  // Recompute finished: the frame holds valid data again.
  Status ClearLost(KvPageId id);

  // Deterministic REE-misbehavior injection (ServeFaultPlan): sabotage the
  // 1-based `first..first+count-1`-th spills right after encryption — a
  // flipped ciphertext byte (tamper) or a truncated blob (drop). Restores
  // of those generations then fail exactly like a real adversarial REE.
  void ArmSpillFault(bool drop, uint64_t first, uint64_t count);

  // --- Frame data (valid only while resident; callers pin around use). ---

  uint16_t* Data16(KvPageId id);
  const uint16_t* Data16(KvPageId id) const;
  float* Data32(KvPageId id);
  const float* Data32(KvPageId id) const;
  // Element offsets of row `pos_in_page` of `layer` within a page's K / V
  // plane.
  size_t KOffset(int layer, int pos_in_page) const {
    return (static_cast<size_t>(layer) * page_positions_ + pos_in_page) *
           kv_dim_;
  }
  size_t VOffset(int layer, int pos_in_page) const {
    return v_plane_ + KOffset(layer, pos_in_page);
  }

  // --- Accounting. -------------------------------------------------------

  // Full secure footprint of the frame store: frames() x page_bytes(). This
  // is what the TA's scratch budget covers — identical to
  // FramesFor(...) x PageBytes(...) by construction.
  uint64_t PoolBytes() const { return frame_owner_.size() * page_bytes_; }
  // Secure bytes currently holding page data.
  uint64_t ResidentBytes() const {
    return static_cast<uint64_t>(resident_pages()) * page_bytes_;
  }
  // Plaintext-equivalent bytes of pages currently spilled to REE memory
  // (the encrypted blobs add a constant header per page).
  uint64_t SpilledBytes() const {
    return static_cast<uint64_t>(spilled_pages_) * page_bytes_;
  }
  const KvPageStats& stats() const { return stats_; }
  void RecordCowCopy() { ++stats_.cow_copies; }

  // --- REE-visible spill surface. ----------------------------------------
  // A spilled page's blob lives in untrusted REE memory, which the threat
  // model says an attacker can rewrite at will; tests model tampering
  // through this mutable view. nullptr / 0 when the page is not spilled.
  uint8_t* ree_blob_data(KvPageId id);
  size_t ree_blob_size(KvPageId id) const;

 private:
  enum class PageState : uint8_t { kFree = 0, kResident = 1, kSpilled = 2 };

  struct Page {
    PageState state = PageState::kFree;
    int frame = -1;
    int refs = 0;
    int pins = 0;
    bool lost = false;  // Quarantined: frame is zeroed, awaiting recompute.
    uint64_t lru = 0;
    uint64_t spill_seq = 0;           // CTR-IV uniqueness across re-spills.
    std::vector<uint8_t> ree_blob;    // Encrypted page while spilled.
  };

  bool ValidLive(KvPageId id) const {
    return id < pages_.size() && pages_[id].state != PageState::kFree;
  }
  uint8_t* FrameBytes(int frame) {
    return reinterpret_cast<uint8_t*>(frames_.data()) +
           static_cast<size_t>(frame) * page_bytes_;
  }
  const uint8_t* FrameBytes(int frame) const {
    return reinterpret_cast<const uint8_t*>(frames_.data()) +
           static_cast<size_t>(frame) * page_bytes_;
  }
  void ScrubFrame(int frame);
  // Claims a frame: free list first, else spill the LRU unpinned page.
  Result<int> TakeFrame();
  Status SpillPage(KvPageId id);
  Status RestorePage(KvPageId id);
  void NotePinned() { pinned_peak_ = std::max(pinned_peak_, ++pinned_pages_); }

  int n_layers_;
  int kv_dim_;
  int page_positions_;
  KvStorage storage_;
  bool spill_;
  Sealer spill_sealer_;
  size_t v_plane_ = 0;       // Element offset of the V plane within a page.
  size_t page_elems_ = 0;    // Elements per page (K+V, all layers).
  uint64_t page_bytes_ = 0;
  // Frame store: uint64 words for alignment; page_bytes_ is always a
  // multiple of 8 (kv_dim is even, K+V doubles it, elements are 2 or 4
  // bytes).
  std::vector<uint64_t> frames_;
  std::vector<KvPageId> frame_owner_;  // frame -> page (kInvalidKvPage free).
  std::vector<int> free_frames_;
  std::vector<Page> pages_;
  std::vector<KvPageId> free_ids_;
  int spilled_pages_ = 0;
  int pinned_pages_ = 0;
  int pinned_peak_ = 0;
  uint64_t lru_clock_ = 0;   // Monotonic recency counter — never wall time.
  uint64_t spill_clock_ = 0;
  // Armed spill-fault window (ArmSpillFault): ordinal is stats_.spills.
  bool spill_fault_armed_ = false;
  bool spill_fault_drop_ = false;
  uint64_t spill_fault_first_ = 0;
  uint64_t spill_fault_count_ = 0;
  KvPageStats stats_;
};

}  // namespace tzllm

#endif  // SRC_LLM_KV_PAGE_POOL_H_
