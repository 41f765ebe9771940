// TEE OS model: trusted-application isolation, the pipeline-aware secure
// memory management interface (paper §4.2, Figure 7a), the model-key service
// (§6) and TEE-managed TA thread synchronization (§3.2).
//
// The paper extends a 17-KLoC production TEE OS by only ~112 LoC; this class
// is the union of that extension and the interfaces the extension relies on.
// The three-verb memory interface is implemented exactly as specified:
//
//   extend_allocated(region, size)  — delegate to REE CMA, VERIFY the
//                                     returned extent is adjacent to the
//                                     previous one (Iago defense);
//   extend_protected(region, size)  — grow the TZASC region over already-
//                                     allocated memory and map it into the
//                                     TA's address space;
//   shrink(region, size)            — scrub, unmap, shrink TZASC, return the
//                                     tail extent to the REE CMA.

#ifndef SRC_TEE_TEE_OS_H_
#define SRC_TEE_TEE_OS_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/calibration.h"
#include "src/common/status.h"
#include "src/crypto/key_hierarchy.h"
#include "src/hw/platform.h"
#include "src/ree/tz_driver.h"

namespace tzllm {

using TaId = int;

// TZASC region indices reserved by the TEE OS.
inline constexpr int kTzascIndexTeeOs = 0;    // TEE OS static carveout.
inline constexpr int kTzascIndexParams = 1;   // LLM parameters (scalable).
inline constexpr int kTzascIndexScratch = 2;  // KV cache / activations / etc.

struct SecureRegionStats {
  PhysAddr base = 0;
  uint64_t allocated_bytes = 0;  // CMA-allocated (possibly unprotected tail).
  uint64_t protected_bytes = 0;  // TZASC-covered prefix.
};

class TeeOs {
 public:
  TeeOs(SocPlatform* platform, TzDriver* tz_driver, uint64_t root_key_seed);

  // Boot-time setup: claims the TEE OS static carveout and learns the CMA
  // region geometry for the two scalable regions.
  Status Boot();

  // --- TA management. ---
  Result<TaId> CreateTa(const std::string& name);
  bool TaCanAccess(TaId ta, PhysAddr addr, uint64_t len) const;

  // --- Secure memory scaling (Figure 7a). ---
  // Returns the CPU time consumed REE-side by CMA migration; the caller
  // (restoration pipeline) accounts it on a CPU lane.
  Result<CmaExtent> ExtendAllocated(TaId ta, SecureRegionId region,
                                    uint64_t bytes);
  Status ExtendProtected(TaId ta, SecureRegionId region, uint64_t bytes);
  // Scrubs and releases `bytes` from the end of the region. Returns the CPU
  // time spent scrubbing.
  Result<SimDuration> Shrink(TaId ta, SecureRegionId region, uint64_t bytes);

  SecureRegionStats RegionStats(SecureRegionId region) const;
  PhysAddr RegionBase(SecureRegionId region) const;
  // True if [addr, addr+len) lies inside the protected part of the region.
  bool InProtectedRegion(SecureRegionId region, PhysAddr addr,
                         uint64_t len) const;

  // --- Model key service (§6). ---
  // Provisioning: store a wrapped key blob (normally read from flash).
  void InstallWrappedKey(const WrappedModelKey& wrapped);
  // Unwraps for an authorized TA only (the LLM TA). The REE never sees this.
  Result<AesKey128> GetModelKey(TaId ta, const std::string& model_id);
  Status AuthorizeKeyAccess(TaId ta, const std::string& model_id);

  // --- TA thread scheduling defense (§3.2, §6 Iago / CPU scheduling). ---
  // TA threads register; the REE resumes them by id via kResumeTaThread. The
  // TEE OS refuses to run a thread that TEE-managed synchronization has
  // blocked, so a malicious REE scheduler cannot violate execution order.
  Status RegisterTaThread(TaId ta, int thread_id);
  Status BlockTaThread(int thread_id);    // Called by TEE-side sync objects.
  Status UnblockTaThread(int thread_id);
  Result<bool> TryResumeFromRee(int thread_id);  // smc entry point.

  // A value no earlier call in this TEE OS boot returned: a plain counter,
  // so it is deterministic and draws no entropy. A TA binds one into every
  // key protecting state it parks in REE memory, so what an earlier TA
  // instance parked there (before a crash, or before an Unload/LoadModel
  // cycle) never authenticates under a later one.
  uint64_t NextKeyEpoch() { return ++key_epoch_; }

  const KeyHierarchy& keys() const { return keys_; }
  SocPlatform& platform() { return *platform_; }
  TzDriver& tz_driver() { return *tz_driver_; }

  uint64_t scrubbed_bytes() const { return scrubbed_bytes_; }
  uint64_t contiguity_rejections() const { return contiguity_rejections_; }

 private:
  struct RegionState {
    int tzasc_index = -1;
    PhysAddr expected_base = 0;  // CMA region base from the device tree.
    PhysAddr base = 0;           // Fixed at first allocation.
    uint64_t allocated = 0;
    uint64_t protected_bytes = 0;
    TaId owner = -1;
  };

  struct TaState {
    std::string name;
    // Mapped ranges (addr -> len).
    std::map<PhysAddr, uint64_t> mappings;
  };

  enum class ThreadState : uint8_t { kRunnable, kBlocked };

  RegionState& StateOf(SecureRegionId region);
  const RegionState& StateOf(SecureRegionId region) const;
  Status CheckOwner(TaId ta, const RegionState& state) const;

  SocPlatform* platform_;
  TzDriver* tz_driver_;
  KeyHierarchy keys_;
  RegionState params_region_;
  RegionState scratch_region_;
  std::unordered_map<TaId, TaState> tas_;
  std::unordered_map<std::string, WrappedModelKey> wrapped_keys_;
  std::unordered_map<std::string, TaId> key_authorizations_;
  std::unordered_map<int, ThreadState> ta_threads_;
  std::unordered_map<int, TaId> thread_owner_;
  TaId next_ta_id_ = 1;
  uint64_t key_epoch_ = 0;
  uint64_t scrubbed_bytes_ = 0;
  uint64_t contiguity_rejections_ = 0;
  bool booted_ = false;
};

}  // namespace tzllm

#endif  // SRC_TEE_TEE_OS_H_
