// Framework-state checkpointing (paper §3.2 "Other techniques"): the 2.3 s
// of llama.cpp metadata / tokenizer initialization is paid once, serialized,
// encrypted under the model key, and stored in flash; every later inference
// restores the state instead of re-initializing.
//
// The blob is sealed with src/crypto/seal.h (keyed HMAC tag, synthetic CTR
// IV) and bound to its checkpoint id: resealing a changed state under the
// same id never reuses a keystream, and a tampered or relocated checkpoint
// (untrusted flash) is detected on restore and falls back to full
// initialization.

#ifndef SRC_TEE_CHECKPOINT_H_
#define SRC_TEE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/calibration.h"
#include "src/common/status.h"
#include "src/crypto/aes.h"
#include "src/hw/flash.h"

namespace tzllm {

class CheckpointService {
 public:
  explicit CheckpointService(FlashDevice* flash);

  // Serializes + encrypts `state` under `key` and stores it as
  // "<model_id>.ckpt". Returns the stored size.
  Result<uint64_t> Save(const std::string& model_id, const AesKey128& key,
                        const std::vector<uint8_t>& state);

  // Loads, decrypts and verifies the checkpoint. kDataCorruption on tamper.
  Result<std::vector<uint8_t>> Restore(const std::string& model_id,
                                       const AesKey128& key);

  bool Exists(const std::string& model_id) const;

  // Removes a stored checkpoint; kNotFound when none exists. Used when a
  // superseded blob must not be restorable (a completed serving manifest)
  // and by the ckpt_drop fault injection, which models the REE discarding
  // a blob it promised to keep.
  Status Delete(const std::string& model_id);

  // Modeled wall time of a restore at inference start (I/O + decrypt of the
  // serialized state + fixups); used by the runtime cost accounting.
  static constexpr SimDuration RestoreTime() { return kCheckpointRestoreTime; }
  // Full (non-checkpointed) framework initialization time.
  static constexpr SimDuration FullInitTime() {
    return kLlamaMetaInitTime + kLlamaBootTime + kTokenizerInitTime;
  }

 private:
  static std::string FileName(const std::string& model_id) {
    return model_id + ".ckpt";
  }

  FlashDevice* flash_;
};

}  // namespace tzllm

#endif  // SRC_TEE_CHECKPOINT_H_
