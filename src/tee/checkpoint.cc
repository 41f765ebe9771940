#include "src/tee/checkpoint.h"

#include <cstring>

#include "src/crypto/seal.h"

namespace tzllm {

namespace {

// Layout: magic | u64le payload_len | tag (32) | ciphertext. The tag is the
// Sealer's HMAC over (magic | payload_len | checkpoint id | plaintext), so
// a blob moved to another id, or any altered byte, fails to open.
constexpr char kMagic[8] = {'T', 'Z', 'C', 'K', 'P', 'T', '0', '2'};
constexpr size_t kLenBytes = 8;
constexpr size_t kTagBytes = 32;
constexpr size_t kHeaderBytes = sizeof(kMagic) + kLenBytes + kTagBytes;

// The authenticated header: the stored magic and length, then the id.
std::vector<uint8_t> AuthHeader(const uint8_t* magic_and_len,
                                const std::string& model_id) {
  constexpr size_t kStored = sizeof(kMagic) + kLenBytes;
  std::vector<uint8_t> h(kStored + model_id.size());
  std::memcpy(h.data(), magic_and_len, kStored);
  std::memcpy(h.data() + kStored, model_id.data(), model_id.size());
  return h;
}

}  // namespace

CheckpointService::CheckpointService(FlashDevice* flash) : flash_(flash) {}

Result<uint64_t> CheckpointService::Save(const std::string& model_id,
                                         const AesKey128& key,
                                         const std::vector<uint8_t>& state) {
  std::vector<uint8_t> blob(kHeaderBytes + state.size());
  std::memcpy(blob.data(), kMagic, sizeof(kMagic));
  const uint64_t len = state.size();
  for (size_t i = 0; i < kLenBytes; ++i) {
    blob[sizeof(kMagic) + i] = static_cast<uint8_t>(len >> (8 * i));
  }
  const std::vector<uint8_t> header = AuthHeader(blob.data(), model_id);
  const Sha256Digest tag =
      Sealer(key).Seal(header.data(), header.size(), state.data(),
                       blob.data() + kHeaderBytes, state.size());
  std::memcpy(blob.data() + sizeof(kMagic) + kLenBytes, tag.data(),
              kTagBytes);

  const uint64_t total = blob.size();
  TZLLM_RETURN_IF_ERROR(flash_->CreateFile(FileName(model_id), std::move(blob)));
  return total;
}

Result<std::vector<uint8_t>> CheckpointService::Restore(
    const std::string& model_id, const AesKey128& key) {
  const std::string file = FileName(model_id);
  auto size = flash_->FileSize(file);
  if (!size.ok()) {
    return size.status();
  }
  if (*size < kHeaderBytes) {
    return Status(ErrorCode::kDataCorruption, "checkpoint truncated");
  }
  std::vector<uint8_t> blob(*size);
  TZLLM_RETURN_IF_ERROR(flash_->PeekBytes(file, 0, *size, blob.data()));

  if (std::memcmp(blob.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status(ErrorCode::kDataCorruption, "checkpoint magic mismatch");
  }
  uint64_t len = 0;
  for (size_t i = 0; i < kLenBytes; ++i) {
    len |= static_cast<uint64_t>(blob[sizeof(kMagic) + i]) << (8 * i);
  }
  if (len != *size - kHeaderBytes) {
    return Status(ErrorCode::kDataCorruption, "checkpoint length mismatch");
  }
  Sha256Digest tag;
  std::memcpy(tag.data(), blob.data() + sizeof(kMagic) + kLenBytes, kTagBytes);

  std::vector<uint8_t> payload(blob.begin() + kHeaderBytes, blob.end());
  const std::vector<uint8_t> header = AuthHeader(blob.data(), model_id);
  const Status opened = Sealer(key).Open(header.data(), header.size(), tag,
                                         payload.data(), payload.data(),
                                         payload.size());
  if (!opened.ok()) {
    return Status(ErrorCode::kDataCorruption,
                  "checkpoint integrity check failed");
  }
  return payload;
}

bool CheckpointService::Exists(const std::string& model_id) const {
  return flash_->Exists(FileName(model_id));
}

Status CheckpointService::Delete(const std::string& model_id) {
  return flash_->DeleteFile(FileName(model_id));
}

}  // namespace tzllm
