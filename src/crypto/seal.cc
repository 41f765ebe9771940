#include "src/crypto/seal.h"

#include <cstring>

namespace tzllm {

namespace {

Sha256Digest SubKey(const AesKey128& key, const char* label) {
  HmacSha256 h(key.data(), key.size());
  h.Update(label);
  return h.Finalize();
}

AesKey128 EncKey(const AesKey128& key) {
  const Sha256Digest d = SubKey(key, "tzllm/seal/enc/v1");
  AesKey128 k;
  std::memcpy(k.data(), d.data(), k.size());
  return k;
}

HmacSha256 MacPrototype(const AesKey128& key) {
  const Sha256Digest mac_key = SubKey(key, "tzllm/seal/mac/v1");
  return HmacSha256(mac_key.data(), mac_key.size());
}

AesBlock IvFromTag(const Sha256Digest& tag) {
  AesBlock iv;
  std::memcpy(iv.data(), tag.data(), iv.size());
  return iv;
}

}  // namespace

Sealer::Sealer(const AesKey128& key)
    : mac_(MacPrototype(key)), enc_(EncKey(key)) {}

Sha256Digest Sealer::Tag(const uint8_t* header, size_t header_len,
                         const uint8_t* plain, size_t len) const {
  HmacSha256 h = mac_;
  const uint64_t n = header_len;
  uint8_t header_len_le[8];
  for (int i = 0; i < 8; ++i) {
    header_len_le[i] = static_cast<uint8_t>(n >> (8 * i));
  }
  h.Update(header_len_le, sizeof(header_len_le));
  h.Update(header, header_len);
  h.Update(plain, len);
  return h.Finalize();
}

Sha256Digest Sealer::Seal(const uint8_t* header, size_t header_len,
                          const uint8_t* plain, uint8_t* out,
                          size_t len) const {
  const Sha256Digest tag = Tag(header, header_len, plain, len);
  if (len > 0 && out != plain) {
    std::memmove(out, plain, len);
  }
  AesCtr(enc_, IvFromTag(tag)).CryptAll(out, len);
  return tag;
}

Status Sealer::Open(const uint8_t* header, size_t header_len,
                    const Sha256Digest& tag, const uint8_t* ct, uint8_t* out,
                    size_t len) const {
  if (len > 0 && out != ct) {
    std::memmove(out, ct, len);
  }
  AesCtr(enc_, IvFromTag(tag)).CryptAll(out, len);
  if (!DigestsEqualConstantTime(Tag(header, header_len, out, len), tag)) {
    if (len > 0) {
      std::memset(out, 0, len);
    }
    return Status(ErrorCode::kDataCorruption,
                  "sealed blob failed its authentication check");
  }
  return OkStatus();
}

}  // namespace tzllm
