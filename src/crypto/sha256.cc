#include "src/crypto/sha256.h"

#include <cstring>

#include "src/crypto/dispatch.h"

namespace tzllm {

namespace {

constexpr uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                               0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

}  // namespace

Sha256::Sha256() {
  std::memcpy(state_.data(), kInit, sizeof(kInit));
  buffer_.fill(0);
}

void Sha256::Compress(const uint8_t* blocks, size_t nblocks) {
  ActiveCrypto()->sha256_compress(state_.data(), blocks, nblocks);
}

void Sha256::Update(const uint8_t* data, size_t len) {
  if (len == 0) {
    return;
  }
  total_len_ += len;
  if (buffer_len_ > 0) {
    const size_t n = len < 64 - buffer_len_ ? len : 64 - buffer_len_;
    std::memcpy(buffer_.data() + buffer_len_, data, n);
    buffer_len_ += n;
    data += n;
    len -= n;
    if (buffer_len_ < 64) {
      return;
    }
    Compress(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  const size_t full = len / 64;
  if (full > 0) {
    Compress(data, full);
    data += full * 64;
    len -= full * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffer_len_ = len;
  }
}

Sha256Digest Sha256::Finalize() {
  const uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    Compress(buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  Compress(buffer_.data(), 1);

  Sha256Digest digest;
  for (size_t i = 0; i < 8; ++i) {
    digest[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    digest[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

Sha256Digest Sha256::Hash(const uint8_t* data, size_t len) {
  Sha256 h;
  h.Update(data, len);
  return h.Finalize();
}

Sha256Digest Sha256::Hash(const std::string& s) {
  return Hash(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

HmacSha256::HmacSha256(const uint8_t* key, size_t key_len) {
  uint8_t block[64] = {};
  if (key_len > sizeof(block)) {
    const Sha256Digest hashed = Sha256::Hash(key, key_len);
    std::memcpy(block, hashed.data(), hashed.size());
  } else {
    std::memcpy(block, key, key_len);
  }
  uint8_t pad[64];
  for (size_t i = 0; i < sizeof(pad); ++i) {
    pad[i] = static_cast<uint8_t>(block[i] ^ 0x36);
  }
  inner_.Update(pad, sizeof(pad));
  for (size_t i = 0; i < sizeof(pad); ++i) {
    pad[i] = static_cast<uint8_t>(block[i] ^ 0x5c);
  }
  outer_.Update(pad, sizeof(pad));
}

Sha256Digest HmacSha256::Finalize() {
  const Sha256Digest inner = inner_.Finalize();
  outer_.Update(inner.data(), inner.size());
  return outer_.Finalize();
}

Sha256Digest HmacSha256::Mac(const uint8_t* key, size_t key_len,
                             const uint8_t* data, size_t len) {
  HmacSha256 h(key, key_len);
  h.Update(data, len);
  return h.Finalize();
}

bool DigestsEqualConstantTime(const Sha256Digest& a, const Sha256Digest& b) {
  uint8_t diff = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    diff = static_cast<uint8_t>(diff | (a[i] ^ b[i]));
  }
  return diff == 0;
}

std::string DigestToHex(const Sha256Digest& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (uint8_t b : digest) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

uint64_t DigestToTag64(const Sha256Digest& digest) {
  uint64_t tag = 0;
  for (int i = 0; i < 8; ++i) {
    tag = (tag << 8) | digest[i];
  }
  return tag;
}

}  // namespace tzllm
