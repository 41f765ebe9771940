#include "src/crypto/aes.h"

#include <cstring>

#include "src/crypto/dispatch.h"

namespace tzllm {

Aes128::Aes128(const AesKey128& key) {
  Aes128ExpandKey(key.data(), round_keys_.data());
}

void Aes128::EncryptBlock(uint8_t block[16]) const {
  Aes128EncryptBlockScalar(round_keys_.data(), block);
}

AesCtr::AesCtr(const AesKey128& key, const AesBlock& iv)
    : cipher_(key), iv_(iv) {}

AesCtr::AesCtr(const Aes128& cipher, const AesBlock& iv)
    : cipher_(cipher), iv_(iv) {}

void AesCtr::CryptPartialBlock(uint64_t block, size_t from, uint8_t* data,
                               size_t n) const {
  uint8_t tmp[16] = {};
  std::memcpy(tmp + from, data, n);
  ActiveCrypto()->aes128_ctr_xor(cipher_.round_keys(), iv_.data(), block, tmp,
                                 1);
  std::memcpy(data, tmp + from, n);
}

void AesCtr::Crypt(uint64_t offset, uint8_t* data, size_t len) const {
  uint64_t block = offset / 16;
  const size_t head = static_cast<size_t>(offset % 16);
  if (head != 0 && len > 0) {
    const size_t n = len < 16 - head ? len : 16 - head;
    CryptPartialBlock(block, head, data, n);
    data += n;
    len -= n;
    ++block;
  }
  const size_t full = len / 16;
  if (full > 0) {
    ActiveCrypto()->aes128_ctr_xor(cipher_.round_keys(), iv_.data(), block,
                                   data, full);
    data += full * 16;
    len -= full * 16;
    block += full;
  }
  if (len > 0) {
    CryptPartialBlock(block, 0, data, len);
  }
}

}  // namespace tzllm
