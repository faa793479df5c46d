#include "array/parity.h"

#include <cassert>

#include "common/units.h"

namespace raizn {

void
xor_bytes(uint8_t *dst, const uint8_t *src, size_t n)
{
    // Word-wise main loop; compilers vectorize this readily.
    size_t words = n / 8;
    auto *d = reinterpret_cast<uint64_t *>(dst);
    auto *s = reinterpret_cast<const uint64_t *>(src);
    for (size_t i = 0; i < words; ++i)
        d[i] ^= s[i];
    for (size_t i = words * 8; i < n; ++i)
        dst[i] ^= src[i];
}

void
parity_byte_range(uint64_t s, uint64_t e, uint32_t su_sectors,
                  uint64_t *lo, uint64_t *hi)
{
    assert(s < e);
    uint64_t su_bytes = static_cast<uint64_t>(su_sectors) * kSectorSize;
    uint64_t sb = s * kSectorSize;
    uint64_t eb = e * kSectorSize;
    uint64_t k1 = sb / su_bytes;
    uint64_t k2 = (eb - 1) / su_bytes;
    if (k1 == k2) {
        *lo = sb - k1 * su_bytes;
        *hi = eb - k1 * su_bytes;
    } else {
        *lo = 0;
        *hi = su_bytes;
    }
}

} // namespace raizn
