/**
 * @file
 * XOR parity primitives shared by every parity engine (RAIZN, mdraid,
 * ZonedEngine RAID-5/6): the byte-wise XOR that builds and applies
 * parity, and the parity byte range a partial-stripe write touches.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace raizn {

/// XOR `n` bytes of `src` into `dst`.
void xor_bytes(uint8_t *dst, const uint8_t *src, size_t n);

/**
 * Affected parity byte range [lo, hi) for a write covering stripe
 * offsets [s, e) (in sectors, within one stripe of D stripe units of
 * `su` sectors each). Single-SU writes touch only their intra-SU
 * slice; multi-SU writes touch the whole unit width.
 */
void parity_byte_range(uint64_t s, uint64_t e, uint32_t su_sectors,
                       uint64_t *lo, uint64_t *hi);

} // namespace raizn
