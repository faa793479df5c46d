/**
 * @file
 * SectorCrcCatalog: the per-sector CRC32C catalog of one logical
 * zone's payload, shared by every engine that stores data. Writes note
 * their sectors' checksums; reads, degraded reconstruction and scrub
 * check payload against them, so a corrupt unit is caught (and, with
 * redundancy, localised) instead of served as good.
 *
 * The catalog is empty until the first note and costs nothing in
 * timing-only mode. Sectors never noted, invalidated by a timing-only
 * write, or past the zone's capacity are unchecked: they always pass.
 * The catalog is volatile — it starts empty after a remount until
 * writes or a scrub pass repopulate it.
 */
#pragma once

#include <cstdint>
#include <vector>

namespace raizn {

class SectorCrcCatalog
{
  public:
    /// `capacity` is the zone's size in sectors (zone-relative offsets
    /// at or past it are ignored).
    explicit SectorCrcCatalog(uint64_t capacity = 0) : cap_(capacity) {}

    /// Records the CRCs of `nsectors` sectors of `bytes` written at
    /// zone-relative sector `off`.
    void note(uint64_t off, const uint8_t *bytes, uint32_t nsectors);
    /// Forgets [off, off + nsectors): a timing-only write replaced the
    /// payload with bytes nobody checksummed.
    void invalidate(uint64_t off, uint32_t nsectors);
    /// True when every catalogued sector of [off, off + nsectors)
    /// matches `bytes`.
    bool range_ok(uint64_t off, const uint8_t *bytes,
                  uint32_t nsectors) const;
    /// Catalogued sectors in [off, off + nsectors).
    uint64_t covered(uint64_t off, uint32_t nsectors) const;
    /// Drops every entry (zone reset).
    void clear();

  private:
    uint64_t cap_;
    std::vector<uint32_t> crcs_; ///< sized to cap_ on the first note
    std::vector<bool> valid_;
};

} // namespace raizn
