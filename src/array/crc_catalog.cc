#include "array/crc_catalog.h"

#include "common/crc32.h"
#include "common/units.h"

namespace raizn {

namespace {

uint32_t
sector_crc(const uint8_t *bytes, uint32_t i)
{
    return crc32c(bytes + static_cast<size_t>(i) * kSectorSize,
                  kSectorSize);
}

} // namespace

void
SectorCrcCatalog::note(uint64_t off, const uint8_t *bytes,
                       uint32_t nsectors)
{
    if (valid_.empty()) {
        crcs_.assign(cap_, 0);
        valid_.assign(cap_, false);
    }
    for (uint32_t i = 0; i < nsectors && off + i < cap_; ++i) {
        crcs_[off + i] = sector_crc(bytes, i);
        valid_[off + i] = true;
    }
}

void
SectorCrcCatalog::invalidate(uint64_t off, uint32_t nsectors)
{
    for (uint32_t i = 0; i < nsectors && off + i < valid_.size(); ++i)
        valid_[off + i] = false;
}

bool
SectorCrcCatalog::range_ok(uint64_t off, const uint8_t *bytes,
                           uint32_t nsectors) const
{
    for (uint32_t i = 0; i < nsectors && off + i < valid_.size(); ++i) {
        if (valid_[off + i] && sector_crc(bytes, i) != crcs_[off + i])
            return false;
    }
    return true;
}

uint64_t
SectorCrcCatalog::covered(uint64_t off, uint32_t nsectors) const
{
    uint64_t n = 0;
    for (uint32_t i = 0; i < nsectors && off + i < valid_.size(); ++i)
        n += valid_[off + i] ? 1 : 0;
    return n;
}

void
SectorCrcCatalog::clear()
{
    crcs_.clear();
    valid_.clear();
}

} // namespace raizn
