/**
 * @file
 * Unit tests for SectorCrcCatalog, the per-sector CRC32C catalog every
 * data-storing engine checks reads, reconstruction and scrub against.
 */
#include <gtest/gtest.h>

#include <vector>

#include "array/crc_catalog.h"
#include "common/units.h"

namespace raizn {
namespace {

std::vector<uint8_t>
sectors(uint32_t n, uint8_t seed)
{
    std::vector<uint8_t> v(static_cast<size_t>(n) * kSectorSize);
    for (size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<uint8_t>(seed + i * 31 + i / kSectorSize * 7);
    return v;
}

TEST(SectorCrcCatalog, EmptyPassesEveryCheck)
{
    SectorCrcCatalog cat(16);
    auto bytes = sectors(16, 1);
    EXPECT_TRUE(cat.range_ok(0, bytes.data(), 16));
    EXPECT_EQ(cat.covered(0, 16), 0u);
    // Invalidating an empty catalog neither fails nor populates it.
    cat.invalidate(0, 16);
    EXPECT_EQ(cat.covered(0, 16), 0u);
}

TEST(SectorCrcCatalog, NotedBytesPassFlippedBytesFail)
{
    SectorCrcCatalog cat(16);
    auto bytes = sectors(4, 2);
    cat.note(4, bytes.data(), 4);
    EXPECT_EQ(cat.covered(0, 16), 4u);
    EXPECT_TRUE(cat.range_ok(4, bytes.data(), 4));
    // A sub-range checks against its own offset.
    EXPECT_TRUE(cat.range_ok(6, bytes.data() + 2 * kSectorSize, 2));

    auto bad = bytes;
    bad[3 * kSectorSize + 17] ^= 0x40;
    EXPECT_FALSE(cat.range_ok(4, bad.data(), 4));
    // The same bytes one sector off do not match either.
    EXPECT_FALSE(cat.range_ok(5, bytes.data(), 3));
}

TEST(SectorCrcCatalog, InvalidatedSectorsAreSkipped)
{
    SectorCrcCatalog cat(16);
    auto bytes = sectors(4, 3);
    cat.note(0, bytes.data(), 4);
    cat.invalidate(1, 2);
    EXPECT_EQ(cat.covered(0, 4), 2u);
    auto other = bytes;
    other[1 * kSectorSize] ^= 1;
    other[2 * kSectorSize] ^= 1;
    EXPECT_TRUE(cat.range_ok(0, other.data(), 4));
    other[3 * kSectorSize] ^= 1;
    EXPECT_FALSE(cat.range_ok(0, other.data(), 4));
}

TEST(SectorCrcCatalog, OffsetsPastCapacityAreIgnored)
{
    SectorCrcCatalog cat(8);
    auto bytes = sectors(4, 4);
    // Only sectors 6 and 7 fit; the note must not run past the zone.
    cat.note(6, bytes.data(), 4);
    EXPECT_EQ(cat.covered(0, 16), 2u);
    auto bad = bytes;
    bad[2 * kSectorSize] ^= 1;
    bad[3 * kSectorSize] ^= 1;
    EXPECT_TRUE(cat.range_ok(6, bad.data(), 4));
    EXPECT_TRUE(cat.range_ok(100, bad.data(), 4));
    bad[0] ^= 1;
    EXPECT_FALSE(cat.range_ok(6, bad.data(), 4));
}

TEST(SectorCrcCatalog, ClearEmptiesIt)
{
    SectorCrcCatalog cat(16);
    auto bytes = sectors(8, 5);
    cat.note(0, bytes.data(), 8);
    cat.clear();
    EXPECT_EQ(cat.covered(0, 16), 0u);
    auto bad = bytes;
    bad[0] ^= 1;
    EXPECT_TRUE(cat.range_ok(0, bad.data(), 8));
    // A note after clear re-arms the full zone.
    cat.note(8, bytes.data(), 8);
    EXPECT_EQ(cat.covered(0, 16), 8u);
}

} // namespace
} // namespace raizn
