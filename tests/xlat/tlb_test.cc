/**
 * @file
 * Unit tests for xlat::Tlb: lookup/fill, LRU within a set, selective
 * shootdown, the translation payload (owning device), and a
 * differential check of the packed store against a struct-of-entries
 * model.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/sim/rng.hh"
#include "src/xlat/tlb.hh"

using namespace griffin;
using xlat::Tlb;
using xlat::TlbConfig;

TEST(Tlb, MissThenHitWithLocation)
{
    Tlb tlb(TlbConfig{1, 32, 1});
    EXPECT_FALSE(tlb.lookup(10).has_value());
    tlb.fill(10, 3);
    const auto loc = tlb.lookup(10);
    ASSERT_TRUE(loc.has_value());
    EXPECT_EQ(*loc, 3u);
    EXPECT_EQ(tlb.hits, 1u);
    EXPECT_EQ(tlb.misses, 1u);
}

TEST(Tlb, RefillUpdatesLocation)
{
    Tlb tlb(TlbConfig{1, 32, 1});
    tlb.fill(10, 1);
    tlb.fill(10, 2);
    EXPECT_EQ(*tlb.lookup(10), 2u);
    EXPECT_EQ(tlb.validEntries(), 1u);
}

TEST(Tlb, CapacityAndLruEviction)
{
    Tlb tlb(TlbConfig{1, 4, 1}); // fully associative, 4 entries
    for (PageId p = 0; p < 4; ++p)
        tlb.fill(p, 1);
    tlb.lookup(0); // page 0 most recent
    tlb.fill(99, 1); // evicts page 1 (LRU)
    EXPECT_TRUE(tlb.probe(0));
    EXPECT_FALSE(tlb.probe(1));
    EXPECT_TRUE(tlb.probe(99));
    EXPECT_EQ(tlb.validEntries(), 4u);
}

TEST(Tlb, SetIndexingSeparatesConflicts)
{
    Tlb tlb(TlbConfig{4, 1, 1}); // 4 sets, direct mapped
    tlb.fill(0, 1);
    tlb.fill(1, 1); // different set: no conflict
    EXPECT_TRUE(tlb.probe(0));
    EXPECT_TRUE(tlb.probe(1));
    tlb.fill(4, 1); // same set as page 0: evicts it
    EXPECT_FALSE(tlb.probe(0));
    EXPECT_TRUE(tlb.probe(4));
}

TEST(Tlb, InvalidatePageIsSelective)
{
    Tlb tlb(TlbConfig{1, 8, 1});
    tlb.fill(1, 1);
    tlb.fill(2, 1);
    EXPECT_TRUE(tlb.invalidatePage(1));
    EXPECT_FALSE(tlb.invalidatePage(1)); // already gone
    EXPECT_FALSE(tlb.probe(1));
    EXPECT_TRUE(tlb.probe(2));
    EXPECT_EQ(tlb.invalidations, 1u);
}

TEST(Tlb, InvalidateAllCountsEntries)
{
    Tlb tlb(TlbConfig{2, 4, 1});
    for (PageId p = 0; p < 6; ++p)
        tlb.fill(p, 1);
    EXPECT_EQ(tlb.invalidateAll(), 6u);
    EXPECT_EQ(tlb.validEntries(), 0u);
    EXPECT_FALSE(tlb.lookup(3).has_value());
}

TEST(Tlb, PaperL1Geometry)
{
    // Paper Table II: L1 TLB is 1 set, 32-way.
    Tlb tlb(TlbConfig{1, 32, 1});
    EXPECT_EQ(tlb.capacity(), 32u);
    for (PageId p = 0; p < 32; ++p)
        tlb.fill(p, 1);
    EXPECT_EQ(tlb.validEntries(), 32u);
    tlb.fill(32, 1);
    EXPECT_EQ(tlb.validEntries(), 32u); // capacity bound
}

TEST(Tlb, PaperL2Geometry)
{
    // Paper Table II: L2 TLB is 32 sets, 16-way.
    Tlb tlb(TlbConfig{32, 16, 10});
    EXPECT_EQ(tlb.capacity(), 512u);
    EXPECT_EQ(tlb.latency(), 10u);
}

// --- Differential test against the struct-of-entries model -----------
// xlat::Tlb keeps each set as packed tag words plus parallel arrays of
// LRU stamps and locations, and a fully associative TLB tries the way
// of its last hit or fill before scanning. RefTlb below is the
// straightforward model it replaced (one struct per entry, same victim
// rule, always a full scan): any divergence in a lookup, a victim, a
// statistic or the visit order of forEachValid is a bug in the packed
// layout or the last-hit way.

namespace {

class RefTlb
{
  public:
    explicit RefTlb(const TlbConfig &config)
        : _config(config),
          _entries(std::size_t(config.numSets) * config.assoc)
    {
    }

    std::optional<DeviceId>
    lookup(PageId page)
    {
        ++_useClock;
        if (Entry *entry = find(page)) {
            ++hits;
            entry->lastUse = _useClock;
            return entry->location;
        }
        ++misses;
        return std::nullopt;
    }

    bool probe(PageId page) { return find(page) != nullptr; }

    void
    fill(PageId page, DeviceId location)
    {
        ++_useClock;
        ++fills;
        if (Entry *entry = find(page)) {
            entry->location = location;
            entry->lastUse = _useClock;
            return;
        }
        Entry *set = setOf(page);
        Entry *victim = &set[0];
        for (unsigned way = 0; way < _config.assoc; ++way) {
            if (!set[way].valid) {
                victim = &set[way];
                break;
            }
            if (set[way].lastUse < victim->lastUse)
                victim = &set[way];
        }
        *victim = Entry{page, location, true, _useClock};
    }

    bool
    invalidatePage(PageId page)
    {
        if (Entry *entry = find(page)) {
            entry->valid = false;
            ++invalidations;
            return true;
        }
        return false;
    }

    std::uint64_t
    invalidateAll()
    {
        std::uint64_t count = 0;
        for (Entry &entry : _entries) {
            count += entry.valid ? 1 : 0;
            entry.valid = false;
        }
        invalidations += count;
        return count;
    }

    std::vector<std::pair<PageId, DeviceId>>
    contents() const
    {
        std::vector<std::pair<PageId, DeviceId>> out;
        for (const Entry &entry : _entries) {
            if (entry.valid)
                out.emplace_back(entry.page, entry.location);
        }
        return out;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t invalidations = 0;

  private:
    struct Entry
    {
        PageId page = 0;
        DeviceId location = invalidDeviceId;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    TlbConfig _config;
    std::vector<Entry> _entries;
    std::uint64_t _useClock = 0;

    Entry *
    setOf(PageId page)
    {
        return &_entries[std::size_t(page % _config.numSets) *
                         _config.assoc];
    }

    Entry *
    find(PageId page)
    {
        Entry *set = setOf(page);
        for (unsigned way = 0; way < _config.assoc; ++way) {
            if (set[way].valid && set[way].page == page)
                return &set[way];
        }
        return nullptr;
    }
};

std::vector<std::pair<PageId, DeviceId>>
contentsOf(const Tlb &tlb)
{
    std::vector<std::pair<PageId, DeviceId>> out;
    tlb.forEachValid(
        [&](PageId page, DeviceId loc) { out.emplace_back(page, loc); });
    return out;
}

class TlbDifferential
    : public ::testing::TestWithParam<std::tuple<TlbConfig, std::uint64_t>>
{
};

} // namespace

TEST_P(TlbDifferential, PackedTagsMatchTheEntryModel)
{
    const auto [config, seed] = GetParam();
    Tlb tlb(config);
    RefTlb ref(config);
    sim::Rng rng(seed);

    // Pages come from a footprint twice the TLB, page 0 included, so
    // sets conflict and entries get evicted. Half of the operations
    // reuse the page of the previous one, as a wavefront's coalesced
    // lines do, so the last-hit way answers often and is itself shot
    // down and refilled.
    const std::uint64_t footprint = 2 * std::uint64_t(tlb.capacity());
    PageId page = 0;
    std::uint64_t lookup_hits = 0;

    for (int op = 0; op < 100000; ++op) {
        if (!rng.chance(0.5))
            page = rng.nextBelow(footprint);
        const std::uint64_t kind = rng.nextBelow(10000);
        if (kind < 6000) {
            const auto got = tlb.lookup(page);
            const auto want = ref.lookup(page);
            ASSERT_EQ(got, want) << "op " << op;
            lookup_hits += got.has_value() ? 1 : 0;
        } else if (kind < 6500) {
            ASSERT_EQ(tlb.probe(page), ref.probe(page)) << "op " << op;
        } else if (kind < 8900) {
            const DeviceId loc = DeviceId(rng.nextBelow(5));
            tlb.fill(page, loc);
            ref.fill(page, loc);
        } else if (kind < 9995) {
            ASSERT_EQ(tlb.invalidatePage(page), ref.invalidatePage(page))
                << "op " << op;
        } else {
            ASSERT_EQ(tlb.invalidateAll(), ref.invalidateAll())
                << "op " << op;
        }
        if (op % 100 == 0) {
            ASSERT_EQ(contentsOf(tlb), ref.contents()) << "op " << op;
        }
    }
    EXPECT_EQ(contentsOf(tlb), ref.contents());
    EXPECT_EQ(tlb.validEntries(), ref.contents().size());
    EXPECT_EQ(tlb.hits, ref.hits);
    EXPECT_EQ(tlb.misses, ref.misses);
    EXPECT_EQ(tlb.fills, ref.fills);
    EXPECT_EQ(tlb.invalidations, ref.invalidations);
    EXPECT_GT(lookup_hits, 0u);
    EXPECT_GT(tlb.misses, 0u);
    EXPECT_GT(tlb.invalidations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbDifferential,
    ::testing::Values(std::make_tuple(TlbConfig{1, 32, 1}, std::uint64_t(1)),
                      std::make_tuple(TlbConfig{32, 16, 10}, std::uint64_t(2)),
                      std::make_tuple(TlbConfig{256, 16, 8}, std::uint64_t(3)),
                      std::make_tuple(TlbConfig{1, 4, 1}, std::uint64_t(4)),
                      std::make_tuple(TlbConfig{4, 1, 1}, std::uint64_t(5)),
                      std::make_tuple(TlbConfig{2, 4, 1}, std::uint64_t(6))),
    [](const auto &info) {
        const TlbConfig &c = std::get<0>(info.param);
        return std::to_string(c.numSets) + "x" + std::to_string(c.assoc);
    });
