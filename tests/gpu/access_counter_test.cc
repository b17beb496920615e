/**
 * @file
 * Unit tests for gpu::AccessCounter: saturation, capacity eviction,
 * and top-N collection with reset (paper SS III-C hardware), plus
 * differentials of the known-minimum eviction against a full scan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <unordered_map>
#include <vector>

#include "src/gpu/access_counter.hh"

using namespace griffin;
using gpu::AccessCounter;
using gpu::PageCount;

TEST(AccessCounter, CountsPerPage)
{
    AccessCounter ac(100);
    ac.record(1);
    ac.record(1);
    ac.record(2);
    const auto top = ac.collectTop(10);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].page, 1u);
    EXPECT_EQ(top[0].count, 2u);
    EXPECT_EQ(top[1].page, 2u);
}

TEST(AccessCounter, CollectResetsTheTable)
{
    AccessCounter ac(100);
    ac.record(1);
    ac.collectTop(10);
    EXPECT_EQ(ac.size(), 0u);
    EXPECT_TRUE(ac.collectTop(10).empty());
}

TEST(AccessCounter, SaturatesAtMaxCount)
{
    AccessCounter ac(100, 0xff);
    for (int i = 0; i < 300; ++i)
        ac.record(7);
    const auto top = ac.collectTop(1);
    EXPECT_EQ(top[0].count, 0xffu);
    EXPECT_EQ(ac.saturated, 300u - 255u);
}

TEST(AccessCounter, CapacityEvictsColdest)
{
    AccessCounter ac(3);
    ac.record(1);
    ac.record(1); // hot
    ac.record(2);
    ac.record(2); // hot
    ac.record(3); // cold
    ac.record(4); // evicts 3 (count 1, coldest)
    EXPECT_EQ(ac.size(), 3u);
    EXPECT_EQ(ac.capacityEvictions, 1u);
    const auto top = ac.collectTop(10);
    for (const auto &pc : top)
        EXPECT_NE(pc.page, 3u);
}

TEST(AccessCounter, TopNTruncatesByCount)
{
    AccessCounter ac(100);
    for (PageId p = 0; p < 30; ++p) {
        for (PageId n = 0; n <= p; ++n)
            ac.record(p);
    }
    const auto top = ac.collectTop(20);
    ASSERT_EQ(top.size(), 20u);
    // Descending counts; hottest page is 29 with 30 records.
    EXPECT_EQ(top[0].page, 29u);
    EXPECT_EQ(top[0].count, 30u);
    for (std::size_t i = 1; i < top.size(); ++i)
        EXPECT_GE(top[i - 1].count, top[i].count);
    // The coldest ten pages (0..9) were cut.
    for (const auto &pc : top)
        EXPECT_GE(pc.page, 10u);
}

TEST(AccessCounter, DeterministicTieBreakByPageId)
{
    AccessCounter ac(100);
    ac.record(9);
    ac.record(3);
    ac.record(5);
    const auto top = ac.collectTop(10);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0].page, 3u);
    EXPECT_EQ(top[1].page, 5u);
    EXPECT_EQ(top[2].page, 9u);
}

TEST(AccessCounter, PaperBudgetIs100Entries)
{
    AccessCounter ac; // defaults
    EXPECT_EQ(ac.capacity(), 100u);
    for (PageId p = 0; p < 200; ++p)
        ac.record(p);
    EXPECT_EQ(ac.size(), 100u);
}

namespace {

using Table = std::unordered_map<PageId, std::uint32_t>;

/**
 * record() with the victim scan it had before it stopped at the count
 * floor: a full pass for the first entry with the smallest count.
 */
void
recordWithFullScan(Table &table, PageId page, std::size_t capacity)
{
    if (auto it = table.find(page); it != table.end()) {
        it->second = std::min<std::uint32_t>(it->second + 1, 0xff);
        return;
    }
    if (table.size() >= capacity) {
        auto coldest = table.begin();
        for (auto it = table.begin(); it != table.end(); ++it) {
            if (it->second < coldest->second)
                coldest = it;
        }
        table.erase(coldest);
    }
    table.emplace(page, 1);
}

/**
 * Fill a table with page p at counts[p] (records interleaved, so the
 * count-1 entries scatter through the iteration order), then miss
 * once: the evicted page must be the one the full scan picks.
 */
void
expectFullScanVictim(const std::vector<std::uint32_t> &counts)
{
    AccessCounter ac(counts.size());
    Table mirror;
    const auto both = [&](PageId p) {
        ac.record(p);
        recordWithFullScan(mirror, p, counts.size());
    };
    const std::uint32_t rounds =
        *std::max_element(counts.begin(), counts.end());
    for (std::uint32_t r = 0; r < rounds; ++r) {
        for (PageId p = 0; p < counts.size(); ++p) {
            if (counts[p] > r)
                both(p);
        }
    }
    both(100000);
    ASSERT_EQ(ac.capacityEvictions, 1u);

    std::vector<std::pair<PageId, std::uint32_t>> want(mirror.begin(),
                                                       mirror.end());
    std::sort(want.begin(), want.end());
    std::vector<std::pair<PageId, std::uint32_t>> got;
    for (const auto &pc : ac.collectTop(counts.size()))
        got.emplace_back(pc.page, pc.count);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want);
}

} // namespace

TEST(AccessCounter, EarlyStopEvictsTheFullScanVictim)
{
    // All ones: the first entry in iteration order.
    expectFullScanVictim(std::vector<std::uint32_t>(100, 1));
    // No ones: the scan runs to the end for the first minimum.
    std::vector<std::uint32_t> noOnes(100);
    for (std::size_t i = 0; i < noOnes.size(); ++i)
        noOnes[i] = 2 + std::uint32_t((i * 37) % 11);
    expectFullScanVictim(noOnes);
    // Mixed: a few count-1 entries among hotter ones, several layouts.
    std::uint32_t rng = 7;
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<std::uint32_t> mixed(100);
        for (auto &c : mixed) {
            rng = rng * 1664525u + 1013904223u;
            c = (rng >> 24) % 16 == 0 ? 1 : 2 + (rng >> 16) % 30;
        }
        expectFullScanVictim(mixed);
    }
}

namespace {

/**
 * Drive @p ac and a full-scan mirror with the same stream and compare
 * every entry after every record; collect (and reset) every
 * @p collect_every records. @p next yields the stream's pages.
 * @return evictions whose table held no count-1 entry (the mirror's
 *         minimum was above 1).
 */
template <typename Next>
std::uint64_t
expectMatchesFullScan(AccessCounter &ac, std::size_t records,
                      std::size_t collect_every, Next next)
{
    Table mirror;
    std::uint64_t warmEvictions = 0;
    for (std::size_t i = 1; i <= records; ++i) {
        const PageId page = next();
        if (mirror.size() >= ac.capacity() && !mirror.contains(page)) {
            std::uint32_t min = 0xff;
            for (const auto &[p, c] : mirror)
                min = std::min(min, c);
            warmEvictions += min > 1 ? 1 : 0;
        }
        ac.record(page);
        recordWithFullScan(mirror, page, ac.capacity());

        EXPECT_EQ(ac.size(), mirror.size());
        for (const auto &[p, c] : mirror) {
            if (ac.countOf(p) != c) {
                ADD_FAILURE() << "record " << i << ": page " << p
                              << " has " << ac.countOf(p) << ", want " << c;
                return warmEvictions;
            }
        }
        if (i % collect_every == 0) {
            const auto top = ac.collectTop(20);
            std::vector<PageCount> want;
            for (const auto &[p, c] : mirror)
                want.push_back(PageCount{p, c});
            std::sort(want.begin(), want.end(),
                      [](const auto &a, const auto &b) {
                          return a.count != b.count ? a.count > b.count
                                                    : a.page < b.page;
                      });
            want.resize(std::min<std::size_t>(want.size(), 20));
            EXPECT_EQ(top.size(), want.size());
            for (std::size_t k = 0; k < std::min(top.size(), want.size());
                 ++k) {
                EXPECT_EQ(top[k].page, want[k].page);
                EXPECT_EQ(top[k].count, want[k].count);
            }
            mirror.clear();
            EXPECT_EQ(ac.size(), 0u);
        }
    }
    return warmEvictions;
}

} // namespace

TEST(AccessCounter, KnownMinimumMatchesFullScanOnAHotResidentSet)
{
    // A hot set that saturates plus a streamed page touched in bursts
    // filling the rest of the table: each stream step misses with
    // every resident count above 1, the shape that defeats a stop at
    // count 1.
    for (std::uint32_t seed : {21u, 22u, 23u}) {
        std::mt19937 rng(seed);
        PageId stream = 1000;
        unsigned burst = 0;
        AccessCounter ac(100);
        const auto warm = expectMatchesFullScan(ac, 60000, 30000, [&] {
            if (rng() % 4 != 0)
                return PageId(rng() % 40);
            if (burst == 0) {
                ++stream;
                burst = 2 + rng() % 7;
            }
            --burst;
            return stream;
        });
        EXPECT_GT(warm, 1000u);
        EXPECT_GT(ac.saturated, 0u); // the hot set reached 0xff
    }
}

TEST(AccessCounter, KnownMinimumMatchesFullScanOnMixedStreams)
{
    // Uniform misses over a wide range, a skewed hot range and small
    // tables, with frequent resets.
    for (std::uint32_t seed : {31u, 32u, 33u, 34u}) {
        std::mt19937 rng(seed);
        AccessCounter ac(1 + seed % 4 * 10);
        expectMatchesFullScan(ac, 30000, 1000 + seed * 100, [&] {
            const unsigned r = rng() % 10;
            if (r < 5)
                return PageId(rng() % 16);
            if (r < 8)
                return PageId(rng() % 200);
            return PageId(rng() % 5000);
        });
    }
}
