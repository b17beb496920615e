/**
 * @file
 * Unit and property tests for mem::Cache: hit/miss behaviour, LRU
 * replacement, write-back semantics, and the selective page flush
 * that the migration machinery depends on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <tuple>
#include <vector>

#include "src/mem/cache.hh"
#include "src/sim/rng.hh"

using namespace griffin;
using mem::Cache;
using mem::CacheConfig;

namespace {

CacheConfig
tinyConfig()
{
    // 4 sets x 2 ways x 64 B lines.
    return CacheConfig{512, 2, 1};
}

} // namespace

TEST(Cache, GeometryDerivedFromConfig)
{
    Cache c(tinyConfig());
    EXPECT_EQ(c.numSets(), 4u);
    Cache big(CacheConfig{2 * 1024 * 1024, 16, 20});
    EXPECT_EQ(big.numSets(), 2048u);
    EXPECT_EQ(big.latency(), 20u);
}

TEST(Cache, FirstAccessMissesSecondHits)
{
    Cache c(tinyConfig());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 1u);
}

TEST(Cache, SameLineDifferentOffsetHits)
{
    Cache c(tinyConfig());
    c.access(0x1000, false);
    EXPECT_TRUE(c.access(0x103F, false).hit);
    EXPECT_FALSE(c.access(0x1040, false).hit); // next line
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(tinyConfig()); // 2 ways
    // Three lines mapping to the same set (stride = sets * line).
    const Addr a = 0x0000, b = 0x0400, d = 0x0800;
    c.access(a, false);
    c.access(b, false);
    c.access(a, false);    // a most recent
    c.access(d, false);    // evicts b
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, CleanEvictionHasNoWriteback)
{
    Cache c(tinyConfig());
    const Addr a = 0x0000, b = 0x0400, d = 0x0800;
    c.access(a, false);
    c.access(b, false);
    const auto r = c.access(d, false);
    EXPECT_FALSE(r.writeback);
    EXPECT_EQ(c.writebacks, 0u);
}

TEST(Cache, DirtyEvictionReportsWritebackAddress)
{
    Cache c(tinyConfig());
    const Addr a = 0x0000, b = 0x0400, d = 0x0800;
    c.access(a, true); // dirty
    c.access(b, false);
    const auto r = c.access(d, false); // evicts a
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.writebackAddr, a);
    EXPECT_EQ(c.writebacks, 1u);
}

TEST(Cache, ReadAfterWriteKeepsLineDirty)
{
    Cache c(tinyConfig());
    const Addr a = 0x0000, b = 0x0400, d = 0x0800;
    c.access(a, true);
    c.access(a, false); // read does not clean it
    c.access(b, false);
    EXPECT_TRUE(c.access(d, false).writeback);
}

TEST(Cache, ProbeDoesNotPerturbLru)
{
    Cache c(tinyConfig());
    const Addr a = 0x0000, b = 0x0400, d = 0x0800;
    c.access(a, false);
    c.access(b, false);
    // Probing a must NOT make it most-recent.
    EXPECT_TRUE(c.probe(a));
    c.access(d, false); // evicts a (still LRU)
    EXPECT_FALSE(c.probe(a));
}

TEST(Cache, FlushAllInvalidatesAndCountsDirty)
{
    Cache c(tinyConfig());
    // Three different sets: nothing evicts before the flush.
    c.access(0x0000, true);
    c.access(0x0040, false);
    c.access(0x0080, true);
    const auto r = c.flushAll();
    EXPECT_EQ(r.linesInvalidated, 3u);
    EXPECT_EQ(r.dirtyWritebacks, 2u);
    EXPECT_EQ(c.validLines(), 0u);
}

TEST(Cache, FlushPagesIsSelective)
{
    Cache c(CacheConfig{16 * 1024, 4, 1});
    // Lines in pages 0, 1 and 5 (4 KB pages).
    c.access(0x0000, true);
    c.access(0x0040, false);
    c.access(0x1000, true);
    c.access(0x5000, false);

    const std::vector<PageId> pages{0, 5};
    const auto r = c.flushPages(pages, 12);
    EXPECT_EQ(r.linesInvalidated, 3u);
    EXPECT_EQ(r.dirtyWritebacks, 1u);
    EXPECT_FALSE(c.probe(0x0000));
    EXPECT_FALSE(c.probe(0x5000));
    EXPECT_TRUE(c.probe(0x1000)); // page 1 untouched
}

TEST(Cache, FlushPagesOnEmptySetIsNoop)
{
    Cache c(tinyConfig());
    c.access(0x0000, true);
    const auto r = c.flushPages({}, 12);
    EXPECT_EQ(r.linesInvalidated, 0u);
    EXPECT_TRUE(c.probe(0x0000));
}

TEST(Cache, ValidLinesNeverExceedsCapacity)
{
    Cache c(tinyConfig()); // 8 lines
    sim::Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        c.access(rng.nextBelow(1 << 20) * 64, rng.chance(0.5));
    EXPECT_LE(c.validLines(), 8u);
    EXPECT_EQ(c.hits + c.misses, 1000u);
}

/** Property sweep over geometries. */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheGeometry, WorkingSetSmallerThanCacheAlwaysHitsAfterWarmup)
{
    const auto [size_kb, assoc] = GetParam();
    Cache c(CacheConfig{std::uint64_t(size_kb) * 1024, unsigned(assoc), 1});
    const std::uint64_t lines = std::uint64_t(size_kb) * 1024 / 64;
    // Warm up with half the capacity (conflicts cannot evict within
    // a strided working set that maps one line per set per way used).
    const std::uint64_t ws = lines / 2;
    for (std::uint64_t i = 0; i < ws; ++i)
        c.access(i * 64, false);
    c.hits = c.misses = 0;
    for (int round = 0; round < 3; ++round) {
        for (std::uint64_t i = 0; i < ws; ++i)
            c.access(i * 64, false);
    }
    EXPECT_EQ(c.misses, 0u);
    EXPECT_EQ(c.hits, ws * 3);
}

TEST_P(CacheGeometry, StreamLargerThanCacheAlwaysMisses)
{
    const auto [size_kb, assoc] = GetParam();
    Cache c(CacheConfig{std::uint64_t(size_kb) * 1024, unsigned(assoc), 1});
    const std::uint64_t lines = std::uint64_t(size_kb) * 1024 / 64;
    for (int round = 0; round < 2; ++round) {
        for (std::uint64_t i = 0; i < lines * 4; ++i)
            c.access(i * 64, false);
    }
    EXPECT_EQ(c.hits, 0u); // pure streaming: LRU keeps nothing useful
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(16, 4), std::make_tuple(16, 1),
                      std::make_tuple(64, 8), std::make_tuple(256, 16)));

// --- Differential test against the struct-of-lines model ------------
// mem::Cache keeps each set as packed tag words plus a parallel array
// of LRU stamps. RefCache below is the straightforward model it
// replaced (one struct per line, same victim rule): any divergence in
// a hit, a writeback address, a flush count or a statistic is a bug in
// the packed layout.

namespace {

class RefCache
{
  public:
    explicit RefCache(const CacheConfig &config)
        : _assoc(config.assoc),
          _numSets(unsigned(config.sizeBytes /
                            (std::uint64_t(lineBytes) * config.assoc))),
          _lines(std::size_t(_numSets) * config.assoc)
    {
    }

    Cache::AccessResult
    access(Addr addr, bool is_write)
    {
        Cache::AccessResult result;
        ++_useClock;
        if (Line *line = find(addr)) {
            ++hits;
            line->lastUse = _useClock;
            line->dirty = line->dirty || is_write;
            result.hit = true;
            return result;
        }
        ++misses;
        Line *set = setOf(addr);
        Line *victim = &set[0];
        for (unsigned way = 0; way < _assoc; ++way) {
            if (!set[way].valid) {
                victim = &set[way];
                break;
            }
            if (set[way].lastUse < victim->lastUse)
                victim = &set[way];
        }
        if (victim->valid) {
            ++evictions;
            if (victim->dirty) {
                ++writebacks;
                result.writeback = true;
                result.writebackAddr = victim->tag << lineShift;
            }
        }
        *victim = Line{addr >> lineShift, true, is_write, _useClock};
        return result;
    }

    bool probe(Addr addr) { return find(addr) != nullptr; }

    Cache::FlushResult
    flushPages(const std::vector<PageId> &pages, unsigned page_shift)
    {
        return invalidateIf([&](const Line &l) {
            return std::binary_search(
                pages.begin(), pages.end(),
                PageId(l.tag >> (page_shift - lineShift)));
        });
    }

    Cache::FlushResult
    flushAll()
    {
        return invalidateIf([](const Line &) { return true; });
    }

    std::uint64_t
    validLines() const
    {
        std::uint64_t n = 0;
        for (const Line &l : _lines)
            n += l.valid ? 1 : 0;
        return n;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    unsigned _assoc;
    static constexpr unsigned lineShift = std::countr_zero(lineBytes);
    unsigned _numSets;
    std::vector<Line> _lines;
    std::uint64_t _useClock = 0;

    Line *
    setOf(Addr addr)
    {
        const Addr line = addr >> lineShift;
        return &_lines[std::size_t(line % _numSets) * _assoc];
    }

    Line *
    find(Addr addr)
    {
        Line *set = setOf(addr);
        for (unsigned way = 0; way < _assoc; ++way) {
            if (set[way].valid && set[way].tag == addr >> lineShift)
                return &set[way];
        }
        return nullptr;
    }

    template <typename Pred>
    Cache::FlushResult
    invalidateIf(Pred pred)
    {
        Cache::FlushResult result;
        for (Line &l : _lines) {
            if (!l.valid || !pred(l))
                continue;
            l.valid = false;
            ++result.linesInvalidated;
            if (l.dirty) {
                ++result.dirtyWritebacks;
                ++writebacks;
                l.dirty = false;
            }
        }
        return result;
    }
};

class CacheDifferential
    : public ::testing::TestWithParam<std::tuple<CacheConfig, std::uint64_t>>
{
};

} // namespace

TEST_P(CacheDifferential, PackedTagsMatchTheLineModel)
{
    const auto [config, seed] = GetParam();
    Cache cache(config);
    RefCache ref(config);
    sim::Rng rng(seed);

    constexpr unsigned pageShift = 12;
    // Addresses come from a footprint four times the cache, in 4 KB
    // pages, so sets conflict, lines get evicted dirty, and page
    // flushes find resident lines.
    const std::uint64_t lines = 4 * config.sizeBytes / lineBytes;
    const std::uint64_t pages =
        std::max<std::uint64_t>(1, lines * lineBytes >> pageShift);
    const Addr base = Addr(1) << 36;
    // flushPages visits only each page's sets unless the pages cover
    // every set; count which form each flush takes.
    const std::uint64_t linesPerPage =
        (std::uint64_t(1) << pageShift) / lineBytes;
    const std::uint64_t covering =
        std::max<std::uint64_t>(1, cache.numSets() / linesPerPage);
    std::uint64_t setScans = 0, wholeScans = 0;

    for (int op = 0; op < 200000; ++op) {
        // 90% accesses, 9.8% probes, 0.2% page flushes, and a full flush
        // every 20,000 operations on average (rare enough that the L2
        // fills and evicts between them).
        const std::uint64_t kind = rng.nextBelow(20000);
        if (kind < 18000) {
            const Addr addr = base + rng.nextBelow(lines) * lineBytes +
                              rng.nextBelow(lineBytes);
            const bool write = rng.chance(0.3);
            const auto got = cache.access(addr, write);
            const auto want = ref.access(addr, write);
            ASSERT_EQ(got.hit, want.hit) << "op " << op;
            ASSERT_EQ(got.writeback, want.writeback) << "op " << op;
            ASSERT_EQ(got.writebackAddr, want.writebackAddr) << "op " << op;
        } else if (kind < 19960) {
            const Addr addr = base + rng.nextBelow(lines) * lineBytes;
            ASSERT_EQ(cache.probe(addr), ref.probe(addr)) << "op " << op;
        } else if (kind < 19999) {
            // One page, a few, or enough to cover every set; a page may
            // repeat, and one in ten lies outside the footprint, so it
            // has no resident line.
            std::vector<PageId> flush;
            const std::uint64_t shape = rng.nextBelow(4);
            const std::uint64_t n = shape == 0   ? 1
                                    : shape == 3 ? covering + rng.nextBelow(8)
                                                 : 2 + rng.nextBelow(7);
            for (std::uint64_t i = 0; i < n; ++i) {
                const PageId page = (base >> pageShift) +
                                    rng.nextBelow(pages) +
                                    (rng.chance(0.1) ? pages : 0);
                flush.push_back(page);
                if (rng.chance(0.2))
                    flush.push_back(page);
            }
            std::sort(flush.begin(), flush.end());
            std::vector<PageId> distinct = flush;
            distinct.erase(std::unique(distinct.begin(), distinct.end()),
                           distinct.end());
            ++(distinct.size() * linesPerPage >= cache.numSets()
                   ? wholeScans
                   : setScans);
            const auto got = cache.flushPages(flush, pageShift);
            const auto want = ref.flushPages(flush, pageShift);
            ASSERT_EQ(got.linesInvalidated, want.linesInvalidated)
                << "op " << op;
            ASSERT_EQ(got.dirtyWritebacks, want.dirtyWritebacks)
                << "op " << op;
        } else {
            const auto got = cache.flushAll();
            const auto want = ref.flushAll();
            ASSERT_EQ(got.linesInvalidated, want.linesInvalidated)
                << "op " << op;
            ASSERT_EQ(got.dirtyWritebacks, want.dirtyWritebacks)
                << "op " << op;
        }
        if (op % 1000 == 0) {
            ASSERT_EQ(cache.validLines(), ref.validLines()) << "op " << op;
        }
    }
    EXPECT_EQ(cache.validLines(), ref.validLines());
    EXPECT_EQ(cache.hits, ref.hits);
    EXPECT_EQ(cache.misses, ref.misses);
    EXPECT_EQ(cache.evictions, ref.evictions);
    EXPECT_EQ(cache.writebacks, ref.writebacks);
    EXPECT_GT(cache.hits, 0u);
    EXPECT_GT(cache.evictions, 0u);
    EXPECT_GT(wholeScans, 0u);
    if (linesPerPage < cache.numSets()) {
        EXPECT_GT(setScans, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    L1AndL2, CacheDifferential,
    ::testing::Values(
        std::make_tuple(CacheConfig{16 * 1024, 4, 1}, std::uint64_t(1)),
        std::make_tuple(CacheConfig{16 * 1024, 4, 1}, std::uint64_t(2)),
        std::make_tuple(CacheConfig{2 * 1024 * 1024, 16, 20},
                        std::uint64_t(3))),
    [](const auto &info) {
        std::string name = std::get<0>(info.param).assoc == 4
                               ? "L1_16K_4way_seed"
                               : "L2_2M_16way_seed";
        name += std::to_string(std::get<1>(info.param));
        return name;
    });
