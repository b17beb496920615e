/**
 * @file
 * The per-Shader-Engine page access counter table that feeds Griffin's
 * Dynamic Page Classification (paper SS III-C and SS V "Hardware Cost").
 *
 * Hardware budget follows the paper: 100 entries per table, each
 * holding a 36-bit page id and an 8-bit saturating count; the driver
 * periodically collects the top entries (20 fit in one 110-byte
 * message) and the table resets.
 */

#ifndef GRIFFIN_GPU_ACCESS_COUNTER_HH
#define GRIFFIN_GPU_ACCESS_COUNTER_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/node_stock.hh"
#include "src/sim/types.hh"

namespace griffin::gpu {

/** One collected (page, count) sample. */
struct PageCount
{
    PageId page;
    std::uint32_t count;
};

/**
 * A bounded page -> saturating-count table.
 */
class AccessCounter
{
  public:
    /**
     * @param capacity  entries in the hardware table (paper: 100).
     * @param max_count saturation value of the counter (paper: 0xff).
     */
    explicit AccessCounter(std::size_t capacity = 100,
                           std::uint32_t max_count = 0xff);

    std::size_t capacity() const { return _capacity; }

    /**
     * Record one post-coalescing transaction to @p page. When the
     * table is full the entry with the smallest count (the first in
     * iteration order) is replaced, which keeps the hottest pages
     * resident.
     */
    void record(PageId page);

    /**
     * Collect up to @p max_pages entries with the largest counts and
     * reset the table (the paper resets counters after each transfer
     * to the driver).
     */
    std::vector<PageCount> collectTop(std::size_t max_pages);

    /** Current entry count (for tests). */
    std::size_t size() const { return _table.size(); }

    /** @p page's count, 0 when it has no entry (for tests). */
    std::uint32_t
    countOf(PageId page) const
    {
        const auto it = _table.find(page);
        return it == _table.end() ? 0 : it->second;
    }

    /** @name Statistics @{ */
    std::uint64_t recorded = 0;
    std::uint64_t saturated = 0;
    std::uint64_t capacityEvictions = 0;
    /** @} */

  private:
    using Table = std::unordered_map<PageId, std::uint32_t>;

    std::size_t _capacity;
    std::uint32_t _maxCount;
    Table _table;
    /**
     * _byCount[c]: entries whose count is c. With _minCount, the
     * smallest count of any entry, it lets the eviction walk stop at
     * the first entry holding the minimum instead of scanning on.
     */
    std::array<std::uint32_t, 0x100> _byCount{};
    std::uint32_t _minCount = 0;
    /** Nodes of evicted and collected entries, reused by record(). */
    sim::NodeStock<Table> _stock;
};

} // namespace griffin::gpu

#endif // GRIFFIN_GPU_ACCESS_COUNTER_HH
