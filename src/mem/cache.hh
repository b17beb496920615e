/**
 * @file
 * A set-associative, write-back, write-allocate cache tag model.
 *
 * The model tracks tags, valid and dirty bits only (no data): the
 * simulator is trace-driven, so timing and traffic are what matter.
 * Selective per-page flushing is a first-class operation because both
 * the baseline migration path and Griffin's ACUD need to purge exactly
 * the lines of the pages being migrated (paper SS III-D).
 *
 * Storage is one array, set-major: each set holds its ways' tag words,
 * (lineAddr << 2) | dirty << 1 | valid, followed by the same ways' LRU
 * stamps. A lookup scans one set's tag words (8 bytes per way) and
 * touches the stamps only on a hit or a fill. The set count is a power
 * of two, so the set index is a mask of the line address.
 */

#ifndef GRIFFIN_MEM_CACHE_HH
#define GRIFFIN_MEM_CACHE_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/types.hh"

namespace griffin::mem {

/** Geometry and latency of one cache; its lines are lineBytes. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 16 * 1024;
    unsigned assoc = 4;
    /** Hit latency in cycles; the owner adds miss latencies itself. */
    Tick latency = 1;
};

/**
 * Tag-only cache with true-LRU replacement within each set.
 */
class Cache
{
  public:
    /** Result of a single access. */
    struct AccessResult
    {
        bool hit = false;
        /** A dirty line was evicted; its address is writebackAddr. */
        bool writeback = false;
        Addr writebackAddr = 0;
    };

    /** Result of a flush operation. */
    struct FlushResult
    {
        std::uint64_t linesInvalidated = 0;
        std::uint64_t dirtyWritebacks = 0;
    };

    explicit Cache(const CacheConfig &config);

    const CacheConfig &config() const { return _config; }
    unsigned numSets() const { return _numSets; }
    Tick latency() const { return _config.latency; }

    /**
     * Access the line containing @p addr; a miss allocates the line
     * (write-allocate) and may evict a victim.
     */
    AccessResult access(Addr addr, bool is_write);

    /** Check residency without touching LRU state. */
    bool probe(Addr addr) const;

    /**
     * Invalidate all lines belonging to the given (sorted) pages. Only
     * the sets the pages map to are visited, unless together they
     * cover every set.
     */
    FlushResult flushPages(const std::vector<PageId> &pages,
                           unsigned page_shift);

    /** Invalidate everything (baseline full-flush path). */
    FlushResult flushAll();

    /** Currently valid line count (for tests). */
    std::uint64_t validLines() const;

    /** @name Statistics @{ */
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    /** @} */

  private:
    static constexpr std::uint64_t validBit = 1;
    static constexpr std::uint64_t dirtyBit = 2;
    static constexpr unsigned flagBits = 2;
    static constexpr unsigned lineShift = std::countr_zero(lineBytes);

    CacheConfig _config;
    unsigned _numSets;
    /** _numSets - 1: the set index is lineAddr & _setMask. */
    std::uint64_t _setMask;
    /**
     * numSets blocks of 2 * assoc words: the set's tag words, then its
     * lastUse stamps (one allocation for the whole cache).
     */
    std::vector<std::uint64_t> _store;
    std::uint64_t _useClock = 0;

    Addr lineAddr(Addr addr) const;
    /** Index in _store of @p addr's set (its first tag word). */
    std::size_t setBase(Addr addr) const;
    /** Way of @p set holding line @p line, or -1 on a miss. */
    int findWay(const std::uint64_t *set, Addr line) const;
    /**
     * Invalidate every valid line of sets [first_set, first_set +
     * num_sets) that @p pred accepts (by line address), adding to
     * @p result.
     */
    template <typename Pred>
    void invalidateSetsIf(std::size_t first_set, std::size_t num_sets,
                          FlushResult &result, Pred pred);
};

} // namespace griffin::mem

#endif // GRIFFIN_MEM_CACHE_HH
