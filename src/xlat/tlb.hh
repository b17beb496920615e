/**
 * @file
 * A set-associative TLB model.
 *
 * Entries map a virtual page to the device whose memory holds it.
 * Per the paper (SS II-B), translations for *remote* physical addresses
 * are never cached in GPU TLBs, so the fill policy is the caller's
 * responsibility; this class provides selective invalidation because
 * Griffin's shootdowns only target the pages being migrated (SS IV).
 *
 * Storage is one array, set-major, like mem::Cache's: each set holds
 * its ways' tag words, (page << 1) | valid, then the same ways' LRU
 * stamps, then their cached locations. A lookup compares one set's tag
 * words (8 bytes per way). A fully associative TLB (one set: the
 * per-CU L1s) first tries the way of its last hit or fill; a page
 * occupies at most one valid way, so that way, when it matches, is the
 * one the scan would find.
 */

#ifndef GRIFFIN_XLAT_TLB_HH
#define GRIFFIN_XLAT_TLB_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/sim/types.hh"

namespace griffin::xlat {

/** TLB geometry and lookup latency. */
struct TlbConfig
{
    unsigned numSets = 1;
    unsigned assoc = 32;
    Tick latency = 1;
};

/**
 * One TLB (L1 per-CU, L2 per-GPU, or the IOMMU's IOTLB).
 */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config);

    const TlbConfig &config() const { return _config; }
    Tick latency() const { return _config.latency; }
    unsigned capacity() const { return _config.numSets * _config.assoc; }

    /**
     * Look up @p page; updates LRU on a hit.
     * @return the cached owning device, or nullopt on a miss.
     */
    std::optional<DeviceId> lookup(PageId page);

    /** Check residency without perturbing LRU (for tests). */
    bool probe(PageId page) const;

    /** Insert (or refresh) a translation. */
    void fill(PageId page, DeviceId location);

    /**
     * Shoot down one page.
     * @retval true the page was resident (an entry was invalidated).
     */
    bool invalidatePage(PageId page);

    /** Shoot down everything (full-flush migration path). */
    std::uint64_t invalidateAll();

    /** Number of valid entries. */
    std::uint64_t validEntries() const;

    /**
     * Visit every valid entry (page, cached location) without
     * perturbing LRU. Used by the invariant auditor to cross-check
     * TLB contents against the page table.
     */
    void forEachValid(
        const std::function<void(PageId, DeviceId)> &visit) const;

    /** @name Statistics @{ */
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t invalidations = 0;
    /** @} */

  private:
    static constexpr std::uint64_t validBit = 1;

    TlbConfig _config;
    std::uint64_t _setMask;
    /**
     * numSets blocks of 3 * assoc words: the set's tag words, then its
     * lastUse stamps, then its locations (one allocation per TLB).
     */
    std::vector<std::uint64_t> _store;
    std::uint64_t _useClock = 0;
    /** Way of the last hit or fill; consulted only when numSets == 1. */
    unsigned _lastWay = 0;

    static std::uint64_t tagOf(PageId page) { return (page << 1) | validBit; }
    /** Index in _store of @p page's set (its first tag word). */
    std::size_t
    setBase(PageId page) const
    {
        return std::size_t(page & _setMask) * _config.assoc * 3;
    }
    /** Way of @p page's set holding @p page, or -1 on a miss. */
    int findWay(std::size_t base, PageId page) const;
};

} // namespace griffin::xlat

#endif // GRIFFIN_XLAT_TLB_HH
