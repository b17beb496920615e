#include "src/mem/cache.hh"

#include <algorithm>
#include <bit>
#include <cassert>

namespace griffin::mem {

Cache::Cache(const CacheConfig &config) : _config(config)
{
    assert(config.assoc > 0);
    assert(config.sizeBytes % (std::uint64_t(lineBytes) * config.assoc)
           == 0 && "size must be a whole number of sets");

    _numSets = unsigned(config.sizeBytes /
                        (std::uint64_t(lineBytes) * config.assoc));
    assert(std::has_single_bit(_numSets) &&
           "set index is a mask: the set count must be a power of two");
    _setMask = _numSets - 1;
    _store.resize(std::size_t(_numSets) * config.assoc * 2);
}

Addr
Cache::lineAddr(Addr addr) const
{
    return addr >> lineShift;
}

std::size_t
Cache::setBase(Addr addr) const
{
    return std::size_t(lineAddr(addr) & _setMask) * _config.assoc * 2;
}

int
Cache::findWay(const std::uint64_t *set, Addr line) const
{
    // A way matches when its tag word, dirty bit aside, is this line's
    // valid tag.
    const std::uint64_t want = (line << flagBits) | validBit;
    for (unsigned way = 0; way < _config.assoc; ++way) {
        if ((set[way] & ~dirtyBit) == want)
            return int(way);
    }
    return -1;
}

Cache::AccessResult
Cache::access(Addr addr, bool is_write)
{
    AccessResult result;
    ++_useClock;

    const Addr line = lineAddr(addr);
    std::uint64_t *tags = &_store[setBase(addr)];
    std::uint64_t *lastUse = tags + _config.assoc;
    const std::uint64_t dirty = is_write ? dirtyBit : 0;

    if (const int way = findWay(tags, line); way >= 0) {
        ++hits;
        lastUse[way] = _useClock;
        tags[way] |= dirty;
        result.hit = true;
        return result;
    }

    ++misses;

    // Pick a victim: an invalid way if one exists, else true LRU.
    unsigned victim = 0;
    for (unsigned way = 0; way < _config.assoc; ++way) {
        if (!(tags[way] & validBit)) {
            victim = way;
            break;
        }
        if (lastUse[way] < lastUse[victim])
            victim = way;
    }

    const std::uint64_t old = tags[victim];
    if (old & validBit) {
        ++evictions;
        if (old & dirtyBit) {
            ++writebacks;
            result.writeback = true;
            result.writebackAddr = (old >> flagBits) << lineShift;
        }
    }

    tags[victim] = (line << flagBits) | validBit | dirty;
    lastUse[victim] = _useClock;
    return result;
}

bool
Cache::probe(Addr addr) const
{
    return findWay(&_store[setBase(addr)], lineAddr(addr)) >= 0;
}

template <typename Pred>
void
Cache::invalidateSetsIf(std::size_t first_set, std::size_t num_sets,
                        FlushResult &result, Pred pred)
{
    const std::size_t assoc = _config.assoc;
    const std::size_t end = (first_set + num_sets) * 2 * assoc;
    for (std::size_t base = first_set * 2 * assoc; base < end;
         base += 2 * assoc) {
        for (std::size_t way = base; way < base + assoc; ++way) {
            const std::uint64_t tag = _store[way];
            if (!(tag & validBit) || !pred(tag >> flagBits))
                continue;
            _store[way] = 0;
            ++result.linesInvalidated;
            if (tag & dirtyBit) {
                ++result.dirtyWritebacks;
                ++writebacks;
            }
        }
    }
}

Cache::FlushResult
Cache::flushPages(const std::vector<PageId> &pages, unsigned page_shift)
{
    assert(std::is_sorted(pages.begin(), pages.end()));
    assert(page_shift >= lineShift);
    const unsigned page_line_shift = page_shift - lineShift;
    const std::uint64_t lines_per_page = std::uint64_t(1) << page_line_shift;
    std::uint64_t distinct = 0;
    for (std::size_t i = 0; i < pages.size(); ++i)
        distinct += i == 0 || pages[i] != pages[i - 1];
    FlushResult result;

    // A page's lines sit in lines_per_page consecutive sets (or in every
    // set, when a page spans the whole cache). Visit only those sets,
    // unless the pages together cover every set anyway.
    if (distinct * lines_per_page >= _numSets) {
        invalidateSetsIf(0, _numSets, result, [&](Addr line) {
            return std::binary_search(pages.begin(), pages.end(),
                                      PageId(line >> page_line_shift));
        });
        return result;
    }
    for (std::size_t i = 0; i < pages.size(); ++i) {
        const PageId page = pages[i];
        if (i > 0 && pages[i - 1] == page)
            continue;
        invalidateSetsIf(std::size_t((page << page_line_shift) & _setMask),
                         std::size_t(lines_per_page), result,
                         [&](Addr line) {
            return PageId(line >> page_line_shift) == page;
        });
    }
    return result;
}

Cache::FlushResult
Cache::flushAll()
{
    FlushResult result;
    invalidateSetsIf(0, _numSets, result, [](Addr) { return true; });
    return result;
}

std::uint64_t
Cache::validLines() const
{
    std::uint64_t count = 0;
    const std::size_t assoc = _config.assoc;
    for (std::size_t base = 0; base < _store.size(); base += 2 * assoc) {
        for (std::size_t way = base; way < base + assoc; ++way)
            count += _store[way] & validBit;
    }
    return count;
}

} // namespace griffin::mem
