#include "src/xlat/tlb.hh"

#include <bit>
#include <cassert>

namespace griffin::xlat {

Tlb::Tlb(const TlbConfig &config)
    : _config(config), _setMask(config.numSets - 1)
{
    assert(config.numSets > 0 && config.assoc > 0);
    assert(std::has_single_bit(config.numSets) &&
           "set index is a mask: numSets must be a power of two");
    _store.resize(std::size_t(config.numSets) * config.assoc * 3);
}

int
Tlb::findWay(std::size_t base, PageId page) const
{
    const std::uint64_t *tags = &_store[base];
    const std::uint64_t want = tagOf(page);
    // A page occupies at most one valid way, so the last-hit way, when
    // it matches, is the way the scan would find.
    if (_config.numSets == 1 && tags[_lastWay] == want)
        return int(_lastWay);
    for (unsigned way = 0; way < _config.assoc; ++way) {
        if (tags[way] == want)
            return int(way);
    }
    return -1;
}

std::optional<DeviceId>
Tlb::lookup(PageId page)
{
    ++_useClock;
    const std::size_t base = setBase(page);
    if (const int way = findWay(base, page); way >= 0) {
        ++hits;
        _lastWay = unsigned(way);
        std::uint64_t *lastUse = &_store[base + _config.assoc];
        const std::uint64_t *locations = lastUse + _config.assoc;
        lastUse[way] = _useClock;
        return DeviceId(locations[way]);
    }
    ++misses;
    return std::nullopt;
}

bool
Tlb::probe(PageId page) const
{
    return findWay(setBase(page), page) >= 0;
}

void
Tlb::fill(PageId page, DeviceId location)
{
    ++_useClock;
    ++fills;

    const std::size_t base = setBase(page);
    std::uint64_t *tags = &_store[base];
    std::uint64_t *lastUse = tags + _config.assoc;
    std::uint64_t *locations = lastUse + _config.assoc;

    int way = findWay(base, page);
    if (way < 0) {
        // Pick a victim: an invalid way if one exists, else true LRU.
        way = 0;
        for (unsigned w = 0; w < _config.assoc; ++w) {
            if (!(tags[w] & validBit)) {
                way = int(w);
                break;
            }
            if (lastUse[w] < lastUse[way])
                way = int(w);
        }
        tags[way] = tagOf(page);
    }
    locations[way] = location;
    lastUse[way] = _useClock;
    _lastWay = unsigned(way);
}

bool
Tlb::invalidatePage(PageId page)
{
    const std::size_t base = setBase(page);
    if (const int way = findWay(base, page); way >= 0) {
        _store[base + way] = 0;
        ++invalidations;
        return true;
    }
    return false;
}

std::uint64_t
Tlb::invalidateAll()
{
    std::uint64_t count = 0;
    const std::size_t assoc = _config.assoc;
    for (std::size_t base = 0; base < _store.size(); base += 3 * assoc) {
        for (std::size_t way = base; way < base + assoc; ++way) {
            count += _store[way] & validBit;
            _store[way] = 0;
        }
    }
    invalidations += count;
    return count;
}

std::uint64_t
Tlb::validEntries() const
{
    std::uint64_t count = 0;
    const std::size_t assoc = _config.assoc;
    for (std::size_t base = 0; base < _store.size(); base += 3 * assoc) {
        for (std::size_t way = base; way < base + assoc; ++way)
            count += _store[way] & validBit;
    }
    return count;
}

void
Tlb::forEachValid(
    const std::function<void(PageId, DeviceId)> &visit) const
{
    const std::size_t assoc = _config.assoc;
    for (std::size_t base = 0; base < _store.size(); base += 3 * assoc) {
        for (std::size_t way = 0; way < assoc; ++way) {
            const std::uint64_t tag = _store[base + way];
            if (tag & validBit)
                visit(tag >> 1, DeviceId(_store[base + 2 * assoc + way]));
        }
    }
}

} // namespace griffin::xlat
