#include "src/gpu/access_counter.hh"

#include <algorithm>
#include <cassert>

namespace griffin::gpu {

AccessCounter::AccessCounter(std::size_t capacity, std::uint32_t max_count)
    : _capacity(capacity), _maxCount(max_count)
{
    assert(capacity > 0 && max_count > 0);
    assert(max_count < _byCount.size() && "counts index the histogram");
}

void
AccessCounter::record(PageId page)
{
    ++recorded;

    if (auto it = _table.find(page); it != _table.end()) {
        const std::uint32_t count = it->second;
        if (count == _maxCount) {
            ++saturated;
            return;
        }
        it->second = count + 1;
        --_byCount[count];
        ++_byCount[count + 1];
        // The last entry at the minimum moved up by one, and so did
        // the minimum.
        if (count == _minCount && _byCount[count] == 0)
            _minCount = count + 1;
        return;
    }

    if (_table.size() >= _capacity) {
        // Replace the coldest entry: the first with the smallest
        // count, which the histogram already knows (hardware would
        // keep a min tree).
        auto coldest = _table.begin();
        while (coldest->second != _minCount) {
            ++coldest;
            assert(coldest != _table.end());
        }
        --_byCount[_minCount];
        _stock.retire(_table, coldest);
        ++capacityEvictions;
    }
    _stock.insert(_table, page)->second = 1;
    ++_byCount[1];
    _minCount = 1;
}

std::vector<PageCount>
AccessCounter::collectTop(std::size_t max_pages)
{
    std::vector<PageCount> all;
    all.reserve(_table.size());
    for (const auto &[page, count] : _table)
        all.push_back(PageCount{page, count});
    for (auto it = _table.begin(); it != _table.end();)
        it = _stock.retire(_table, it);
    _byCount.fill(0);
    _minCount = 0;

    std::sort(all.begin(), all.end(), [](const auto &a, const auto &b) {
        if (a.count != b.count)
            return a.count > b.count;
        return a.page < b.page; // deterministic tie-break
    });
    if (all.size() > max_pages)
        all.resize(max_pages);
    return all;
}

} // namespace griffin::gpu
