#include "src/gpu/access_counter.hh"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace griffin::gpu {

AccessCounter::AccessCounter(std::size_t capacity, std::uint32_t max_count)
    : _capacity(capacity), _maxCount(max_count)
{
    assert(capacity > 0 && max_count > 0);
}

void
AccessCounter::record(PageId page)
{
    ++recorded;

    if (auto it = _table.find(page); it != _table.end()) {
        if (it->second < _maxCount)
            ++it->second;
        else
            ++saturated;
        return;
    }

    if (_table.size() >= _capacity) {
        // Replace the coldest entry (the first with the smallest
        // count); hardware would keep a min tree. Counts start at 1,
        // so the first count-1 entry ends the scan.
        auto coldest = _table.begin();
        for (auto it = std::next(coldest);
             coldest->second > 1 && it != _table.end(); ++it) {
            if (it->second < coldest->second)
                coldest = it;
        }
        _stock.retire(_table, coldest);
        ++capacityEvictions;
    }
    _stock.insert(_table, page)->second = 1;
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
