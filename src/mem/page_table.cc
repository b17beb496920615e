#include "src/mem/page_table.hh"

#include <cassert>

#include "src/obs/telemetry.hh"

namespace griffin::mem {

const PageInfo PageTable::_defaultInfo{};

PageTable::PageTable(unsigned page_shift, unsigned num_devices)
    : _pageShift(page_shift), _resident(num_devices, 0)
{
    assert(page_shift >= 6 && page_shift <= 21);
    assert(num_devices >= 2);
}

PageInfo &
PageTable::info(PageId page)
{
    auto [it, inserted] = _pages.try_emplace(page);
    if (inserted)
        ++_resident[cpuDeviceId];
    return it->second;
}

const PageInfo &
PageTable::info(PageId page) const
{
    auto it = _pages.find(page);
    return it == _pages.end() ? _defaultInfo : it->second;
}

void
PageTable::setLocation(PageId page, DeviceId dst)
{
    assert(dst < _resident.size());
    PageInfo &pi = info(page);
    if (pi.location != dst) {
        assert(_resident[pi.location] > 0);
        --_resident[pi.location];
        ++_resident[dst];
        ++_migrations;
        // The single commit point of every migration: the telemetry
        // recorded here is what reconciles the per-interval migration
        // counts with the pageTable.migrations aggregate.
        obs::pageCommitted(page, pi.location, dst);
    }
    pi.location = dst;
    pi.migrating = false;
    pi.migrationPending = false;
}

std::uint64_t
PageTable::residentPages(DeviceId dev) const
{
    assert(dev < _resident.size());
    return _resident[dev];
}

double
PageTable::gpuOccupancy(DeviceId gpu) const
{
    assert(gpu != cpuDeviceId && gpu < _resident.size());
    std::uint64_t on_gpus = 0;
    for (std::size_t dev = 1; dev < _resident.size(); ++dev)
        on_gpus += _resident[dev];
    if (on_gpus == 0)
        return 0.0;
    return double(_resident[gpu]) / double(on_gpus);
}

bool
PageTable::hasHighestOccupancy(DeviceId gpu) const
{
    assert(gpu != cpuDeviceId && gpu < _resident.size());
    for (std::size_t dev = 1; dev < _resident.size(); ++dev) {
        if (dev != gpu && _resident[dev] > _resident[gpu])
            return false;
    }
    return true;
}

} // namespace griffin::mem
