/**
 * @file
 * A stable-index slot pool: where in-flight requests keep their state.
 *
 * A request that outlives one event acquires a slot in the pool that
 * holds its kind: a GPU access, from CU issue through its TLB, cache
 * and DCA hops, in the system's access table; an IOMMU translation in
 * the IOMMU's pool. Every hop's event then captures only {this, slot},
 * which always fits an InlineEvent inline, and the last hop releases
 * the slot.
 *
 * Slots live in fixed-size chunks, so a reference to one stays valid
 * while the pool grows: a hop may hold it across a call that acquires
 * another slot. Each chunk also holds its slots' live flags. Released
 * indices are reused most-recent first, so once the pool covers a
 * run's peak in-flight count it stops allocating.
 */

#ifndef GRIFFIN_SIM_SLOT_POOL_HH
#define GRIFFIN_SIM_SLOT_POOL_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace griffin::sim {

/** Index of a slot in a SlotPool. */
using SlotId = std::uint32_t;

/**
 * Slots of T addressed by SlotId. Not copyable: events hold indices
 * into it, so it stays with the component that owns them.
 */
template <typename T>
class SlotPool
{
  public:
    SlotPool() = default;
    SlotPool(const SlotPool &) = delete;
    SlotPool &operator=(const SlotPool &) = delete;

    ~SlotPool()
    {
        for (SlotId i = 0; i < _slots; ++i) {
            if (liveFlag(i))
                at(i)->~T();
        }
    }

    /** Construct a T from @p args (brace-initialised) in a free slot. */
    template <typename... Args>
    SlotId
    acquire(Args &&...args)
    {
        SlotId i;
        if (_free.empty()) {
            i = _slots++;
            if ((i & chunkMask) == 0) {
                _chunks.push_back(std::make_unique_for_overwrite<Chunk>());
                std::fill_n(_chunks.back()->live, chunkSlots, false);
            }
        } else {
            i = _free.back();
            _free.pop_back();
        }
        ::new (raw(i)) T{std::forward<Args>(args)...};
        liveFlag(i) = true;
        ++_liveCount;
        return i;
    }

    T &
    operator[](SlotId i)
    {
        assert(i < _slots && liveFlag(i) && "slot is not live");
        return *at(i);
    }

    /** Destroy slot @p i's state and put the index on the free list. */
    void
    release(SlotId i)
    {
        assert(i < _slots && liveFlag(i) && "releasing a free slot");
        at(i)->~T();
        liveFlag(i) = false;
        _free.push_back(i);
        --_liveCount;
    }

    /** Move slot @p i's state out and release the slot. */
    T
    take(SlotId i)
    {
        T out = std::move((*this)[i]);
        release(i);
        return out;
    }

    /** Slots acquired and not yet released. */
    std::size_t live() const { return _liveCount; }

    /** Call @p visit(T &) on every live slot, in index order. */
    template <typename Visit>
    void
    forEachLive(Visit &&visit)
    {
        for (SlotId i = 0; i < _slots; ++i) {
            if (liveFlag(i))
                visit(*at(i));
        }
    }

  private:
    static constexpr SlotId chunkSlots = 64;
    static constexpr SlotId chunkMask = chunkSlots - 1;

    struct Chunk
    {
        alignas(T) unsigned char bytes[sizeof(T) * chunkSlots];
        /** live[k]: slot k of this chunk holds a constructed T. */
        bool live[chunkSlots];
    };

    void *
    raw(SlotId i)
    {
        return _chunks[i / chunkSlots]->bytes + (i & chunkMask) * sizeof(T);
    }

    T *at(SlotId i) { return std::launder(static_cast<T *>(raw(i))); }

    bool &
    liveFlag(SlotId i)
    {
        return _chunks[i / chunkSlots]->live[i & chunkMask];
    }

    std::vector<std::unique_ptr<Chunk>> _chunks;
    /** Slots ever created: indices [0, _slots) have storage. */
    SlotId _slots = 0;
    std::vector<SlotId> _free;
    std::size_t _liveCount = 0;
};

} // namespace griffin::sim

#endif // GRIFFIN_SIM_SLOT_POOL_HH
