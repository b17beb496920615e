/**
 * @file
 * A naive reference scheduler for differential testing.
 *
 * RefQueue is the textbook implementation of the EventQueue contract:
 * one binary heap ordered by (when, seq), nothing else. No per-tick
 * lists, no ladder window, no spill tier — every structural shortcut
 * the production queue takes is absent, so any divergence between the
 * two under an identical schedule is a bug in the tiered structure
 * (or in the reference, which is small enough to audit by eye).
 *
 * It is test-only: EventQueue::enableReferenceMode() swaps its lists
 * and spill for a RefQueue of (when, seq, node) keys while keeping the
 * clock, sequence numbers, timer slots, node arena and cancellation
 * bookkeeping identical, so the two modes are byte-for-byte comparable
 * at the run-report level. Nothing on the simulation hot path
 * instantiates this in normal runs.
 *
 * The heap stores entries in a plain vector and moves them out with
 * std::pop_heap — never through std::priority_queue, whose const
 * top() cannot release a move-only callback.
 */

#ifndef GRIFFIN_SIM_REF_QUEUE_HH
#define GRIFFIN_SIM_REF_QUEUE_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace griffin::sim {

/**
 * A min-heap of @p Entry under the strict-weak order @p After, where
 * After{}(a, b) is true when @p a pops after @p b (the comparator
 * convention std::push_heap expects for a min-front heap).
 */
template <typename Entry, typename After>
class RefQueue
{
  public:
    bool empty() const { return _heap.empty(); }
    std::size_t size() const { return _heap.size(); }

    /** The entry that pops next. Only valid when not empty. */
    const Entry &
    top() const
    {
        assert(!_heap.empty());
        return _heap.front();
    }

    void
    push(Entry &&e)
    {
        _heap.push_back(std::move(e));
        std::push_heap(_heap.begin(), _heap.end(), After{});
    }

    /** Remove and return the earliest entry (move, not copy). */
    Entry
    pop()
    {
        assert(!_heap.empty());
        std::pop_heap(_heap.begin(), _heap.end(), After{});
        Entry e = std::move(_heap.back());
        _heap.pop_back();
        return e;
    }

    /** Erase every entry matching @p pred, then restore heap order. */
    template <typename Pred>
    void
    removeIf(Pred pred)
    {
        _heap.erase(std::remove_if(_heap.begin(), _heap.end(), pred),
                    _heap.end());
        std::make_heap(_heap.begin(), _heap.end(), After{});
    }

    void clear() { _heap.clear(); }

  private:
    std::vector<Entry> _heap;
};

} // namespace griffin::sim

#endif // GRIFFIN_SIM_REF_QUEUE_HH
