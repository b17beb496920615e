#include "src/sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "src/obs/hostprof.hh"
#include "src/sim/log.hh"

namespace griffin::sim {

EventQueue::~EventQueue() = default;

void
EventQueue::enableReferenceMode()
{
    // The modes share clocks, counters, timer slots and the arena but
    // not their lists, so switching is only sound while nothing is
    // resident.
    assert(_size == 0 && _deadEntries == 0 && _executed == 0 &&
           "reference mode must be enabled on a fresh queue");
    _refMode = true;
}

Tick
EventQueue::clampToNow(Tick when) const
{
    // A component computed an absolute time that already passed —
    // diagnose loudly, then clamp so time stays monotone.
    GLOG(Warn, "scheduleAt(" << when << ") is in the past (now " << _now
                             << "); clamping to now");
    return _now;
}

EventQueue::Entry &
EventQueue::claimRare(Tick when, std::uint32_t timer_slot1,
                      std::uint32_t timer_gen)
{
    if (_size == 0) {
        // The queue is empty: drop any tombstone residue and re-anchor
        // the ladder window at the current time, restoring the
        // invariant that resident ticks span less than one window.
        resetWindow();
    }
    if (_free == nil) {
        // Grow by one chunk, threading its nodes onto the free list so
        // the lowest index is taken first.
        const auto base = static_cast<std::uint32_t>(nodesAllocated());
        _chunks.push_back(std::make_unique<Entry[]>(nodesPerChunk));
        for (std::uint32_t k = nodesPerChunk; k-- > 0;)
            freeNode(base + k);
    }
    const std::uint64_t seq = _nextSeq;
    const std::uint32_t i = take(when, timer_slot1, timer_gen);
    if (_refMode) {
        _ref.push({when, seq, i});
    } else if (when == _now) {
        append(_cur, i);
    } else if (when < _windowEnd) {
        fileInLadder(i, when);
    } else {
        ++_spillInserts;
        _spill.push_back({when, seq, i});
        std::push_heap(_spill.begin(), _spill.end(), Later{});
    }
    return node(i);
}

std::uint32_t
EventQueue::armTimerSlot()
{
    std::uint32_t slot;
    if (!_freeTimerSlots.empty()) {
        slot = _freeTimerSlots.back();
        _freeTimerSlots.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(_timerSlots.size());
        _timerSlots.emplace_back();
    }
    ++_pendingTimerCount;
    return slot;
}

TimerId
EventQueue::fileTimer(std::uint32_t slot, Tick when)
{
    const std::uint32_t gen = _timerSlots[slot].gen;
    claim(when, slot + 1, gen);
    return (TimerId(gen) << 32) | slot;
}

void
EventQueue::releaseTimerSlot(std::uint32_t slot)
{
    TimerSlot &s = _timerSlots[slot];
    s.fn = nullptr;
    // Never let a generation wrap to 0: an id with gen 0 in slot 0
    // would collide with invalidTimerId.
    if (++s.gen == 0)
        s.gen = 1;
    _freeTimerSlots.push_back(slot);
}

bool
EventQueue::cancelTimeout(TimerId id)
{
    if (id == invalidTimerId)
        return false;
    const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffffu);
    const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (slot >= _timerSlots.size() || _timerSlots[slot].gen != gen)
        return false;

    // O(1): destroy the callback and invalidate the node via the
    // generation bump. The node is now a tombstone that the pops,
    // settle() or amortized compaction free.
    releaseTimerSlot(slot);
    --_pendingTimerCount;
    --_size;
    ++_deadEntries;

    if (_size == 0) {
        // Everything left is tombstones; reclaim them all right now so
        // an idle queue holds no memory for cancelled work.
        resetWindow();
    } else if (_deadEntries > 64 && _deadEntries > _size) {
        compact();
    }
    return true;
}

int
EventQueue::nextBucketIndex() const
{
    // Circular scan of the non-empty bitmap anchored at the current
    // position inside the window: bucket (anchor + p) % N holds tick
    // anchor + p, so index order in this scan IS time order.
    const Tick anchor = std::max(_now, _windowBase);
    const std::size_t start = anchor & (ladderBuckets - 1);
    const std::size_t startWord = start >> 6;
    const std::size_t startBit = start & 63;
    for (std::size_t k = 0; k <= bitmapWords; ++k) {
        const std::size_t w = (startWord + k) % bitmapWords;
        std::uint64_t word = _bits[w];
        if (k == 0)
            word &= ~std::uint64_t(0) << startBit;
        else if (k == bitmapWords)
            word &= startBit ? ~(~std::uint64_t(0) << startBit)
                             : std::uint64_t(0);
        if (word)
            return static_cast<int>(w * 64 +
                                    std::size_t(std::countr_zero(word)));
    }
    return -1;
}

void
EventQueue::rollWindow(Tick base)
{
    // The window becomes [base, base + N). The ladder holds no tick
    // outside (base, old end) and the spill none below the old end, so
    // every spill node that now fits lands on an empty bucket; heap
    // pops come out in (when, seq) order, and any later direct insert
    // at the same tick has a larger seq, so bucket append order stays
    // schedule order (DESIGN.md §14.1).
    _windowBase = base;
    _windowEnd = base + ladderBuckets;
    while (!_spill.empty() && _spill.front().when < _windowEnd) {
        std::pop_heap(_spill.begin(), _spill.end(), Later{});
        const Key k = _spill.back();
        _spill.pop_back();
        if (reclaim(k.node)) {
            --_deadEntries;
            continue;
        }
        fileInLadder(k.node, k.when);
    }
}

Tick
EventQueue::nextTime()
{
    return _size == 0 ? maxTick : settle().when;
}

const EventQueue::Entry &
EventQueue::settle()
{
    assert(_size > 0);
    if (_refMode) {
        while (reclaim(_ref.top().node)) {
            _ref.pop();
            --_deadEntries;
        }
        return node(_ref.top().node);
    }
    for (;;) {
        int b = -1;
        List *l = &_cur;
        if (_cur.head == nil) {
            b = nextBucketIndex();
            l = b >= 0 ? &_ladder[static_cast<std::size_t>(b)] : nullptr;
        }
        if (l) {
            const std::uint32_t i = l->head;
            const Entry &e = node(i);
            if (alive(e)) {
                // Cached only here, after any prune: a prune that
                // empties a bucket clears its bit, which drops the cache.
                if (b >= 0)
                    _settledBucket = b;
                return e;
            }
            l->head = e.next;
            freeNode(i);
            --_deadEntries;
            if (b >= 0 && l->head == nil)
                clearBit(static_cast<std::size_t>(b));
            continue;
        }
        // size() > 0, so a live node remains in the spill.
        assert(!_spill.empty());
        if (alive(node(_spill.front().node)))
            return node(_spill.front().node);
        std::pop_heap(_spill.begin(), _spill.end(), Later{});
        freeNode(_spill.back().node);
        _spill.pop_back();
        --_deadEntries;
    }
}

void
EventQueue::resetWindow()
{
    // With size() == 0 every resident node is a tombstone.
    assert(_size == 0);
    if (_deadEntries > 0)
        compact();
    _windowBase = _now;
    _windowEnd = _now + ladderBuckets;
}

void
EventQueue::filter(List &l)
{
    std::uint32_t i = l.head;
    l = List{};
    while (i != nil) {
        const std::uint32_t next = node(i).next;
        if (!reclaim(i))
            append(l, i);
        i = next;
    }
}

void
EventQueue::compact()
{
    const auto isDead = [this](const Key &k) { return reclaim(k.node); };
    if (_refMode) {
        _ref.removeIf(isDead);
        _deadEntries = 0;
        return;
    }

    // A running callback's node is in no list, so every list can be
    // relinked; an emptied bucket clears its bit.
    filter(_cur);
    for (std::size_t w = 0; w < bitmapWords; ++w) {
        std::uint64_t word = _bits[w];
        while (word) {
            const std::size_t idx =
                w * 64 + std::size_t(std::countr_zero(word));
            word &= word - 1;
            filter(_ladder[idx]);
            if (_ladder[idx].head == nil)
                clearBit(idx);
        }
    }

    // Spill: filter, then rebuild; the comparator restores the exact
    // (when, seq) pop order.
    _spill.erase(std::remove_if(_spill.begin(), _spill.end(), isDead),
                 _spill.end());
    std::make_heap(_spill.begin(), _spill.end(), Later{});

    _deadEntries = 0;
}

std::size_t
EventQueue::residentEntries() const
{
    if (_refMode)
        return _ref.size();
    const auto length = [this](const List &l) {
        std::size_t n = 0;
        for (std::uint32_t i = l.head; i != nil; i = node(i).next)
            ++n;
        return n;
    };
    std::size_t total = length(_cur) + _spill.size();
    for (std::size_t w = 0; w < bitmapWords; ++w) {
        std::uint64_t word = _bits[w];
        while (word) {
            const std::size_t idx =
                w * 64 + std::size_t(std::countr_zero(word));
            word &= word - 1;
            total += length(_ladder[idx]);
        }
    }
    return total;
}

std::uint32_t
EventQueue::popLive()
{
    for (;;) {
        if (const std::uint32_t i = popSameTick(); i != nil)
            return i;
        const int b =
            _settledBucket >= 0 ? _settledBucket : nextBucketIndex();
        if (b >= 0) {
            // Time moves to the bucket's tick: its list becomes the
            // current tick's, and the window rolls with it so the next
            // 1023 ticks stay in the ladder.
            List &bk = _ladder[static_cast<std::size_t>(b)];
            const Tick t = node(bk.head).when;
            _cur = bk;
            bk = List{};
            clearBit(static_cast<std::size_t>(b));
            rollWindow(t);
            continue;
        }
        // The current tick and the ladder are empty: jump to the
        // spill's earliest node. A tombstone there is freed by the roll
        // and the loop jumps again.
        if (_spill.empty())
            return nil;
        rollWindow(_spill.front().when);
    }
}

void
EventQueue::invokeProfiled(obs::HostProfiler &prof, const EventFn &fn)
{
    // Bracket the dispatch so the profiler can attribute the callback's
    // wall time; end it even if the callback throws (the watchdog
    // surfaces errors as exceptions mid-run).
    prof.beginDispatch();
    try {
        fn();
    } catch (...) {
        prof.endDispatch();
        throw;
    }
    prof.endDispatch();
}

void
EventQueue::fireTimer(std::uint32_t slot)
{
    // The callback lives in the slot. The slot vector may grow while
    // it runs, so it runs from a local.
    const EventFn fn = std::move(_timerSlots[slot].fn);
    releaseTimerSlot(slot);
    --_pendingTimerCount;
    invoke(fn);
}

bool
EventQueue::runOne()
{
    if (_size == 0)
        return false;
    if (_refMode) {
        // The reference heap pops in global (when, seq) order; free any
        // tombstone that reached the front.
        for (;;) {
            const std::uint32_t i = _ref.pop().node;
            if (!reclaim(i)) {
                dispatch(i);
                return true;
            }
            --_deadEntries;
        }
    }
    const std::uint32_t i = popLive();
    assert(i != nil && "size() > 0 but no live node found");
    dispatch(i);
    return true;
}

Tick
EventQueue::run()
{
    while (runOne()) {
    }
    return _now;
}

Tick
EventQueue::runUntil(Tick limit)
{
    for (;;) {
        const Tick next = nextTime();
        if (next == maxTick || next > limit)
            break;
        runOne();
    }
    // The caller asked for this much simulated time to pass; advance
    // even when the queue drained early (see the header contract).
    if (_now < limit)
        _now = limit;
    return _now;
}

} // namespace griffin::sim
