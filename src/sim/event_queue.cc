#include "src/sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <iterator>
#include <utility>

#include "src/obs/hostprof.hh"
#include "src/sim/log.hh"

namespace griffin::sim {

EventQueue::~EventQueue() = default;

void
EventQueue::enableReferenceMode()
{
    // The modes share clocks, counters, and timer slots but not entry
    // storage, so switching is only sound while nothing is resident.
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
EventQueue::claim(Tick when, std::uint32_t timer_slot1,
                  std::uint32_t timer_gen)
{
    if (_size == 0) {
        // The queue is empty: drop any tombstone residue and re-anchor
        // the ladder window at the current time, restoring the
        // invariant that resident ticks span less than one window.
        resetWindow();
    }
    ++_size;
    const std::uint64_t seq = _nextSeq++;
    if (!_refMode) {
        if (when == _now)
            return _ring.emplace_back(when, seq, timer_slot1, timer_gen);
        if (when < _windowEnd) {
            assert(when > _now && when >= _windowBase);
            const std::size_t idx = when & (ladderBuckets - 1);
            setBit(idx);
            return _ladder[idx].v.emplace_back(when, seq, timer_slot1,
                                               timer_gen);
        }
    }
    // A heap entry cannot be built in place: pushing it reorders the
    // heap. Build it here and file it once the callback is in.
    _staged = Entry(when, seq, timer_slot1, timer_gen);
    return _staged;
}

void
EventQueue::fileStaged()
{
    if (_refMode) {
        _ref.push(std::move(_staged));
        return;
    }
    ++_spillInserts;
    _spill.push_back(std::move(_staged));
    std::push_heap(_spill.begin(), _spill.end(), Later{});
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
    Entry &e = claim(when, slot + 1, gen);
    if (&e == &_staged)
        fileStaged();
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

    // O(1): destroy the callback and invalidate the queue entry via
    // the generation bump. The entry itself is now a tombstone that
    // the pops, settle() or amortized compaction reclaim.
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
EventQueue::migrateBucket(std::size_t idx)
{
    // The batch and the ring are spent; the bucket (one tick's FIFO,
    // already in schedule order) becomes the batch. Swapping vectors
    // recycles whichever capacity the batch built up.
    assert(_batchHead == _batch.size() && _ringHead == _ring.size());
    Bucket &bk = _ladder[idx];
    _batch.clear();
    _batch.swap(bk.v);
    _batchHead = bk.head;
    bk.head = 0;
    clearBit(idx);
}

void
EventQueue::rollWindow(Tick base)
{
    // The window becomes [base, base + N). The ladder holds no tick
    // outside (base, old end) and the spill none below the old end, so
    // every spill entry that now fits lands in an empty bucket; heap
    // pops come out in (when, seq) order, and any later direct insert
    // at the same tick has a larger seq, so bucket append order stays
    // schedule order (DESIGN.md §14.1).
    _windowBase = base;
    _windowEnd = base + ladderBuckets;
    while (!_spill.empty() && _spill.front().when < _windowEnd) {
        std::pop_heap(_spill.begin(), _spill.end(), Later{});
        Entry &e = _spill.back();
        if (alive(e)) {
            const std::size_t idx = e.when & (ladderBuckets - 1);
            _ladder[idx].v.push_back(std::move(e));
            setBit(idx);
        } else {
            --_deadEntries;
        }
        _spill.pop_back();
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
        while (!alive(_ref.top())) {
            _ref.pop();
            --_deadEntries;
        }
        return _ref.top();
    }
    for (;;) {
        // The batch may be dispatching: only advance its head.
        if (_batchHead < _batch.size()) {
            if (alive(_batch[_batchHead]))
                return _batch[_batchHead];
            ++_batchHead;
            --_deadEntries;
            continue;
        }
        if (_ringHead < _ring.size()) {
            if (alive(_ring[_ringHead]))
                return _ring[_ringHead];
            ++_ringHead;
            --_deadEntries;
            if (_ringHead == _ring.size()) {
                _ring.clear();
                _ringHead = 0;
            }
            continue;
        }
        const int b = nextBucketIndex();
        if (b >= 0) {
            Bucket &bk = _ladder[static_cast<std::size_t>(b)];
            if (alive(bk.v[bk.head]))
                return bk.v[bk.head];
            ++bk.head;
            --_deadEntries;
            if (bk.head == bk.v.size()) {
                bk.v.clear();
                bk.head = 0;
                clearBit(static_cast<std::size_t>(b));
            }
            continue;
        }
        // size() > 0, so a live entry remains in the spill.
        assert(!_spill.empty());
        if (alive(_spill.front()))
            return _spill.front();
        std::pop_heap(_spill.begin(), _spill.end(), Later{});
        _spill.pop_back();
        --_deadEntries;
    }
}

void
EventQueue::resetWindow()
{
    assert(_size == 0);
    if (_refMode) {
        _ref.clear();
        _deadEntries = 0;
        return;
    }
    if (_deadEntries > 0) {
        // Every resident entry is a tombstone. The batch may be
        // dispatching, so its suffix is skipped, not erased.
        _batchHead = _batch.size();
        _ring.clear();
        _ringHead = 0;
        for (std::size_t w = 0; w < bitmapWords; ++w) {
            std::uint64_t word = _bits[w];
            while (word) {
                const std::size_t idx =
                    w * 64 + std::size_t(std::countr_zero(word));
                word &= word - 1;
                _ladder[idx].v.clear();
                _ladder[idx].head = 0;
            }
            _bits[w] = 0;
        }
        _spill.clear();
        _deadEntries = 0;
    }
    _windowBase = _now;
    _windowEnd = _now + ladderBuckets;
}

void
EventQueue::compact()
{
    const auto isDead = [this](const Entry &e) { return !alive(e); };

    if (_refMode) {
        _ref.removeIf(isDead);
        _deadEntries = 0;
        return;
    }

    // Batch: filter the unconsumed suffix only. The consumed prefix
    // holds the entry whose callback may be running right now.
    _batch.erase(
        std::remove_if(_batch.begin() +
                           static_cast<std::ptrdiff_t>(_batchHead),
                       _batch.end(), isDead),
        _batch.end());

    // Ring: order-preserving filter of the un-consumed suffix.
    _ring.erase(_ring.begin(),
                _ring.begin() + static_cast<std::ptrdiff_t>(_ringHead));
    _ringHead = 0;
    _ring.erase(std::remove_if(_ring.begin(), _ring.end(), isDead),
                _ring.end());

    // Ladder: the same per bucket; an emptied bucket clears its bit.
    for (std::size_t w = 0; w < bitmapWords; ++w) {
        std::uint64_t word = _bits[w];
        while (word) {
            const std::size_t idx =
                w * 64 + std::size_t(std::countr_zero(word));
            word &= word - 1;
            Bucket &bk = _ladder[idx];
            if (bk.head > 0) {
                bk.v.erase(bk.v.begin(),
                           bk.v.begin() +
                               static_cast<std::ptrdiff_t>(bk.head));
                bk.head = 0;
            }
            bk.v.erase(std::remove_if(bk.v.begin(), bk.v.end(), isDead),
                       bk.v.end());
            if (bk.v.empty())
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
    std::size_t total = (_batch.size() - _batchHead) +
                        (_ring.size() - _ringHead) + _spill.size();
    for (std::size_t w = 0; w < bitmapWords; ++w) {
        std::uint64_t word = _bits[w];
        while (word) {
            const std::size_t idx =
                w * 64 + std::size_t(std::countr_zero(word));
            word &= word - 1;
            const Bucket &bk = _ladder[idx];
            total += bk.v.size() - bk.head;
        }
    }
    return total;
}

EventQueue::Entry *
EventQueue::popSameTick()
{
    for (;;) {
        while (_batchHead < _batch.size()) {
            Entry &e = _batch[_batchHead++];
            if (alive(e))
                return &e;
            --_deadEntries;
        }
        if (_ringHead == _ring.size()) {
            _ring.clear();
            _ringHead = 0;
            return nullptr;
        }
        // The batch is spent and no callback runs from it: the ring's
        // events become the next batch, the spent batch the new ring.
        _batch.clear();
        _batch.swap(_ring);
        _batchHead = _ringHead;
        _ringHead = 0;
    }
}

EventQueue::Entry *
EventQueue::popLive()
{
    for (;;) {
        if (Entry *e = popSameTick())
            return e;
        const int b = nextBucketIndex();
        if (b >= 0) {
            // Time moves to the bucket's tick: roll the window with it
            // so the next 1023 ticks stay in the ladder.
            const Bucket &bk = _ladder[static_cast<std::size_t>(b)];
            const Tick t = bk.v.back().when;
            migrateBucket(static_cast<std::size_t>(b));
            rollWindow(t);
            continue;
        }
        // Ring and ladder are empty: jump to the spill's earliest entry.
        // A tombstone there is dropped by the roll and the loop jumps
        // again.
        if (_spill.empty())
            return nullptr;
        rollWindow(_spill.front().when);
    }
}

namespace {

/** Call @p fn, inside a profiler dispatch bracket when one is attached. */
void
invoke(const EventFn &fn)
{
    if (auto *prof = obs::Telemetry::current().prof) {
        // Bracket the dispatch so the profiler can attribute the
        // callback's wall time; end it even if the callback throws
        // (the watchdog surfaces errors as exceptions mid-run).
        prof->beginDispatch();
        try {
            fn();
        } catch (...) {
            prof->endDispatch();
            throw;
        }
        prof->endDispatch();
    } else {
        fn();
    }
}

} // namespace

void
EventQueue::dispatch(Entry &e)
{
    assert(e.when >= _now);
    _now = e.when;
    ++_executed;
    --_size;

    if (e.timerSlot1 == 0) {
        invoke(e.fn);
        // The entry stays where it is until a later pop recycles the
        // batch; release its capture now.
        e.fn = nullptr;
    } else {
        // A live timer entry: the callback lives in the slot, and
        // firing disarms the slot exactly like a cancel would. The
        // slot vector may grow while the callback runs, so it runs
        // from a local.
        const EventFn fn = std::move(_timerSlots[e.timerSlot1 - 1].fn);
        releaseTimerSlot(e.timerSlot1 - 1);
        --_pendingTimerCount;
        invoke(fn);
    }
    // A drained queue holds no live work: purge any tombstone residue
    // so empty() also means "no resident memory".
    if (_size == 0)
        resetWindow();
}

bool
EventQueue::runOne()
{
    if (_size == 0)
        return false;
    if (_refMode) {
        // The reference heap pops in global (when, seq) order; skip
        // any tombstone that reached the front. The entry runs from a
        // local: the heap may reorder while its callback runs.
        for (;;) {
            Entry e = _ref.pop();
            if (alive(e)) {
                dispatch(e);
                return true;
            }
            --_deadEntries;
        }
    }
    Entry *e = popLive();
    assert(e && "size() > 0 but no live entry found");
    dispatch(*e);
    return true;
}

bool
EventQueue::runSameTick()
{
    if (_size == 0)
        return false;
    if (_refMode)
        return settle().when == _now && runOne();
    Entry *e = popSameTick();
    if (!e)
        return false;
    dispatch(*e);
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
