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

void
EventQueue::scheduleAt(Tick when, EventFn fn)
{
    if (when < _now) {
        // A component computed an absolute time that already passed —
        // diagnose loudly, then clamp so time stays monotone.
        GLOG(Warn, "scheduleAt(" << when << ") is in the past (now "
                                 << _now << "); clamping to now");
        when = _now;
    }
    Entry e;
    e.when = when;
    e.seq = _nextSeq++;
    e.fn = std::move(fn);
    insert(std::move(e));
}

TimerId
EventQueue::scheduleTimeout(Tick delay, EventFn fn)
{
    std::uint32_t slot;
    if (!_freeTimerSlots.empty()) {
        slot = _freeTimerSlots.back();
        _freeTimerSlots.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(_timerSlots.size());
        _timerSlots.emplace_back();
    }
    TimerSlot &s = _timerSlots[slot];
    s.fn = std::move(fn);
    const TimerId id = (TimerId(s.gen) << 32) | slot;
    ++_pendingTimerCount;

    Entry e;
    e.when = _now + delay;
    e.seq = _nextSeq++;
    e.timerSlot1 = slot + 1;
    e.timerGen = s.gen;
    insert(std::move(e));
    return id;
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
    // front-pruning (settle) or amortized compaction reclaims.
    releaseTimerSlot(slot);
    --_pendingTimerCount;
    --_size;
    ++_deadEntries;

    if (_size == 0) {
        // Everything left is tombstones; reclaim them all right now so
        // an idle queue holds no memory for cancelled work.
        resetWindow();
    } else {
        settle();
        if (_deadEntries > 64 && _deadEntries > _size)
            compact();
    }
    return true;
}

void
EventQueue::insert(Entry &&e)
{
    if (_size == 0) {
        // The queue is empty: drop any tombstone residue and re-anchor
        // the ladder window at the current time, restoring the
        // invariant that resident ticks span less than one window.
        resetWindow();
    }
    ++_size;
    if (_refMode) {
        _ref.push(std::move(e));
        return;
    }
    if (e.when == _now) {
        _ring.push_back(std::move(e));
        return;
    }
    if (e.when < _windowEnd) {
        pushBucket(std::move(e));
        return;
    }
    _spill.push_back(std::move(e));
    std::push_heap(_spill.begin(), _spill.end(), Later{});
}

void
EventQueue::pushBucket(Entry &&e)
{
    assert(e.when > _now && e.when >= _windowBase && e.when < _windowEnd);
    const std::size_t idx = e.when & (ladderBuckets - 1);
    _ladder[idx].v.push_back(std::move(e));
    setBit(idx);
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
    // The ring is drained; hand it the whole bucket (one tick's FIFO,
    // already in schedule order). Swapping vectors recycles whichever
    // capacity the ring built up over previous ticks.
    assert(_ringHead == _ring.size());
    Bucket &bk = _ladder[idx];
    _ring.clear();
    _ringHead = 0;
    if (bk.head == 0) {
        _ring.swap(bk.v);
    } else {
        _ring.insert(
            _ring.end(),
            std::make_move_iterator(bk.v.begin() +
                                    static_cast<std::ptrdiff_t>(bk.head)),
            std::make_move_iterator(bk.v.end()));
        bk.v.clear();
        bk.head = 0;
    }
    clearBit(idx);
}

void
EventQueue::slideWindow()
{
    // Ring and ladder are empty; re-anchor the window on the spill's
    // earliest live event and redistribute everything that now fits.
    // Heap pops come out in (when, seq) order, so bucket append order
    // stays schedule order.
    while (!_spill.empty() && !alive(_spill.front())) {
        std::pop_heap(_spill.begin(), _spill.end(), Later{});
        _spill.pop_back();
        --_deadEntries;
    }
    if (_spill.empty())
        return;
    _windowBase = _spill.front().when;
    _windowEnd = _windowBase + ladderBuckets;
    while (!_spill.empty() && _spill.front().when < _windowEnd) {
        std::pop_heap(_spill.begin(), _spill.end(), Later{});
        Entry e = std::move(_spill.back());
        _spill.pop_back();
        if (!alive(e)) {
            --_deadEntries;
            continue;
        }
        const std::size_t idx = e.when & (ladderBuckets - 1);
        _ladder[idx].v.push_back(std::move(e));
        setBit(idx);
    }
}

void
EventQueue::compactRing()
{
    _ring.erase(_ring.begin(),
                _ring.begin() + static_cast<std::ptrdiff_t>(_ringHead));
    _ringHead = 0;
}

Tick
EventQueue::nextTime() const
{
    if (_size == 0)
        return maxTick;
    if (_refMode)
        return _ref.top().when;
    // settle() keeps the front of the pop order live after every
    // mutation, so each tier's front reports an exact time. (An entry
    // behind a ring/bucket front may be a tombstone, but it shares its
    // tick with the live front by construction.)
    if (_ringHead < _ring.size())
        return _ring[_ringHead].when;
    const int b = nextBucketIndex();
    if (b >= 0) {
        const Bucket &bk = _ladder[static_cast<std::size_t>(b)];
        return bk.v[bk.head].when;
    }
    assert(!_spill.empty());
    return _spill.front().when;
}

void
EventQueue::settle()
{
    if (_size == 0)
        return;
    if (_refMode) {
        while (!_ref.empty() && !alive(_ref.top())) {
            _ref.pop();
            --_deadEntries;
        }
        return;
    }
    for (;;) {
        if (_ringHead < _ring.size()) {
            if (alive(_ring[_ringHead]))
                return;
            ++_ringHead;
            --_deadEntries;
            if (_ringHead == _ring.size()) {
                _ring.clear();
                _ringHead = 0;
            }
            continue;
        }
        if (!_ring.empty()) {
            _ring.clear();
            _ringHead = 0;
        }
        const int b = nextBucketIndex();
        if (b >= 0) {
            Bucket &bk = _ladder[static_cast<std::size_t>(b)];
            if (alive(bk.v[bk.head]))
                return;
            ++bk.head;
            --_deadEntries;
            if (bk.head == bk.v.size()) {
                bk.v.clear();
                bk.head = 0;
                clearBit(static_cast<std::size_t>(b));
            }
            continue;
        }
        if (!_spill.empty()) {
            if (alive(_spill.front()))
                return;
            std::pop_heap(_spill.begin(), _spill.end(), Later{});
            _spill.pop_back();
            --_deadEntries;
            continue;
        }
        return;
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
    if (_deadEntries > 0 || _ringHead < _ring.size()) {
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

    // Ring: order-preserving filter of the un-consumed suffix.
    if (_ringHead < _ring.size()) {
        if (_ringHead > 0)
            compactRing();
        _ring.erase(std::remove_if(_ring.begin(), _ring.end(), isDead),
                    _ring.end());
    } else if (!_ring.empty()) {
        _ring.clear();
        _ringHead = 0;
    }

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
    std::size_t total = (_ring.size() - _ringHead) + _spill.size();
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

bool
EventQueue::runOne()
{
    if (_size == 0)
        return false;

    Entry entry;
    if (_refMode) {
        // The reference heap pops in global (when, seq) order; skip
        // any tombstone that reached the front between settles.
        for (;;) {
            entry = _ref.pop();
            if (alive(entry))
                break;
            --_deadEntries;
        }
    } else {
        for (;;) {
            if (_ringHead < _ring.size()) {
                entry = std::move(_ring[_ringHead]);
                ++_ringHead;
                if (_ringHead == _ring.size()) {
                    _ring.clear();
                    _ringHead = 0;
                } else if (_ringHead >= 64 &&
                           _ringHead * 2 >= _ring.size()) {
                    // A long same-tick cascade appends while it pops;
                    // drop the consumed prefix so the ring's footprint
                    // tracks the live tail, not the cascade length.
                    compactRing();
                }
                if (!alive(entry)) {
                    --_deadEntries;
                    continue;
                }
                break;
            }
            const int b = nextBucketIndex();
            if (b >= 0) {
                migrateBucket(static_cast<std::size_t>(b));
                continue;
            }
            if (!_spill.empty()) {
                slideWindow();
                continue;
            }
            assert(false && "size() > 0 but no live entry found");
            return false;
        }
    }

    assert(entry.when >= _now);
    _now = entry.when;
    ++_executed;
    --_size;

    // Move the callback out before dispatching so the callback can
    // schedule further events (which mutates the tiers) while it runs.
    EventFn fn;
    if (entry.timerSlot1 != 0) {
        // A live timer entry: the callback lives in the slot, and
        // firing disarms the slot exactly like a cancel would.
        fn = std::move(_timerSlots[entry.timerSlot1 - 1].fn);
        releaseTimerSlot(entry.timerSlot1 - 1);
        --_pendingTimerCount;
    } else {
        fn = std::move(entry.fn);
    }

    if (auto *prof = obs::Telemetry::current().prof) {
        // Bracket the dispatch so the profiler can attribute the
        // callback's wall time; end it even if the callback throws
        // (the watchdog surfaces errors as exceptions mid-run).
        prof->beginDispatch();
        try {
            fn();
        } catch (...) {
            prof->endDispatch();
            settle();
            throw;
        }
        prof->endDispatch();
    } else {
        fn();
    }
    settle();
    // A drained queue holds no live work: purge any tombstone residue
    // so empty() also means "no resident memory".
    if (_size == 0)
        resetWindow();
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
