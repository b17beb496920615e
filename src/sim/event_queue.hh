/**
 * @file
 * A deterministic discrete-event queue.
 *
 * Events scheduled for the same tick execute in the order they were
 * scheduled (FIFO), which makes whole-system simulation results fully
 * reproducible for a given seed.
 *
 * Internally every pending event is a node in one arena of recycled,
 * fixed-size chunks, and the queue is a set of lists over it, tuned to
 * the schedule shapes the simulator actually produces (see DESIGN.md
 * "Scheduler internals"):
 *
 *  - the CURRENT TICK's FIFO list, dispatched from its head. A node
 *    leaves the list before its callback runs, so an event scheduled
 *    for now() while it runs simply appends to the tail (a rare shape:
 *    almost every hop has a nonzero latency);
 *  - a LADDER of per-tick FIFO lists covering a 1024-tick window that
 *    rolls with time: when time reaches a bucket (tick t) its list
 *    becomes the current tick's (two indices copied) and the window
 *    becomes [t, t + 1024). An insert indexes its bucket directly
 *    (O(1)) and appends, so within a bucket append order IS schedule
 *    order and FIFO-within-tick holds by construction;
 *  - a SPILL HEAP of (when, seq, node) keys for the far future only:
 *    deadlines at or beyond the window's end (periodic-hook-scale
 *    delays, recovery deadlines). Each roll moves every spill node the
 *    new window covers onto its (empty) bucket in (when, seq) order,
 *    so a tick's spilled events precede its later direct inserts and
 *    the global FIFO contract holds. When the near future empties, the
 *    window jumps to the spill's earliest event the same way.
 *
 * Nodes never move. A callback (sim::InlineFn: inline capture storage,
 * no per-event heap allocation) is built in its node and invoked
 * there; the node is freed onto a LIFO free list once the callback
 * returns or throws, so the next event reuses it and the arena's size
 * is the run's peak resident count rounded up to a chunk. Cancellable
 * timeouts live in generation-checked slots so cancelTimeout() is O(1)
 * and destroys the callback immediately.
 *
 * The per-event path is inline in this header: an insert's common case
 * (a ladder append into a recycled node) and the dispatch of a plain
 * event. Each has one path; its rare branches call out of line, the
 * insert's to claimRare() (an empty queue, a full arena, the current
 * tick, the spill, reference mode) and the dispatch's to fireTimer()
 * and, with a host profiler attached, invokeProfiled(). The per-tick
 * work (settle, pop, window roll) stays in event_queue.cc.
 */

#ifndef GRIFFIN_SIM_EVENT_QUEUE_HH
#define GRIFFIN_SIM_EVENT_QUEUE_HH

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/obs/telemetry.hh"
#include "src/sim/inline_fn.hh"
#include "src/sim/ref_queue.hh"
#include "src/sim/types.hh"

namespace griffin::sim {

/**
 * Callback type executed when an event fires: a move-only callable
 * with inline capture storage. A capture that does not fit (e.g. a
 * lambda capturing another event) is a compile error; keep the state
 * in a sim::SlotPool and capture the slot, or on a cold path box it
 * with sim::boxed() — see inline_fn.hh.
 */
using InlineEvent = InlineFn<void()>;
using EventFn = InlineEvent;

/** Handle of a cancellable timeout; 0 is never a valid id. */
using TimerId = std::uint64_t;

/** The invalid TimerId. */
inline constexpr TimerId invalidTimerId = 0;

/**
 * A time-ordered queue of callbacks.
 *
 * This is the only scheduling primitive in the simulator; components
 * never busy-poll, they schedule a continuation for a future tick.
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue();

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p fn to run @p delay ticks from now.
     * A zero delay runs the callback later in the current tick, after
     * all previously scheduled work for this tick.
     *
     * @p fn is any callable an EventFn accepts (or an EventFn rvalue);
     * it is constructed directly in the queue entry that holds it.
     */
    template <typename F>
    void
    schedule(Tick delay, F &&fn)
    {
        scheduleAt(_now + delay, std::forward<F>(fn));
    }

    /**
     * Schedule @p fn at absolute time @p when. Scheduling in the past
     * (@p when < now()) is a modeling bug: it is diagnosed with a
     * warning and clamped to now(), so time never runs backwards and
     * the event still executes (after all previously scheduled work
     * for the current tick).
     */
    template <typename F>
    void
    scheduleAt(Tick when, F &&fn)
    {
        if (when < _now)
            when = clampToNow(when);
        claim(when, 0, 0).fn.emplace(std::forward<F>(fn));
    }

    /**
     * Schedule @p fn like schedule(), but return a handle that
     * cancelTimeout() accepts. Timeouts exist for recovery timers
     * (migration timeouts, ACK re-issue deadlines) that are armed on
     * the common path and cancelled on the common path: a cancelled
     * timeout neither fires nor extends the simulated end time.
     */
    template <typename F>
    TimerId
    scheduleTimeout(Tick delay, F &&fn)
    {
        const std::uint32_t slot = armTimerSlot();
        _timerSlots[slot].fn.emplace(std::forward<F>(fn));
        return fileTimer(slot, _now + delay);
    }

    /**
     * Cancel a pending timeout in O(1). The callback is destroyed
     * immediately (any resources it captured are released now, not
     * when the deadline would have passed) and the entry no longer
     * counts as a pending event, so a run can drain past it.
     * @retval true the timeout was pending and is now cancelled.
     * @retval false unknown id, already fired, or already cancelled.
     */
    bool cancelTimeout(TimerId id);

    /** Timeouts armed and not yet fired or cancelled. */
    std::size_t pendingTimeouts() const { return _pendingTimerCount; }

    /** True when no events remain (cancelled timeouts excluded). */
    bool empty() const { return _size == 0; }

    /**
     * Time of the earliest pending event; maxTick when empty.
     * Cancelled timeouts never contribute: a timeout's deadline stops
     * being reported the moment cancelTimeout() returns. Not const:
     * it first prunes cancelled tombstones off the front of the pop
     * order (the queue's per-tick settle).
     */
    Tick nextTime();

    /** Number of pending events (cancelled timeouts excluded). */
    std::size_t size() const { return _size; }

    /**
     * Execute the single earliest event. Callbacks run in place in
     * their node, so neither this nor runSameTick() may be called from
     * inside a callback.
     * @retval true an event was executed.
     * @retval false the queue was empty.
     */
    bool runOne();

    /**
     * Execute the earliest event if it is due at now(), without any
     * per-tick work (settling, window rolls). sim::Engine::run() calls
     * runOne() for the first event of a tick and this for the rest.
     * @retval false nothing (live) remains at now().
     */
    bool
    runSameTick()
    {
        if (_size == 0)
            return false;
        if (_refMode) [[unlikely]]
            return settle().when == _now && runOne();
        const std::uint32_t i = popSameTick();
        if (i == nil)
            return false;
        dispatch(i);
        return true;
    }

    /** Run until the queue drains. @return the final simulated time. */
    Tick run();

    /**
     * Run all events with time <= @p limit, then advance the clock to
     * @p limit unconditionally — even when the queue drained early or
     * was empty to begin with (the caller asked to simulate up to
     * @p limit, so that much time has passed; watchdog quiesce checks
     * after a drain observe now() == limit). @return the simulated
     * time after running, i.e. max(limit, now()).
     */
    Tick runUntil(Tick limit);

    /** Total number of events executed since construction. */
    std::uint64_t eventsExecuted() const { return _executed; }

    /** @name Introspection for tests @{ */

    /**
     * Nodes resident in the lists and heaps, including
     * cancelled-timeout tombstones not yet reclaimed (a running
     * callback's node is in none). Bounded-memory tests assert this
     * stays close to size().
     */
    std::size_t residentEntries() const;

    /**
     * Events ever filed into the spill heap (far-future tier); the
     * rolling window keeps this a small share of eventsExecuted().
     */
    std::uint64_t spillInserts() const { return _spillInserts; }

    /** Timer slots ever allocated (the free list recycles them). */
    std::size_t timerSlotsAllocated() const { return _timerSlots.size(); }

    /** Nodes per arena chunk: the arena grows by this many at a time. */
    static constexpr std::size_t nodesPerChunk = 256;

    /** Arena nodes ever allocated (the free list recycles them). */
    std::size_t nodesAllocated() const
    {
        return _chunks.size() * nodesPerChunk;
    }

    /** @} */

    /** @name Reference scheduler (differential testing) @{ */

    /**
     * Replace the lists and the spill with the naive (when, seq)
     * binary heap from ref_queue.hh, over the same node arena.
     * Test-only: the reference mode exists so fuzz harnesses can
     * demand byte-identical results from the tiered queue and a
     * trivially-correct one. Must be called on a fresh queue, before
     * anything is scheduled or executed.
     */
    void enableReferenceMode();

    /** True when running on the reference heap. */
    bool referenceMode() const { return _refMode; }

    /** @} */

  private:
    /** Number of per-tick ladder buckets; must be a power of two. */
    static constexpr std::size_t ladderBuckets = 1024;
    static constexpr std::size_t bitmapWords = ladderBuckets / 64;
    static constexpr unsigned chunkShift = 8;
    static_assert(nodesPerChunk == std::size_t(1) << chunkShift);
    /** The null node index: ends a list and the free list. */
    static constexpr std::uint32_t nil = ~std::uint32_t(0);

    /** One arena node: a pending event, or free. */
    struct Entry
    {
        Tick when = 0;
        /** Next node in this node's list (or the free list), or nil. */
        std::uint32_t next = nil;
        /** Timer slot index + 1; 0 for a plain event. */
        std::uint32_t timerSlot1 = 0;
        /** Slot generation at arm time; a mismatch means cancelled. */
        std::uint32_t timerGen = 0;
        // 4 spare bytes of padding before fn (room for a site index).
        /** The callback. Empty for timer nodes (held in the slot). */
        EventFn fn;
    };
    static_assert(sizeof(Entry) == 88);

    /** A FIFO of nodes linked through Entry::next. */
    struct List
    {
        std::uint32_t head = nil;
        /** Last node; stale while head is nil. */
        std::uint32_t tail = nil;
    };

    /** A heap entry: the node's deadline and schedule order. */
    struct Key
    {
        Tick when;
        /** Global schedule order; ties on when resolve by seq. */
        std::uint64_t seq;
        std::uint32_t node;
    };

    /** Min-heap order for the spill and reference heaps. */
    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /**
     * A cancellable timeout's callback lives here, not in the node, so
     * cancelTimeout() can destroy it in O(1) by slot index. The
     * generation increments whenever the slot is disarmed (fire or
     * cancel), invalidating the node and any stale TimerId.
     */
    struct TimerSlot
    {
        std::uint32_t gen = 1;
        EventFn fn;
    };

    /** The arena: chunks never move, so neither does a node. */
    std::vector<std::unique_ptr<Entry[]>> _chunks;
    /** Head of the LIFO free list. */
    std::uint32_t _free = nil;

    /** The current tick's FIFO (time's front). */
    List _cur;

    /** Per-tick lists over [_windowBase, _windowEnd). */
    std::array<List, ladderBuckets> _ladder;
    /** Bit i set iff _ladder[i] holds nodes. */
    std::uint64_t _bits[bitmapWords] = {};
    Tick _windowBase = 0;
    Tick _windowEnd = ladderBuckets;
    /**
     * The earliest non-empty bucket as settle() last found it, for the
     * pop that follows; -1 once any bucket's bit changes.
     */
    int _settledBucket = -1;

    /** Min-heap of nodes at or beyond _windowEnd. */
    std::vector<Key> _spill;

    /** Reference mode: one naive heap replaces the lists and spill. */
    bool _refMode = false;
    RefQueue<Key, Later> _ref;

    Tick _now = 0;
    /** Starts at 1 so seq 0 can mean "unset" in debugging dumps. */
    std::uint64_t _nextSeq = 1;
    std::uint64_t _executed = 0;
    /** Live (un-cancelled) events. */
    std::size_t _size = 0;
    /** Cancelled-timeout tombstones still resident. */
    std::size_t _deadEntries = 0;
    std::size_t _pendingTimerCount = 0;
    std::uint64_t _spillInserts = 0;

    std::vector<TimerSlot> _timerSlots;
    std::vector<std::uint32_t> _freeTimerSlots;

    Entry &node(std::uint32_t i) const
    {
        return _chunks[i >> chunkShift][i & (nodesPerChunk - 1)];
    }

    bool alive(const Entry &e) const
    {
        return e.timerSlot1 == 0 ||
               _timerSlots[e.timerSlot1 - 1].gen == e.timerGen;
    }

    void
    append(List &l, std::uint32_t i)
    {
        node(i).next = nil;
        if (l.head == nil)
            l.head = i;
        else
            node(l.tail).next = i;
        l.tail = i;
    }

    /** Destroy node @p i's callback and push it on the free list. */
    void
    freeNode(std::uint32_t i)
    {
        Entry &e = node(i);
        e.fn = nullptr;
        e.next = _free;
        _free = i;
    }

    /** Diagnose a past deadline; @return now(). */
    Tick clampToNow(Tick when) const;

    /**
     * Count a new event at @p when and return its node, filed where it
     * belongs, callback still empty. Inline for its common case, a
     * ladder append into a recycled node; every other insert takes
     * claimRare(). Always inlined: GCC otherwise keeps an out-of-line
     * copy for some large callers, and the call costs more than this.
     */
    [[gnu::always_inline]] Entry &
    claim(Tick when, std::uint32_t timer_slot1, std::uint32_t timer_gen)
    {
        if (_size == 0 || _free == nil || _refMode || when == _now ||
            when >= _windowEnd) [[unlikely]]
            return claimRare(when, timer_slot1, timer_gen);
        const std::uint32_t i = take(when, timer_slot1, timer_gen);
        fileInLadder(i, when);
        return node(i);
    }

    /**
     * claim() off its common case: re-anchor an empty queue, grow the
     * arena by a chunk, then file the node in the current tick, the
     * ladder, the spill or the reference heap.
     */
    Entry &claimRare(Tick when, std::uint32_t timer_slot1,
                     std::uint32_t timer_gen);

    /** Count a new event at @p when in the free list's head node. */
    std::uint32_t
    take(Tick when, std::uint32_t timer_slot1, std::uint32_t timer_gen)
    {
        ++_size;
        ++_nextSeq;
        const std::uint32_t i = _free;
        Entry &e = node(i);
        _free = e.next;
        e.when = when;
        e.timerSlot1 = timer_slot1;
        e.timerGen = timer_gen;
        return i;
    }

    /** Append node @p i to the bucket of tick @p when, inside the window. */
    void
    fileInLadder(std::uint32_t i, Tick when)
    {
        assert(when > _now && when >= _windowBase && when < _windowEnd);
        const std::size_t idx = when & (ladderBuckets - 1);
        setBit(idx);
        append(_ladder[idx], i);
    }

    /** Take a timer slot (its callback still to be set). */
    std::uint32_t armTimerSlot();
    /** Queue timer slot @p slot's node at @p when; @return its id. */
    TimerId fileTimer(std::uint32_t slot, Tick when);
    void
    setBit(std::size_t i)
    {
        _bits[i >> 6] |= 1ull << (i & 63);
        _settledBucket = -1;
    }
    void
    clearBit(std::size_t i)
    {
        _bits[i >> 6] &= ~(1ull << (i & 63));
        _settledBucket = -1;
    }
    /** Earliest non-empty bucket in window scan order, or -1. */
    int nextBucketIndex() const;

    /** Unlink the current tick's next live node; nil if none. */
    std::uint32_t
    popSameTick()
    {
        while (_cur.head != nil) {
            const std::uint32_t i = _cur.head;
            _cur.head = node(i).next;
            if (!reclaim(i)) [[likely]]
                return i;
            --_deadEntries;
        }
        return nil;
    }

    /** Unlink the next live node overall, moving time's lists forward. */
    std::uint32_t popLive();

    /** Run node @p i's callback (in place), then free the node. */
    void
    dispatch(std::uint32_t i)
    {
        Entry &e = node(i);
        assert(e.when >= _now);
        _now = e.when;
        ++_executed;
        --_size;

        // The node is in no list while its callback runs, and is freed
        // only once the callback returns or throws.
        try {
            if (e.timerSlot1 == 0) [[likely]]
                invoke(e.fn);
            else
                fireTimer(e.timerSlot1 - 1);
        } catch (...) {
            freeNode(i);
            throw;
        }
        freeNode(i);
        // A drained queue holds no live work: free any tombstone
        // residue so empty() also means "no resident nodes".
        if (_size == 0) [[unlikely]]
            resetWindow();
    }

    /** Call @p fn, inside a profiler dispatch bracket when one is attached. */
    static void
    invoke(const EventFn &fn)
    {
        if (obs::HostProfiler *prof = obs::Telemetry::current().prof)
            [[unlikely]]
            invokeProfiled(*prof, fn);
        else
            fn();
    }

    /** invoke() with @p prof attached: bracket the callback. */
    static void invokeProfiled(obs::HostProfiler &prof, const EventFn &fn);

    /**
     * Fire live timer slot @p slot: disarm it exactly like a cancel
     * would, then run its callback.
     */
    void fireTimer(std::uint32_t slot);

    /**
     * Make the window [@p base, @p base + N) and move every spill node
     * it now covers onto its bucket (tombstones are freed). Requires
     * the ladder to hold no tick outside (base, base + N).
     */
    void rollWindow(Tick base);
    /**
     * Free cancelled tombstones off the front of the pop order and
     * return the (live) front. Requires size() > 0.
     */
    const Entry &settle();
    /** Free all tombstone residue and re-anchor the window at now. */
    void resetWindow();
    /** Free node @p i if it is a tombstone; @return true if freed. */
    bool
    reclaim(std::uint32_t i)
    {
        if (alive(node(i)))
            return false;
        freeNode(i);
        return true;
    }
    /** Drop @p l's tombstones, keeping the order of the rest. */
    void filter(List &l);
    /** Free every tombstone everywhere (amortized reclaim). */
    void compact();
    /** Disarm a slot: destroy callback, bump generation, recycle. */
    void releaseTimerSlot(std::uint32_t slot);
};

} // namespace griffin::sim

#endif // GRIFFIN_SIM_EVENT_QUEUE_HH
