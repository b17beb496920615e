/**
 * @file
 * A deterministic discrete-event queue.
 *
 * Events scheduled for the same tick execute in the order they were
 * scheduled (FIFO), which makes whole-system simulation results fully
 * reproducible for a given seed.
 *
 * Internally the queue is a hybrid three-tier structure tuned to the
 * schedule shapes the simulator actually produces (see DESIGN.md
 * "Scheduler internals"):
 *
 *  - a SAME-TICK tier: the BATCH (the current tick's FIFO, dispatched
 *    in place) plus a RING that collects events scheduled for the
 *    current tick while the batch runs. Zero-delay continuations — the
 *    dominant shape in CU/GPU/dispatcher code — append to the ring in
 *    O(1); when the batch is spent the ring becomes the next batch;
 *  - a LADDER of per-tick buckets covering a 1024-tick window that
 *    rolls with time: when a bucket (tick t) becomes the batch, the
 *    window becomes [t, t + 1024). An insert indexes its bucket
 *    directly (O(1)); when time reaches a bucket its vector becomes
 *    the batch wholesale. Within a bucket, append order IS schedule
 *    order, so FIFO-within-tick holds by construction;
 *  - a SPILL HEAP for the far future only: deadlines at or beyond the
 *    window's end (periodic-hook-scale delays, recovery deadlines).
 *    Each roll moves every spill entry the new window covers into its
 *    (empty) bucket in (when, seq) order, so a tick's spilled events
 *    precede its later direct inserts and the global FIFO contract
 *    holds. When the near future empties, the window jumps to the
 *    spill's earliest event the same way.
 *
 * Event callbacks are sim::InlineFn (inline capture storage, no
 * per-event heap allocation), built once in the tier that holds them
 * and invoked where they lie; cancellable timeouts live in
 * generation-checked slots so cancelTimeout() is O(1) and destroys
 * the callback immediately.
 */

#ifndef GRIFFIN_SIM_EVENT_QUEUE_HH
#define GRIFFIN_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

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
        Entry &e = claim(when, 0, 0);
        e.fn.emplace(std::forward<F>(fn));
        if (&e == &_staged)
            fileStaged();
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
     * Execute the single earliest event. Callbacks run in place in the
     * queue's storage, so neither this nor runSameTick() may be called
     * from inside a callback.
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
    bool runSameTick();

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
     * Entries physically resident across all three tiers, including
     * cancelled-timeout tombstones not yet reclaimed. Bounded-memory
     * tests assert this stays close to size().
     */
    std::size_t residentEntries() const;

    /**
     * Entries ever filed into the spill heap (far-future tier); the
     * rolling window keeps this a small share of eventsExecuted().
     */
    std::uint64_t spillInserts() const { return _spillInserts; }

    /** Timer slots ever allocated (the free list recycles them). */
    std::size_t timerSlotsAllocated() const { return _timerSlots.size(); }

    /** @} */

    /** @name Reference scheduler (differential testing) @{ */

    /**
     * Replace the three-tier structure with the naive (when, seq)
     * binary heap from ref_queue.hh. Test-only: the reference mode
     * exists so fuzz harnesses can demand byte-identical results from
     * the tiered queue and a trivially-correct one. Must be called on
     * a fresh queue, before anything is scheduled or executed.
     */
    void enableReferenceMode();

    /** True when running on the reference heap. */
    bool referenceMode() const { return _refMode; }

    /** @} */

  private:
    /** Number of per-tick ladder buckets; must be a power of two. */
    static constexpr std::size_t ladderBuckets = 1024;
    static constexpr std::size_t bitmapWords = ladderBuckets / 64;

    struct Entry
    {
        Entry() = default;
        Entry(Tick w, std::uint64_t s, std::uint32_t slot1,
              std::uint32_t gen)
            : when(w), seq(s), timerSlot1(slot1), timerGen(gen)
        {
        }

        Tick when = 0;
        /** Global schedule order; ties on when resolve by seq. */
        std::uint64_t seq = 0;
        /** Timer slot index + 1; 0 for a plain event. */
        std::uint32_t timerSlot1 = 0;
        /** Slot generation at arm time; a mismatch means cancelled. */
        std::uint32_t timerGen = 0;
        /** The callback. Empty for timer entries (held in the slot). */
        EventFn fn;
    };

    /** Min-heap order for the spill tier: (when, seq) ascending. */
    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    struct Bucket
    {
        std::vector<Entry> v;
        /** First un-consumed entry (front pruning of cancellations). */
        std::size_t head = 0;
    };

    /**
     * A cancellable timeout's callback lives here, not in the queue
     * entry, so cancelTimeout() can destroy it in O(1) by slot index.
     * The generation increments whenever the slot is disarmed (fire
     * or cancel), invalidating the queue entry and any stale TimerId.
     */
    struct TimerSlot
    {
        std::uint32_t gen = 1;
        EventFn fn;
    };

    /**
     * Tier 1a: the current tick's FIFO, dispatched in place from
     * _batch[_batchHead - 1]. While a callback runs from it, nothing
     * may insert into, reallocate, clear or reorder the consumed
     * prefix [0, _batchHead): same-tick inserts go to _ring, and
     * settle(), compact() and resetWindow() only advance _batchHead or
     * filter the unconsumed suffix. Only the pop between dispatches
     * clears it or swaps in a new tick.
     */
    std::vector<Entry> _batch;
    std::size_t _batchHead = 0;

    /** Tier 1b: events scheduled for now() while the batch runs. */
    std::vector<Entry> _ring;
    std::size_t _ringHead = 0;

    /** Tier 2: per-tick buckets over [_windowBase, _windowEnd). */
    std::array<Bucket, ladderBuckets> _ladder;
    /** Bit i set iff _ladder[i] holds entries. */
    std::uint64_t _bits[bitmapWords] = {};
    Tick _windowBase = 0;
    Tick _windowEnd = ladderBuckets;

    /** Tier 3: min-heap of events at or beyond _windowEnd. */
    std::vector<Entry> _spill;

    /**
     * A spill or reference-heap entry while its callback is built: it
     * is filed into its heap by fileStaged() once complete.
     */
    Entry _staged;

    /** Reference mode: one naive heap replaces all three tiers. */
    bool _refMode = false;
    RefQueue<Entry, Later> _ref;

    Tick _now = 0;
    /** Starts at 1 so seq 0 can mean "unset" in debugging dumps. */
    std::uint64_t _nextSeq = 1;
    std::uint64_t _executed = 0;
    /** Live (un-cancelled) events across all tiers. */
    std::size_t _size = 0;
    /** Cancelled-timeout tombstones still resident in a tier. */
    std::size_t _deadEntries = 0;
    std::size_t _pendingTimerCount = 0;
    std::uint64_t _spillInserts = 0;

    std::vector<TimerSlot> _timerSlots;
    std::vector<std::uint32_t> _freeTimerSlots;

    bool alive(const Entry &e) const
    {
        return e.timerSlot1 == 0 ||
               _timerSlots[e.timerSlot1 - 1].gen == e.timerGen;
    }

    /** Diagnose a past deadline; @return now(). */
    Tick clampToNow(Tick when) const;
    /**
     * Count a new event at @p when (resetting an empty queue first) and
     * return its entry, callback still empty. A ring or ladder entry is
     * returned in place in its tier; a spill or reference-heap entry is
     * returned as _staged, for fileStaged().
     */
    Entry &claim(Tick when, std::uint32_t timer_slot1,
                 std::uint32_t timer_gen);
    /** Push the completed _staged entry onto the spill or ref heap. */
    void fileStaged();
    /** Take a timer slot (its callback still to be set). */
    std::uint32_t armTimerSlot();
    /** Queue timer slot @p slot's entry at @p when; @return its id. */
    TimerId fileTimer(std::uint32_t slot, Tick when);
    void setBit(std::size_t i) { _bits[i >> 6] |= 1ull << (i & 63); }
    void clearBit(std::size_t i) { _bits[i >> 6] &= ~(1ull << (i & 63)); }
    /** Earliest non-empty bucket in window scan order, or -1. */
    int nextBucketIndex() const;
    /**
     * The next live entry of the current tick, consumed from the batch
     * (promoting the ring when the batch is spent); nullptr if none.
     * Called between dispatches only.
     */
    Entry *popSameTick();
    /** The next live entry overall, moving time's tiers forward. */
    Entry *popLive();
    /** Run @p e's callback (in place) and retire it. */
    void dispatch(Entry &e);
    /** Hand the whole bucket (one tick's FIFO) to the spent batch. */
    void migrateBucket(std::size_t idx);
    /**
     * Make the window [@p base, @p base + N) and move every spill
     * entry it now covers into its bucket (tombstones are dropped).
     * Requires the ladder to hold no tick outside (base, base + N).
     */
    void rollWindow(Tick base);
    /**
     * Prune cancelled tombstones off the front of the pop order and
     * return the (live) front. Requires size() > 0.
     */
    const Entry &settle();
    /** Drop all tombstone residue and re-anchor the window at now. */
    void resetWindow();
    /** Erase every tombstone from every tier (amortized reclaim). */
    void compact();
    /** Disarm a slot: destroy callback, bump generation, recycle. */
    void releaseTimerSlot(std::uint32_t slot);
};

} // namespace griffin::sim

#endif // GRIFFIN_SIM_EVENT_QUEUE_HH
