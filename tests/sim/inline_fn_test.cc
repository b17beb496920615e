/**
 * @file
 * Unit tests for sim::InlineFn: inline storage, move semantics,
 * capture destruction, argument passing, the relocation contract
 * (memcpy for trivial captures, move-and-destroy otherwise), and the
 * boxed() escape hatch for captures that exceed the inline budget.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>

#include "src/sim/inline_fn.hh"
#include "src/sim/slot_pool.hh"

using griffin::sim::boxed;
using griffin::sim::InlineFn;

namespace {

/**
 * Counts live instances and move constructions so tests can assert
 * capture destruction and relocation.
 */
struct Tracked
{
    static int live;
    static int moves;
    Tracked() { ++live; }
    Tracked(const Tracked &) { ++live; }
    Tracked(Tracked &&) noexcept
    {
        ++live;
        ++moves;
    }
    ~Tracked() { --live; }
};

int Tracked::live = 0;
int Tracked::moves = 0;

/** Stands in for a component whose hops capture {this, slot}. */
struct Owner
{
    int id = 0;
};

/** The hot capture shapes, as the simulator's hops spell them. */
auto
slotHop(Owner *self, griffin::sim::SlotId slot, long &out)
{
    return [self, slot, &out] { out = self->id * 1000 + long(slot); };
}

auto
opDone(Owner *self, std::size_t wf, std::uint64_t seq, long &out)
{
    return [self, wf, seq, &out] {
        out = self->id * 1000000 + long(wf) * 1000 + long(seq);
    };
}

using Event = InlineFn<void()>;

// The shapes every per-op hop uses must take the memcpy path.
static_assert(Event::trivialCapture<decltype(slotHop(nullptr, 0,
                                                     std::declval<long &>()))>);
static_assert(Event::trivialCapture<decltype(opDone(nullptr, 0, 0,
                                                    std::declval<long &>()))>);
static_assert(Event::trivialCapture<void (*)()>);
// Owning captures must not.
static_assert(!Event::trivialCapture<decltype([p = std::unique_ptr<int>()] {
    (void)p;
})>);
static_assert(!Event::trivialCapture<decltype([t = Tracked{}] { (void)t; })>);

} // namespace

TEST(InlineFn, DefaultConstructedIsEmpty)
{
    InlineFn<void()> fn;
    EXPECT_FALSE(fn);
    InlineFn<void()> null_fn(nullptr);
    EXPECT_FALSE(null_fn);
}

TEST(InlineFn, InvokesStoredCallable)
{
    int hits = 0;
    InlineFn<void()> fn([&] { ++hits; });
    EXPECT_TRUE(fn);
    fn();
    fn();
    EXPECT_EQ(hits, 2);
}

TEST(InlineFn, PassesArgumentsAndReturnsValues)
{
    InlineFn<int(int, int)> add([](int a, int b) { return a + b; });
    EXPECT_EQ(add(2, 3), 5);
}

TEST(InlineFn, MoveTransfersTheCallable)
{
    int hits = 0;
    InlineFn<void()> a([&] { ++hits; });
    InlineFn<void()> b(std::move(a));
    EXPECT_FALSE(a); // NOLINT(bugprone-use-after-move): empty by contract
    EXPECT_TRUE(b);
    b();
    EXPECT_EQ(hits, 1);
}

TEST(InlineFn, MoveAssignReplacesAndDestroysTheOldTarget)
{
    {
        InlineFn<void()> a([t = Tracked{}] {});
        EXPECT_EQ(Tracked::live, 1);
        a = InlineFn<void()>([] {});
        EXPECT_EQ(Tracked::live, 0);
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineFn, DestructionReleasesTheCapture)
{
    {
        InlineFn<void()> fn([t = Tracked{}] {});
        EXPECT_EQ(Tracked::live, 1);
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineFn, AssigningNullptrClears)
{
    InlineFn<void()> fn([t = Tracked{}] {});
    EXPECT_EQ(Tracked::live, 1);
    fn = nullptr;
    EXPECT_FALSE(fn);
    EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineFn, MutableLambdaStateAdvances)
{
    InlineFn<int()> counter([n = 0]() mutable { return ++n; });
    EXPECT_EQ(counter(), 1);
    EXPECT_EQ(counter(), 2);
    EXPECT_EQ(counter(), 3);
}

TEST(InlineFn, MoveOnlyCaptureThreadsThrough)
{
    auto p = std::make_unique<int>(41);
    InlineFn<int()> fn([p = std::move(p)] { return *p + 1; });
    InlineFn<int()> moved(std::move(fn));
    EXPECT_EQ(moved(), 42);
}

TEST(InlineFn, BoxedCarriesOversizedCaptures)
{
    // A capture bigger than the inline budget cannot be stored
    // directly (that is a compile error by design); boxed() moves it
    // behind a single unique_ptr whose 8-byte handle always fits.
    struct Big
    {
        long payload[32];
    };
    Big big{};
    big.payload[0] = 7;
    big.payload[31] = 35;
    static_assert(sizeof(Big) > InlineFn<long()>::capacity);
    InlineFn<long()> fn(
        boxed([big] { return big.payload[0] + big.payload[31]; }));
    EXPECT_EQ(fn(), 42);
}

TEST(InlineFn, BoxedReleasesTheCaptureOnDestruction)
{
    struct Pad
    {
        long payload[32] = {};
    };
    {
        InlineFn<void()> fn(
            boxed([t = Tracked{}, pad = Pad{}] { (void)pad; }));
        EXPECT_EQ(Tracked::live, 1);
    }
    EXPECT_EQ(Tracked::live, 0);
}

TEST(InlineFn, SelfContainedEventShape)
{
    // The dominant event-queue shape: a wrapper event owning the
    // next continuation. The continuation (itself an InlineFn) can
    // never fit inline, so it rides in a box; the wrapper's capture
    // is just the box pointer.
    int hits = 0;
    InlineFn<void()> inner([&] { ++hits; });
    InlineFn<void()> outer(
        boxed([inner = std::move(inner)]() mutable { inner(); }));
    outer();
    EXPECT_EQ(hits, 1);
}

TEST(InlineFn, TrivialCapturesSurviveAChainOfMoves)
{
    Owner owner{7};
    long hopOut = 0;
    long doneOut = 0;
    Event hop(slotHop(&owner, 42, hopOut));
    Event done(opDone(&owner, 3, 99, doneOut));
    // The queue moves an event through its tiers several times
    // (construction, vector growth, heap sifts, timer slots).
    for (int i = 0; i < 6; ++i) {
        Event nextHop(std::move(hop));
        Event nextDone;
        nextDone = std::move(done);
        EXPECT_FALSE(hop); // NOLINT(bugprone-use-after-move)
        EXPECT_FALSE(done); // NOLINT(bugprone-use-after-move)
        hop = std::move(nextHop);
        done = std::move(nextDone);
    }
    hop();
    done();
    EXPECT_EQ(hopOut, 7042);
    EXPECT_EQ(doneOut, 7003099);
}

TEST(InlineFn, EmplaceBuildsInPlaceAndReplaces)
{
    Owner owner{2};
    long out = 0;
    Event fn([t = Tracked{}] { (void)t; });
    EXPECT_EQ(Tracked::live, 1);
    fn.emplace(slotHop(&owner, 5, out));
    EXPECT_EQ(Tracked::live, 0);
    fn();
    EXPECT_EQ(out, 2005);
    Event other(opDone(&owner, 1, 2, out));
    fn.emplace(std::move(other));
    EXPECT_FALSE(other); // NOLINT(bugprone-use-after-move)
    fn();
    EXPECT_EQ(out, 2001002);
}

TEST(InlineFn, NonTrivialCaptureMovesAndDestroysExactlyOnce)
{
    Tracked::moves = 0;
    {
        int seen = 0;
        Event fn([t = Tracked{}, p = std::make_unique<int>(5), &seen] {
            (void)t;
            seen = *p;
        });
        EXPECT_EQ(Tracked::live, 1);
        const int built = Tracked::moves;
        for (int i = 0; i < 5; ++i) {
            Event next(std::move(fn));
            EXPECT_EQ(Tracked::live, 1);
            fn = std::move(next);
            EXPECT_EQ(Tracked::live, 1);
        }
        // Each of the ten relocations ran the move constructor once
        // and destroyed its source once (live never rose above 1).
        EXPECT_EQ(Tracked::moves - built, 10);
        fn();
        EXPECT_EQ(seen, 5);
    }
    EXPECT_EQ(Tracked::live, 0);
}
