/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, determinism,
 * the deadlock safety net, the small-buffer callback type, callable
 * lifetimes in the node pool, and property tests pitting the
 * calendar/bucket scheduler against a naive reference queue across the
 * ring/heap boundary.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/event_queue.hh"
#include "common/rng.hh"

namespace protozoa {
namespace {

TEST(EventQueue, StartsAtCycleZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, TiesRunInSchedulingOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&]() {
        if (++count < 5)
            eq.schedule(7, chain);
    };
    eq.schedule(1, chain);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 1u + 4 * 7u);
}

TEST(EventQueue, ScheduleAtAbsoluteCycle)
{
    EventQueue eq;
    Cycle seen = 0;
    eq.scheduleAt(42, [&] { seen = eq.now(); });
    eq.run();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueue, StepReturnsFalseWhenEmpty)
{
    EventQueue eq;
    EXPECT_FALSE(eq.step());
    eq.schedule(1, [] {});
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueueDeath, RunawayQueuePanics)
{
    EventQueue eq;
    std::function<void()> forever = [&]() { eq.schedule(100, forever); };
    eq.schedule(1, forever);
    EXPECT_DEATH(eq.run(10'000), "deadlock or livelock");
}

TEST(EventCallback, SmallCapturesStayInline)
{
    int hits = 0;
    EventCallback small([&hits] { ++hits; });
    EXPECT_TRUE(small.inlined());
    small();
    EXPECT_EQ(hits, 1);

    struct Big
    {
        std::uint64_t words[64];
    };
    Big big{};
    big.words[63] = 7;
    std::uint64_t seen = 0;
    EventCallback boxed([big, &seen] { seen = big.words[63]; });
    EXPECT_FALSE(boxed.inlined());
    boxed();
    EXPECT_EQ(seen, 7u);

    // Moving transfers the callable and empties the source.
    EventCallback moved(std::move(boxed));
    EXPECT_FALSE(static_cast<bool>(boxed));
    seen = 0;
    moved();
    EXPECT_EQ(seen, 7u);
}

/** Per-callable tallies, kept outside the callable it counts. */
struct Tally
{
    int copies = 0;
    int moves = 0;
    /** Destructions of a live (not moved-from) instance. */
    int destroyed = 0;
    int runs = 0;
    /** `destroyed` as seen from inside the run. */
    int destroyedAtRun = -1;
};

/**
 * Callable that reports every copy, move and destruction to its Tally.
 * A moved-from instance goes dead, so `destroyed` counts each callable
 * once however often it was relocated on the way.
 */
template <std::size_t PayloadBytes>
struct Counted
{
    Tally *t;
    bool live = true;
    std::array<unsigned char, PayloadBytes> payload{};

    explicit Counted(Tally *tally) : t(tally) {}

    Counted(const Counted &o) : t(o.t), live(o.live), payload(o.payload)
    {
        ++t->copies;
    }

    Counted(Counted &&o) noexcept
        : t(o.t), live(o.live), payload(o.payload)
    {
        o.live = false;
        ++t->moves;
    }

    Counted &operator=(const Counted &) = delete;

    ~Counted()
    {
        if (live)
            ++t->destroyed;
    }

    void
    operator()()
    {
        ++t->runs;
        t->destroyedAtRun = t->destroyed;
    }
};

using SmallCounted = Counted<16>;
/** Over the inline budget, so EventCallback heap-boxes it. */
using BoxedCounted = Counted<300>;
static_assert(sizeof(BoxedCounted) > EventCallback::kInlineBytes);

/** Delays covering the ring, its wraparound and the spill heap. */
Cycle
lifetimeDelay(unsigned i)
{
    return (i * 2654435761u) % (3 * EventQueue::kRingHorizon);
}

TEST(EventQueueLifetime, ScheduleBuildsTheCallableOnce)
{
    EventQueue eq;
    Tally rv, lv;
    eq.schedule(1, SmallCounted(&rv));
    EXPECT_LE(rv.copies + rv.moves, 1);

    SmallCounted named(&lv);
    eq.schedule(2, named);
    EXPECT_EQ(lv.copies, 1);
    EXPECT_EQ(lv.moves, 0);
    eq.run();
}

template <typename C>
void
expectRunInPlaceThenDestroyedOnce()
{
    constexpr unsigned kEvents = 600;
    std::vector<Tally> tallies(kEvents);
    std::vector<int> builds(kEvents);
    {
        EventQueue eq;
        for (unsigned i = 0; i < kEvents; ++i) {
            eq.schedule(lifetimeDelay(i), C(&tallies[i]));
            builds[i] = tallies[i].copies + tallies[i].moves;
        }
        ASSERT_GT(eq.kernelStats().heapScheduled, 0u);
        eq.run();
        for (unsigned i = 0; i < kEvents; ++i) {
            const Tally &t = tallies[i];
            EXPECT_EQ(t.copies + t.moves, builds[i]) << "event " << i;
            EXPECT_EQ(t.runs, 1) << "event " << i;
            EXPECT_EQ(t.destroyedAtRun, 0) << "event " << i;
            EXPECT_EQ(t.destroyed, 1) << "event " << i;
        }
    }
    for (unsigned i = 0; i < kEvents; ++i)
        EXPECT_EQ(tallies[i].destroyed, 1) << "event " << i;
}

TEST(EventQueueLifetime, DispatchRunsInPlaceThenDestroysOnce)
{
    expectRunInPlaceThenDestroyedOnce<SmallCounted>();
}

TEST(EventQueueLifetime, HeapBoxedCallableIsFreedOnce)
{
    expectRunInPlaceThenDestroyedOnce<BoxedCounted>();

    Tally ran, pending;
    {
        EventQueue eq;
        eq.schedule(1, BoxedCounted(&ran));
        eq.schedule(5 * EventQueue::kRingHorizon, BoxedCounted(&pending));
        EXPECT_TRUE(eq.step());
        EXPECT_EQ(ran.destroyed, 1);
        EXPECT_EQ(pending.destroyed, 0);
    }
    EXPECT_EQ(ran.destroyed, 1);
    EXPECT_EQ(pending.runs, 0);
    EXPECT_EQ(pending.destroyed, 1);
}

TEST(EventQueueLifetime, PendingCallablesAreDestroyedOnceWithTheQueue)
{
    constexpr unsigned kFirst = 700, kRun = 250, kSecond = 250;
    std::vector<Tally> tallies(kFirst + kSecond);
    {
        EventQueue eq;
        for (unsigned i = 0; i < kFirst; ++i)
            eq.schedule(lifetimeDelay(i), SmallCounted(&tallies[i]));
        // Run some, so reused nodes sit among never-run ones.
        for (unsigned i = 0; i < kRun; ++i)
            ASSERT_TRUE(eq.step());
        for (unsigned i = kFirst; i < kFirst + kSecond; ++i)
            eq.schedule(lifetimeDelay(i), SmallCounted(&tallies[i]));
        ASSERT_EQ(eq.size(), kFirst + kSecond - kRun);
    }
    int runs = 0;
    for (unsigned i = 0; i < tallies.size(); ++i) {
        runs += tallies[i].runs;
        EXPECT_EQ(tallies[i].destroyed, 1) << "event " << i;
    }
    EXPECT_EQ(runs, static_cast<int>(kRun));
}

/**
 * A callback that grows the pool by more than three chunks while it
 * runs, then checks its own captured bytes: it runs in its node, so a
 * pool that moved nodes would leave it reading freed memory.
 */
struct PoolGrower
{
    EventQueue *q;
    bool *intact;
    std::array<unsigned char, 200> payload;

    void
    operator()()
    {
        for (unsigned i = 0; i < 3 * EventQueue::kChunkNodes + 1; ++i)
            q->schedule(1 + i % 7, [] {});
        bool ok = true;
        for (std::size_t i = 0; i < payload.size(); ++i)
            ok = ok && payload[i] == static_cast<unsigned char>(i * 7 + 1);
        *intact = ok;
    }
};

TEST(EventQueueLifetime, RunningCallbackSurvivesPoolGrowth)
{
    EventQueue eq;
    bool intact = false;
    PoolGrower g{&eq, &intact, {}};
    for (std::size_t i = 0; i < g.payload.size(); ++i)
        g.payload[i] = static_cast<unsigned char>(i * 7 + 1);
    eq.schedule(1, std::move(g));
    ASSERT_TRUE(eq.step());
    EXPECT_TRUE(intact);
    EXPECT_EQ(eq.size(), 3 * EventQueue::kChunkNodes + 1);
    eq.run();
}

/**
 * Event that logs its seq and, for every third seq, schedules a child:
 * a restored queue must replay the original's order and seq numbers.
 */
struct SeqLogger
{
    EventQueue *q;
    std::vector<std::uint64_t> *log;
    std::uint64_t seq;

    void
    operator()()
    {
        log->push_back(seq);
        if (seq % 3 == 0) {
            const std::uint64_t child = q->nextSeqValue();
            q->schedule(lifetimeDelay(static_cast<unsigned>(seq)),
                        SeqLogger{q, log, child});
        }
    }
};

TEST(EventQueueLifetime, RestoreEventRebuildsWhenSeqOrder)
{
    EventQueue orig;
    std::vector<std::uint64_t> origLog;
    for (unsigned i = 0; i < 400; ++i) {
        const std::uint64_t seq = orig.nextSeqValue();
        orig.schedule(lifetimeDelay(i + 1), SeqLogger{&orig, &origLog, seq});
    }
    for (unsigned i = 0; i < 150; ++i)
        ASSERT_TRUE(orig.step());

    std::vector<std::pair<Cycle, std::uint64_t>> pending;
    orig.forEachPending([&](Cycle when, std::uint64_t seq,
                            const EventCallback &) {
        pending.emplace_back(when, seq);
    });
    std::sort(pending.begin(), pending.end());

    EventQueue copy;
    std::vector<std::uint64_t> copyLog;
    copy.setClock(orig.now());
    for (const auto &[when, seq] : pending)
        copy.restoreEvent(when, seq, SeqLogger{&copy, &copyLog, seq});
    copy.setNextSeq(orig.nextSeqValue());
    copy.setKernelStats(orig.kernelStats());
    ASSERT_EQ(copy.size(), orig.size());

    origLog.clear();
    orig.run();
    copy.run();
    EXPECT_EQ(copyLog, origLog);
    EXPECT_EQ(copy.now(), orig.now());
    const KernelStats &a = orig.kernelStats(), &b = copy.kernelStats();
    EXPECT_EQ(b.eventsScheduled, a.eventsScheduled);
    EXPECT_EQ(b.eventsExecuted, a.eventsExecuted);
    EXPECT_EQ(b.bucketScheduled, a.bucketScheduled);
    EXPECT_EQ(b.heapScheduled, a.heapScheduled);
    EXPECT_EQ(b.maxQueueDepth, a.maxQueueDepth);
}

TEST(EventQueueBoundary, SpillThenRingAtTheSameCycleRunsInSeqOrder)
{
    // An event scheduled long in advance (spill heap) and one scheduled
    // later for the same cycle (calendar ring) must still run in
    // scheduling order: the spilled event first.
    constexpr Cycle target = 3 * EventQueue::kRingHorizon;
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(target, [&] { order.push_back(1); });   // -> spill
    eq.scheduleAt(target - 10, [&eq, &order] {
        eq.scheduleAt(target, [&order] { order.push_back(2); }); // -> ring
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_GT(eq.kernelStats().heapScheduled, 0u);
    EXPECT_GT(eq.kernelStats().bucketScheduled, 0u);
}

TEST(EventQueueBoundary, DelaysStraddlingTheHorizonKeepTimeOrder)
{
    constexpr Cycle h = EventQueue::kRingHorizon;
    EventQueue eq;
    std::vector<Cycle> fired;
    for (Cycle d : {h + 1, h, h - 1, Cycle(1), h * 2, h * 5 + 3})
        eq.schedule(d, [&fired, &eq] { fired.push_back(eq.now()); });
    eq.run();
    ASSERT_EQ(fired.size(), 6u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_EQ(fired.front(), 1u);
    EXPECT_EQ(fired.back(), h * 5 + 3);
}

/**
 * Reference scheduler: a flat vector scanned for the (when, seq)
 * minimum. O(n^2) but obviously correct; the property tests require
 * the calendar queue to replay its execution order exactly.
 */
class RefQueue
{
  public:
    using Callback = std::function<void()>;

    Cycle now() const { return cur; }

    void schedule(Cycle delay, Callback cb) { scheduleAt(cur + delay, std::move(cb)); }

    void
    scheduleAt(Cycle when, Callback cb)
    {
        evs.push_back(Ev{when, seq++, std::move(cb)});
    }

    void
    run()
    {
        while (!evs.empty()) {
            auto it = std::min_element(
                evs.begin(), evs.end(), [](const Ev &a, const Ev &b) {
                    return a.when != b.when ? a.when < b.when
                                            : a.seq < b.seq;
                });
            Ev ev = std::move(*it);
            evs.erase(it);
            cur = ev.when;
            ev.cb();
        }
    }

  private:
    struct Ev
    {
        Cycle when;
        std::uint64_t seq;
        Callback cb;
    };

    std::vector<Ev> evs;
    Cycle cur = 0;
    std::uint64_t seq = 0;
};

/** Delay mix spanning both scheduler levels and ring wraparound. */
Cycle
mixedDelay(Rng &rng)
{
    switch (rng.below(4)) {
      case 0:  return rng.below(8);                            // same-ish cycle
      case 1:  return 1 + rng.below(EventQueue::kRingHorizon - 1);
      case 2:  return EventQueue::kRingHorizon - 2 + rng.below(5);
      default: return EventQueue::kRingHorizon + rng.below(4096);
    }
}

/**
 * Run a randomized scenario (initial events + events scheduled from
 * inside callbacks, random delays from mixedDelay) and record the
 * execution order of event ids. Any ordering bug in Q makes the RNG
 * draws diverge from the reference, so the orders differ.
 */
template <typename Q>
std::vector<int>
runScenario(std::uint64_t seed)
{
    Q q;
    Rng rng(seed);
    std::vector<int> order;
    int next_id = 0;

    std::function<void(int, unsigned)> fire = [&](int id, unsigned depth) {
        order.push_back(id);
        if (depth == 0)
            return;
        const unsigned children = static_cast<unsigned>(rng.below(3));
        for (unsigned c = 0; c < children; ++c) {
            const int child = next_id++;
            const Cycle d = mixedDelay(rng);
            q.schedule(d, [&fire, child, depth] { fire(child, depth - 1); });
        }
    };

    for (int i = 0; i < 200; ++i) {
        const int id = next_id++;
        q.schedule(mixedDelay(rng), [&fire, id] { fire(id, 3); });
    }
    q.run();
    return order;
}

TEST(EventQueueProperty, MatchesReferenceSchedulerAcrossSeeds)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto expected = runScenario<RefQueue>(seed);
        const auto got = runScenario<EventQueue>(seed);
        ASSERT_GT(expected.size(), 200u);
        EXPECT_EQ(got, expected) << "seed " << seed;
    }
}

TEST(EventQueueProperty, CountersBalanceAfterRandomScenario)
{
    EventQueue eq;
    Rng rng(42);
    std::uint64_t fired = 0;
    for (int i = 0; i < 500; ++i)
        eq.schedule(mixedDelay(rng), [&fired] { ++fired; });
    eq.run();

    const KernelStats &k = eq.kernelStats();
    EXPECT_EQ(k.eventsScheduled, 500u);
    EXPECT_EQ(k.eventsExecuted, 500u);
    EXPECT_EQ(k.bucketScheduled + k.heapScheduled, k.eventsScheduled);
    EXPECT_GT(k.heapScheduled, 0u);   // the long-tail delays spill
    EXPECT_EQ(k.maxQueueDepth, 500u); // all scheduled before any ran
    EXPECT_EQ(fired, 500u);
    EXPECT_TRUE(eq.empty());
}

} // namespace
} // namespace protozoa
