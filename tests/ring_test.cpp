// Tests for the bounded SPSC ring (common/ring.hpp): FIFO order, the
// capacity/full/empty boundary conditions serve's shard backpressure rides
// on, index wraparound, move-only payloads, and producer/consumer stress
// runs — spinning on the try_ ends and sleeping on the blocking ends — that
// the TSan CI job executes with real threads (spawned through
// exp::run_indexed and exp::run_pair — the sanctioned thread entry points,
// so this file stays clean under the no-threads-in-sim lint rule).

#include "common/ring.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/executor.hpp"

namespace arpsec::common {
namespace {

TEST(SpscRingTest, CapacityIsAtLeastRequested) {
    for (std::size_t req = 1; req <= 64; ++req) {
        SpscRing<int> ring{req};
        EXPECT_GE(ring.capacity(), req) << "requested " << req;
    }
    // Power-of-two storage with one sacrificial slot: asking for 8 rounds
    // the backing array to 16 and yields 15 usable slots.
    EXPECT_EQ(SpscRing<int>{8}.capacity(), 15u);
    EXPECT_EQ(SpscRing<int>{3}.capacity(), 3u);
}

TEST(SpscRingTest, StartsEmpty) {
    SpscRing<int> ring{4};
    EXPECT_TRUE(ring.empty());
    EXPECT_FALSE(ring.full());
    EXPECT_EQ(ring.size(), 0u);
    int out = -1;
    EXPECT_FALSE(ring.try_pop(out));
    EXPECT_EQ(out, -1);  // pop must leave `out` untouched on failure
}

TEST(SpscRingTest, FifoOrder) {
    SpscRing<int> ring{8};
    for (int v = 0; v < 5; ++v) ASSERT_TRUE(ring.try_push(v));
    for (int v = 0; v < 5; ++v) {
        int out = -1;
        ASSERT_TRUE(ring.try_pop(out));
        EXPECT_EQ(out, v);
    }
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRingTest, FullRejectsPushUntilPopped) {
    SpscRing<int> ring{2};  // rounds to 4 slots -> 3 usable
    const std::size_t cap = ring.capacity();
    for (std::size_t i = 0; i < cap; ++i) {
        ASSERT_TRUE(ring.try_push(static_cast<int>(i))) << "push " << i;
    }
    EXPECT_TRUE(ring.full());
    EXPECT_EQ(ring.size(), cap);
    EXPECT_FALSE(ring.try_push(99));  // bounded: the full ring is backpressure
    int out = -1;
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, 0);
    EXPECT_FALSE(ring.full());
    EXPECT_TRUE(ring.try_push(99));  // one pop frees exactly one slot
    EXPECT_TRUE(ring.full());
}

TEST(SpscRingTest, DrainingReportsEmpty) {
    SpscRing<int> ring{4};
    ASSERT_TRUE(ring.try_push(7));
    int out = 0;
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_TRUE(ring.empty());
    EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRingTest, WraparoundPreservesFifo) {
    // A tiny ring cycled far past its capacity exercises every head/tail
    // mask combination; order must survive the wraps.
    SpscRing<std::uint32_t> ring{2};
    std::uint32_t next_pop = 0;
    std::uint32_t next_push = 0;
    for (int cycle = 0; cycle < 1000; ++cycle) {
        while (ring.try_push(std::uint32_t{next_push})) ++next_push;
        std::uint32_t out = 0;
        while (ring.try_pop(out)) {
            ASSERT_EQ(out, next_pop);
            ++next_pop;
        }
    }
    EXPECT_EQ(next_pop, next_push);
    EXPECT_GT(next_pop, 2000u);
}

TEST(SpscRingTest, CarriesMoveOnlyPayloads) {
    SpscRing<std::unique_ptr<int>> ring{4};
    ASSERT_TRUE(ring.try_push(std::make_unique<int>(42)));
    std::unique_ptr<int> out;
    ASSERT_TRUE(ring.try_pop(out));
    ASSERT_NE(out, nullptr);
    EXPECT_EQ(*out, 42);
}

TEST(SpscRingTest, CopyPushLeavesSourceIntact) {
    SpscRing<std::vector<int>> ring{4};
    const std::vector<int> item{1, 2, 3};
    ASSERT_TRUE(ring.try_push(item));
    EXPECT_EQ(item.size(), 3u);
    std::vector<int> out;
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, item);
}

// One real producer thread vs one real consumer thread across a deliberately
// tiny ring, so both the full-ring and empty-ring spins run constantly. The
// consumer asserts the exact sequence 0,1,2,... — any lost, duplicated, or
// reordered item fails; any unsynchronized slot access trips the TSan CI
// job. Threads come from exp::run_indexed: index 0 produces, index 1
// consumes, and jobs=2 guarantees they overlap.
TEST(SpscRingTest, ProducerConsumerStressKeepsSequence) {
    constexpr std::uint32_t kItems = 200000;
    SpscRing<std::uint32_t> ring{4};
    std::vector<std::string> errors = exp::run_indexed(2, 2, [&ring](std::size_t role) {
        if (role == 0) {
            for (std::uint32_t v = 0; v < kItems; ++v) {
                while (!ring.try_push(std::uint32_t{v})) exp::yield_thread();
            }
        } else {
            for (std::uint32_t expected = 0; expected < kItems; ++expected) {
                std::uint32_t got = 0;
                while (!ring.try_pop(got)) exp::yield_thread();
                if (got != expected) {
                    throw std::runtime_error("ring out of order at " + std::to_string(expected));
                }
            }
        }
    });
    EXPECT_EQ(errors[0], "");
    EXPECT_EQ(errors[1], "");
    EXPECT_TRUE(ring.empty());
}

TEST(SpscRingTest, ClosedRingDrainsThenReportsEnd) {
    SpscRing<int> ring{4};
    ASSERT_TRUE(ring.try_push(1));
    ASSERT_TRUE(ring.try_push(2));
    EXPECT_FALSE(ring.closed());
    ring.close();
    EXPECT_TRUE(ring.closed());
    int out = 0;
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, 1);
    ASSERT_TRUE(ring.pop(out));
    EXPECT_EQ(out, 2);
    EXPECT_FALSE(ring.pop(out));  // closed and drained: no sleep, no item
    EXPECT_EQ(out, 2);
}

// The blocking ends under load, at capacities 2-4. The producer publishes
// only every kPublishEvery pushes — more than the ring holds — so a full
// ring whose consumer sleeps on unpublished items is only ever woken by
// push()'s own publish-before-sleep. Periodic 1 ms pauses force both
// waits: the consumer's pause lets the ring fill (the producer must sleep
// in push), the producer's pause lets it drain (the consumer must sleep in
// pop). The consumer checks the exact sequence and that pop() ends only
// after close(); a lost wakeup hangs the test, a data race trips TSan.
TEST(SpscRingTest, BlockingEndsKeepSequenceThroughBothWaits) {
    constexpr std::uint32_t kItems = 60000;
    constexpr std::uint32_t kPublishEvery = 7;
    constexpr std::uint32_t kPauseEvery = 4096;
    for (const std::size_t capacity : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
        SpscRing<std::uint32_t> ring{capacity};
        std::uint64_t producer_waits = 0;
        std::uint32_t delivered = 0;
        std::uint32_t out_of_order = 0;
        const std::string consumer_error = exp::run_pair(
            [&] {
                // Keeps draining after a mismatch: a consumer that stopped
                // would leave the producer asleep on a full ring.
                std::uint32_t got = 0;
                while (ring.pop(got)) {
                    if (got != delivered) ++out_of_order;
                    ++delivered;
                    if (delivered % kPauseEvery == kPauseEvery / 2) exp::sleep_millis(1);
                }
            },
            [&] {
                for (std::uint32_t v = 0; v < kItems; ++v) {
                    if (ring.push(std::uint32_t{v})) ++producer_waits;
                    if (v % kPublishEvery == kPublishEvery - 1) ring.publish();
                    if (v % kPauseEvery == 0) exp::sleep_millis(1);
                }
                ring.close();
            });
        EXPECT_EQ(consumer_error, "") << "capacity " << capacity;
        EXPECT_EQ(delivered, kItems) << "capacity " << capacity;
        EXPECT_EQ(out_of_order, 0u) << "capacity " << capacity;
        EXPECT_GT(producer_waits, 0u) << "capacity " << capacity;
        EXPECT_TRUE(ring.empty());
    }
}

// close() while the consumer is asleep in pop() on an empty ring: the items
// pushed before close() (never published) must all be delivered, in FIFO
// order, before pop() reports the end.
TEST(SpscRingTest, CloseWakesASleepingConsumerAndDeliversEverything) {
    SpscRing<std::unique_ptr<std::uint32_t>> ring{8};
    std::vector<std::uint32_t> got;
    const std::string consumer_error = exp::run_pair(
        [&] {
            std::unique_ptr<std::uint32_t> item;
            while (ring.pop(item)) got.push_back(*item);
        },
        [&] {
            exp::sleep_millis(20);  // the consumer is asleep in pop() by now
            for (std::uint32_t v = 0; v < 5; ++v) {
                EXPECT_TRUE(ring.try_push(std::make_unique<std::uint32_t>(v)));
            }
            ring.close();
        });
    EXPECT_EQ(consumer_error, "");
    EXPECT_EQ(got, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

// One consumer draining several rings through one shared Parker (serve's
// drain thread): it sleeps until any ring has an item or all are closed.
TEST(SpscRingTest, SharedParkerWakesAMultiRingConsumer) {
    Parker parker;
    SpscRing<std::uint32_t> a{4, &parker};
    SpscRing<std::uint32_t> b{4, &parker};
    std::vector<std::uint32_t> got;
    const std::string consumer_error = exp::run_pair(
        [&] {
            for (;;) {
                const bool done = a.closed() && b.closed();
                const std::size_t before = got.size();
                std::uint32_t v = 0;
                while (a.try_pop(v)) got.push_back(v);
                while (b.try_pop(v)) got.push_back(v);
                if (got.size() != before) continue;
                if (done) break;
                parker.wait_until([&] {
                    return !a.empty() || !b.empty() || (a.closed() && b.closed());
                });
            }
        },
        [&] {
            for (std::uint32_t v = 0; v < 200; ++v) {
                SpscRing<std::uint32_t>& ring = v % 2 == 0 ? a : b;
                ring.push(std::uint32_t{v});
                ring.publish();
                if (v % 50 == 0) exp::sleep_millis(1);
            }
            a.close();
            b.close();
        });
    EXPECT_EQ(consumer_error, "");
    ASSERT_EQ(got.size(), 200u);
    std::uint32_t next_even = 0;
    std::uint32_t next_odd = 1;
    for (const std::uint32_t v : got) {  // FIFO per ring
        std::uint32_t& next = v % 2 == 0 ? next_even : next_odd;
        EXPECT_EQ(v, next);
        next += 2;
    }
}

}  // namespace
}  // namespace arpsec::common
