#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace arpsec::common {

/// Sleep/wake handshake for exactly one sleeping thread and any number of
/// wakers, built on `std::atomic<std::uint32_t>::wait/notify` (a futex on
/// Linux) and the Dekker pattern:
///
///   sleeper: flag = 1; if ready() return; wait while flag == 1
///   waker:   make ready() true; if flag was 1: clear it and notify
///
/// Every access to the flag is an acq_rel read-modify-write, so the flag's
/// modification order serializes the two sides: either the waker's RMW
/// comes first and the sleeper's RMW synchronizes with it (its re-check of
/// ready() then sees the new state), or the sleeper's comes first and the
/// waker reads 1 and notifies. A wakeup is never lost. The RMW does the
/// work of the classic store/seq_cst-fence/load pair (on x86 it is one
/// locked instruction either way), and unlike a standalone fence it is
/// visible to ThreadSanitizer. A waker that finds nobody asleep pays that
/// one RMW on a cache line the sleeper leaves alone while it is awake.
///
/// The condition itself must be published by the waker with release
/// semantics and read by `ready()` with acquire semantics (SpscRing's
/// indices and closed flag are); the Parker only decides who sleeps.
class Parker {
public:
    /// Sleeper side: returns once `ready()` holds, blocking in between.
    template <typename Ready>
    void wait_until(Ready&& ready) {
        while (!ready()) {
            sleeping_.exchange(1, std::memory_order_acq_rel);
            if (ready()) {
                sleeping_.exchange(0, std::memory_order_acq_rel);
                return;
            }
            sleeping_.wait(1, std::memory_order_acquire);
        }
    }

    /// Waker side: call after making the sleeper's condition true.
    void wake() {
        if (sleeping_.exchange(0, std::memory_order_acq_rel) != 0) sleeping_.notify_one();
    }

private:
    std::atomic<std::uint32_t> sleeping_{0};
};

/// Bounded single-producer / single-consumer ring buffer.
///
/// Exactly one thread may call the push side and exactly one thread the pop
/// side; under that contract the try_ operations are lock-free (one relaxed
/// load, one acquire load, one release store per call, plus the atomic
/// exchange with which try_pop wakes a sleeping producer) and the queue
/// delivers items in strict FIFO order. Each serve shard owns two rings:
/// frames in (producer: the intake thread, consumer: the shard worker) and
/// alerts out (producer: the shard worker, consumer: the drain thread). The
/// bounded capacity is what gives the shards backpressure: a producer whose
/// ring is full cannot run unboundedly ahead of the consumer.
///
/// Blocking ends: push() sleeps while the ring is full, pop() sleeps while
/// it is empty and not closed. Neither spins; both sleep on a Parker.
/// A push does not wake a sleeping consumer by itself — the producer calls
/// publish() after a batch (serve's intake: once per read chunk), and
/// push() publishes before it sleeps on a full ring, so a batch larger
/// than the ring cannot deadlock. Every successful pop wakes a producer
/// sleeping on a full ring. close() ends the stream: pop() delivers what
/// is left and then returns false.
///
/// A consumer that drains several rings passes one shared Parker to all
/// of them and sleeps on it itself (serve's drain thread); publish() and
/// close() then wake that Parker.
///
/// Capacity is rounded up to a power of two so index wrapping is a mask,
/// and one slot is sacrificed to distinguish full from empty — a ring asked
/// for capacity N accepts at least N items before try_push fails.
///
/// T must be default-constructible and movable. This lives in common/ by
/// design (see the no-threads-in-sim lint rule): the ring itself spawns no
/// threads and takes no locks; only src/exp/ and src/serve/ may put
/// threads on either end.
template <typename T>
class SpscRing {
public:
    /// `consumer` (optional, must outlive the ring) replaces the ring's own
    /// consumer-side Parker.
    explicit SpscRing(std::size_t capacity, Parker* consumer = nullptr)
        : consumer_(consumer != nullptr ? consumer : &own_consumer_) {
        std::size_t cap = 2;
        while (cap < capacity + 1) cap *= 2;  // +1: one slot stays empty
        slots_.resize(cap);
        mask_ = cap - 1;
    }

    SpscRing(const SpscRing&) = delete;
    SpscRing& operator=(const SpscRing&) = delete;

    /// Usable capacity (>= the constructor argument).
    [[nodiscard]] std::size_t capacity() const { return slots_.size() - 1; }

    /// Producer side. Returns false when the ring is full (item untouched).
    /// Does not wake the consumer; see publish().
    [[nodiscard]] bool try_push(T&& item) { return push_from(item); }
    [[nodiscard]] bool try_push(const T& item) {
        T copy = item;
        return try_push(std::move(copy));
    }

    /// Producer side: pushes, sleeping while the ring is full. Returns true
    /// iff it had to wait (the backpressure count).
    bool push(T&& item) {
        if (push_from(item)) return false;
        publish();  // the consumer may be asleep on items it was never told of
        space_.wait_until([this] { return !full(); });
        (void)push_from(item);  // cannot fail: only this thread fills the ring
        return true;
    }

    /// Producer side: wakes the consumer if it sleeps. One atomic exchange
    /// when it does not.
    void publish() { consumer_->wake(); }

    /// Producer side: no more pushes. The consumer's pop() delivers what is
    /// left, then returns false.
    void close() {
        closed_.store(true, std::memory_order_release);
        consumer_->wake();
    }

    /// Consumer side. Returns false when the ring is empty (out untouched).
    [[nodiscard]] bool try_pop(T& out) {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        if (tail == head_.load(std::memory_order_acquire)) return false;
        out = std::move(slots_[tail]);
        tail_.store((tail + 1) & mask_, std::memory_order_release);
        space_.wake();
        return true;
    }

    /// Consumer side: pops, sleeping while the ring is empty. Returns false
    /// only once the ring is closed and drained.
    [[nodiscard]] bool pop(T& out) {
        for (;;) {
            if (try_pop(out)) return true;
            // close() release-stores after the producer's last push, so a
            // consumer that sees the flag also sees every item.
            if (closed()) return try_pop(out);
            consumer_->wait_until([this] { return !empty() || closed(); });
        }
    }

    /// True once close() has been called (any thread).
    [[nodiscard]] bool closed() const { return closed_.load(std::memory_order_acquire); }

    /// Item count. Exact from the producer or consumer thread between its
    /// own operations; a snapshot (may be stale by in-flight operations)
    /// from anywhere else. Serve's intake samples it after each submit
    /// for the shard queue-depth gauge.
    [[nodiscard]] std::size_t size() const {
        const std::size_t head = head_.load(std::memory_order_acquire);
        const std::size_t tail = tail_.load(std::memory_order_acquire);
        return (head - tail) & mask_;
    }

    [[nodiscard]] bool empty() const { return size() == 0; }
    [[nodiscard]] bool full() const { return size() == capacity(); }

private:
    /// Moves from `item` only when there is room (returns true).
    bool push_from(T& item) {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        const std::size_t next = (head + 1) & mask_;
        if (next == tail_.load(std::memory_order_acquire)) return false;
        slots_[head] = std::move(item);
        head_.store(next, std::memory_order_release);
        return true;
    }

    std::vector<T> slots_;
    std::size_t mask_ = 0;
    Parker* consumer_;
    alignas(64) std::atomic<std::size_t> head_{0};  // next write (producer-owned)
    alignas(64) std::atomic<std::size_t> tail_{0};  // next read (consumer-owned)
    alignas(64) Parker own_consumer_;               // the consumer sleeps here
    std::atomic<bool> closed_{false};
    alignas(64) Parker space_;  // the producer sleeps here on a full ring
};

}  // namespace arpsec::common
