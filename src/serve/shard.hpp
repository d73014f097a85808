#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/ring.hpp"
#include "common/time.hpp"
#include "detect/alert.hpp"
#include "detect/registry.hpp"
#include "replay/session.hpp"
#include "telemetry/metrics.hpp"
#include "wire/frame.hpp"

namespace arpsec::serve {

/// One frame handed from the intake thread to a shard worker. The view
/// must be primed before submission — after priming, the worker's accesses
/// are read-only memo hits (the FrameBuffer cross-thread contract). The
/// intake captures the views of one read chunk from one FrameSlab, so the
/// item carries a refcount on that chunk, not bytes of its own.
struct WorkItem {
    common::SimTime at;
    wire::FrameView view;
    /// Server stopwatch reading at enqueue; the worker's reading at
    /// dequeue minus this is the drain latency sample. Negative means the
    /// intake thread did not stamp this frame (latency is sampled, not
    /// per-frame) and the worker records no sample.
    double enqueued_s = -1.0;
};

/// Picks the shard for a frame: ARP sender subnet (/24) when the frame is
/// ARP, IPv4 source subnet when it is IP, and a hash of the source MAC
/// otherwise. Keyed routing keeps every station's traffic on one shard, so
/// per-station detector state (arpwatch bindings, rate counters) never
/// splits across workers. Malformed frames all land on shard 0 — they
/// carry no addresses, and every session counts them the same way.
[[nodiscard]] std::size_t shard_of(const wire::FrameView& view, std::size_t shards);

/// One detector worker: an intake ring, one SchemeSession per configured
/// scheme, and an outbound alert ring. The intake thread is the only
/// producer, the worker thread the only consumer (and the only toucher of
/// the sessions); alerts flow out through another SPSC ring drained by the
/// server's drain thread. Every wait blocks on the rings' Parkers: an idle
/// worker sleeps in pop(), a full ring puts its producer to sleep in
/// push(). All cross-thread stats are relaxed atomics; the drain-latency
/// histogram is worker-owned and merged after join().
class Shard {
public:
    struct Options {
        std::size_t ring_capacity = 4096;
        std::size_t alert_ring_capacity = 4096;
        /// Admission policy when the intake ring is full: false blocks the
        /// intake thread (zero admitted-frame loss — the transport's own
        /// backpressure pushes back on the client); true counts and drops.
        bool drop_when_full = false;
        /// The drain thread's Parker, shared by every shard's alert ring so
        /// one thread can sleep until any shard has alerts (must outlive
        /// the shard; null gives the ring a Parker of its own).
        common::Parker* alert_parker = nullptr;
    };

    /// Builds the sessions eagerly on the constructing thread. `registry`
    /// must resolve every scheme name (the server validates first).
    Shard(std::size_t index, const detect::Registry& registry,
          const std::vector<std::string>& schemes,
          const replay::SessionOptions& session_options, const Options& options);
    ~Shard();

    Shard(const Shard&) = delete;
    Shard& operator=(const Shard&) = delete;

    /// Spawns the worker thread. `clock` must outlive the shard.
    void start(const common::Stopwatch* clock);

    /// Intake thread only. Sleeps while the ring is full (or drops, per
    /// options). Returns false iff the frame was dropped. Does not wake a
    /// sleeping worker; call publish() after a batch.
    bool submit(WorkItem item);

    /// Intake thread only: wakes the worker if it sleeps on an empty ring.
    void publish() { ring_.publish(); }

    /// Intake thread: no more submissions. The worker drains its ring,
    /// optionally runs each session's grace window (delayed alerts),
    /// closes its alert ring and exits. `run_grace` is false on
    /// snapshot-bound stops so learned state freezes at the last fed frame.
    void finish_input(bool run_grace, common::Duration grace);

    /// Joins the worker thread (idempotent).
    void join();

    /// Drain thread only: pops up to `max` pending alerts into `out`.
    std::size_t drain_alerts(std::vector<detect::Alert>& out, std::size_t max);

    /// Any thread: alerts are waiting in the alert ring.
    [[nodiscard]] bool has_alerts() const { return !alert_ring_.empty(); }
    /// Any thread: the worker has exited and will push no more alerts.
    [[nodiscard]] bool alerts_closed() const { return alert_ring_.closed(); }

    // Live stats (any thread; relaxed atomics).
    [[nodiscard]] std::uint64_t frames() const { return frames_.load(std::memory_order_relaxed); }
    [[nodiscard]] std::uint64_t malformed() const {
        return malformed_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t alerts_emitted() const {
        return alerts_emitted_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t dropped() const {
        return dropped_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t backpressure_waits() const {
        return backpressure_waits_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t alert_backpressure_waits() const {
        return alert_backpressure_waits_.load(std::memory_order_relaxed);
    }
    /// Intake-side ring occupancy snapshot (sampled after each submit).
    [[nodiscard]] std::size_t queue_depth() const { return ring_.size(); }
    [[nodiscard]] std::size_t index() const { return index_; }

    /// Post-join only: the worker no longer exists, so these are safe to
    /// read from the server thread.
    [[nodiscard]] const telemetry::Histogram& drain_latency() const { return latency_; }
    [[nodiscard]] const std::vector<std::string>& scheme_names() const { return scheme_names_; }
    [[nodiscard]] replay::SchemeSession& session(std::size_t i) { return *sessions_[i]; }
    [[nodiscard]] const replay::SchemeSession& session(std::size_t i) const {
        return *sessions_[i];
    }
    [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }

private:
    void run();
    void process(const WorkItem& item);
    void enqueue_alert(detect::Alert alert);

    std::size_t index_;
    std::vector<std::string> scheme_names_;
    std::vector<std::unique_ptr<replay::SchemeSession>> sessions_;
    common::SpscRing<WorkItem> ring_;
    common::SpscRing<detect::Alert> alert_ring_;
    bool drop_when_full_;
    const common::Stopwatch* clock_ = nullptr;
    telemetry::Histogram latency_;

    bool alerts_unpublished_ = false;  // worker-owned: pushed since the last publish
    bool run_grace_ = false;           // written before ring_.close()'s release-store
    common::Duration grace_ = common::Duration::zero();

    std::atomic<std::uint64_t> frames_{0};
    std::atomic<std::uint64_t> malformed_{0};
    std::atomic<std::uint64_t> alerts_emitted_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint64_t> backpressure_waits_{0};
    std::atomic<std::uint64_t> alert_backpressure_waits_{0};

    std::thread thread_;
    bool joined_ = true;
};

}  // namespace arpsec::serve
