#include "serve/shard.hpp"

#include <utility>

#include "wire/arp_packet.hpp"
#include "wire/ipv4_packet.hpp"

namespace arpsec::serve {

namespace {

/// splitmix64 finisher: spreads the low-entropy subnet keys so consecutive
/// /24s don't all collapse onto consecutive shards.
std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Drain-latency buckets: 1µs .. 1s, decade-spaced. Queueing under load
/// lives in the middle decades; the overflow bucket flags a stalled worker.
std::vector<double> latency_bounds() {
    return {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0};
}

}  // namespace

std::size_t shard_of(const wire::FrameView& view, std::size_t shards) {
    if (shards <= 1) return 0;
    std::uint64_t key = 0;
    if (const wire::ArpPacket* arp = view.arp(); arp != nullptr) {
        key = arp->sender_ip.value() >> 8;
    } else if (const wire::Ipv4Packet* ip = view.ipv4(); ip != nullptr) {
        key = ip->src.value() >> 8;
    } else if (view.ok()) {
        key = view.src().to_u64();
    } else {
        return 0;  // malformed: no addresses to key on
    }
    return static_cast<std::size_t>(mix64(key) % shards);
}

Shard::Shard(std::size_t index, const detect::Registry& registry,
             const std::vector<std::string>& schemes,
             const replay::SessionOptions& session_options, const Options& options)
    : index_(index),
      scheme_names_(schemes),
      ring_(options.ring_capacity),
      alert_ring_(options.alert_ring_capacity, options.alert_parker),
      drop_when_full_(options.drop_when_full),
      latency_(latency_bounds()) {
    sessions_.reserve(schemes.size());
    for (const std::string& name : schemes) {
        auto session =
            std::make_unique<replay::SchemeSession>(registry.make(name), session_options);
        session->alerts().on_alert = [this](const detect::Alert& a) { enqueue_alert(a); };
        sessions_.push_back(std::move(session));
    }
}

Shard::~Shard() { join(); }

void Shard::start(const common::Stopwatch* clock) {
    clock_ = clock;
    joined_ = false;
    thread_ = std::thread([this] { run(); });
}

bool Shard::submit(WorkItem item) {
    if (!drop_when_full_) {
        if (ring_.push(std::move(item))) {
            backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
        }
        return true;
    }
    // Dropping never sleeps, so nothing else wakes a worker that sleeps on
    // this batch's unpublished frames: publish once the ring is half full,
    // leaving the worker half a ring of slack before frames are dropped.
    const bool pushed = ring_.try_push(std::move(item));
    if (ring_.size() * 2 >= ring_.capacity()) ring_.publish();
    if (pushed) return true;
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
}

void Shard::finish_input(bool run_grace, common::Duration grace) {
    run_grace_ = run_grace;
    grace_ = grace;
    ring_.close();
}

void Shard::join() {
    if (!joined_ && thread_.joinable()) thread_.join();
    joined_ = true;
}

std::size_t Shard::drain_alerts(std::vector<detect::Alert>& out, std::size_t max) {
    std::size_t n = 0;
    detect::Alert alert;
    while (n < max && alert_ring_.try_pop(alert)) {
        out.push_back(std::move(alert));
        ++n;
    }
    return n;
}

void Shard::run() {
    // Alerts go out in batches: the drain thread is woken when this worker
    // runs out of frames (it is about to sleep) and at least every
    // kAlertPublishEvery frames under sustained load, and only when there
    // is something new for it.
    constexpr std::uint64_t kAlertPublishEvery = 256;
    std::uint64_t since_publish = 0;
    const auto publish_alerts = [&] {
        if (alerts_unpublished_) alert_ring_.publish();
        alerts_unpublished_ = false;
        since_publish = 0;
    };
    WorkItem item;
    for (;;) {
        if (!ring_.try_pop(item)) {
            publish_alerts();
            if (!ring_.pop(item)) break;  // closed and drained
        }
        process(item);
        if (++since_publish == kAlertPublishEvery) publish_alerts();
    }
    if (run_grace_) {
        for (auto& session : sessions_) session->finish(grace_);
    }
    wire::flush_frameview_hits();
    alert_ring_.close();
}

void Shard::process(const WorkItem& item) {
    frames_.fetch_add(1, std::memory_order_relaxed);
    bool ok = true;
    for (auto& session : sessions_) ok = session->feed(item.at, item.view) && ok;
    if (!ok) malformed_.fetch_add(1, std::memory_order_relaxed);
    // enqueued_s < 0 marks an unsampled frame (the intake thread stamps
    // only a subset to keep two clock reads off the per-frame hot path).
    if (clock_ != nullptr && item.enqueued_s >= 0.0) {
        latency_.observe(clock_->elapsed_seconds() - item.enqueued_s);
    }
}

void Shard::enqueue_alert(detect::Alert alert) {
    alerts_emitted_.fetch_add(1, std::memory_order_relaxed);
    // Alerts are the product; dropping them is never acceptable. A full
    // ring sleeps here until the drain thread makes room.
    if (alert_ring_.push(std::move(alert))) {
        alert_backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
    }
    alerts_unpublished_ = true;
}

}  // namespace arpsec::serve
