#include "replay/pipeline.hpp"

#include <algorithm>

namespace arpsec::replay {

namespace {

std::size_t div_ceil(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

}  // namespace

Pipeline::Pipeline(const LabeledTrace& trace, PipelineOptions options)
    : trace_(&trace), options_(options), slab_(trace.frames.size(), trace.storage) {
    if (options_.batch_frames == 0) options_.batch_frames = 1;
    if (options_.ring_slots == 0) options_.ring_slots = 1;
    const std::size_t nframes = trace.frames.size();
    batch_count_ = div_ceil(nframes, options_.batch_frames);
    views_.resize(nframes);

    if (options_.workers == 0 || batch_count_ <= 1) {
        // Synchronous mode: the exact pre-pipeline code path (build + prime
        // on the calling thread), then publish everything at once. No
        // threads, no rings — this is the --pipeline 0 baseline the
        // byte-identity gates compare against.
        options_.workers = 0;
        for (std::size_t k = 0; k < batch_count_; ++k) prime_batch(k);
        frontier_.store(batch_count_, std::memory_order_release);
        joined_ = true;
        return;
    }

    options_.workers = std::min(options_.workers, batch_count_);
    rings_.reserve(options_.workers);
    ring_highwater_.assign(options_.workers, 0);
    for (std::size_t w = 0; w < options_.workers; ++w) {
        rings_.push_back(std::make_unique<BatchRing>(options_.ring_slots));
    }
    threads_.reserve(options_.workers + 1);
    for (std::size_t w = 0; w < options_.workers; ++w) {
        threads_.emplace_back([this, w] { worker_main(w); });
    }
    threads_.emplace_back([this] { collector_main(); });
}

Pipeline::~Pipeline() { join(); }

void Pipeline::prime_batch(std::size_t batch) {
    const std::size_t begin = batch * options_.batch_frames;
    const std::size_t end = std::min(begin + options_.batch_frames, trace_->frames.size());
    for (std::size_t i = begin; i < end; ++i) {
        wire::FrameView view{slab_.capture(i, trace_->frames[i].bytes)};
        view.prime();
        views_[i] = std::move(view);
    }
}

void Pipeline::worker_main(std::size_t worker) {
    BatchRing& ring = *rings_[worker];
    std::size_t highwater = 0;
    // Static shard: worker w primes batches w, w+P, w+2P, ... in increasing
    // order, so its ring carries a strictly increasing batch sequence and
    // the collector can pop each ring exactly when that ring's next batch
    // is due. One producer (this thread), one consumer (the collector):
    // a genuine SPSC pairing.
    for (std::size_t k = worker; k < batch_count_; k += options_.workers) {
        prime_batch(k);
        // The release store inside try_push publishes this batch's memo
        // writes to the collector; a full ring is the backpressure that
        // stops this worker from running unboundedly ahead.
        while (!ring.try_push(static_cast<std::uint32_t>(k))) std::this_thread::yield();
        highwater = std::max(highwater, ring.size());
    }
    ring_highwater_[worker] = highwater;  // read by export_metrics after join
    // Prime parses tallied on this thread must reach the process-wide
    // counters before the thread exits (prime-stage hit ratio telemetry).
    wire::flush_frameview_hits();
}

void Pipeline::collector_main() {
    // Single consumer of every ring. Batch k always sits in ring k % P and
    // each ring is FIFO over an increasing batch sequence, so popping in
    // global batch order recovers exactly k at each step; the frontier
    // therefore advances strictly in order no matter how workers interleave.
    for (std::size_t k = 0; k < batch_count_; ++k) {
        BatchRing& ring = *rings_[k % options_.workers];
        std::uint32_t batch = 0;
        while (!ring.try_pop(batch)) std::this_thread::yield();
        // The acquire load inside try_pop synchronizes with the worker's
        // push; the release store here republishes the whole prefix to the
        // evaluation lanes waiting in wait_batch().
        frontier_.store(k + 1, std::memory_order_release);
        frontier_.notify_all();
    }
}

void Pipeline::wait_batch(std::size_t index) const {
    if (batch_count_ == 0) return;
    const std::size_t need = std::min(index, batch_count_ - 1) + 1;
    std::size_t cur = frontier_.load(std::memory_order_acquire);
    while (cur < need) {
        frontier_.wait(cur, std::memory_order_acquire);
        cur = frontier_.load(std::memory_order_acquire);
    }
}

std::size_t Pipeline::ready_frames() const {
    const std::size_t published = frontier_.load(std::memory_order_acquire);
    return std::min(published * options_.batch_frames, views_.size());
}

void Pipeline::join() {
    if (joined_) return;
    for (std::thread& t : threads_) {
        if (t.joinable()) t.join();
    }
    joined_ = true;
}

void Pipeline::export_metrics(telemetry::MetricsRegistry& registry) const {
    registry.counter("replay.pipeline.workers").inc(options_.workers);
    registry.counter("replay.pipeline.batches").inc(batch_count_);
    registry.counter("replay.pipeline.batch_frames").inc(options_.batch_frames);
    registry.counter("replay.pipeline.frames_primed").inc(views_.size());
    std::size_t highwater = 0;
    for (const std::size_t hw : ring_highwater_) highwater = std::max(highwater, hw);
    registry.gauge("replay.pipeline.ring_occupancy_highwater")
        .set(static_cast<std::int64_t>(highwater));
}

}  // namespace arpsec::replay
