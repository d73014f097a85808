#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/ring.hpp"
#include "replay/trace.hpp"
#include "telemetry/metrics.hpp"
#include "wire/frame.hpp"

namespace arpsec::replay {

/// Intra-trace pipeline configuration. `workers == 0` disables the pipeline
/// entirely: views are built and primed inline on the calling thread (the
/// exact pre-pipeline code path), which is what the `--pipeline 0` vs
/// `--pipeline N` byte-identity gates compare against.
struct PipelineOptions {
    /// Prime-stage worker threads (0 = synchronous, no threads spawned).
    std::size_t workers = 0;
    /// Frames per batch — the unit of prime work and of lane gating. Batch
    /// boundaries MUST NOT affect scores: batching only changes when a memo
    /// gets written, never what it contains.
    std::size_t batch_frames = 1024;
    /// Per-worker ring capacity in batches. Bounds how far a prime worker
    /// may run ahead of the slowest consumer-visible frontier (backpressure
    /// keeps the primed working set near cache size).
    std::size_t ring_slots = 8;
};

/// Stage-parallel FrameView priming for the replay engine.
///
/// The trace is split into fixed-size frame batches. Prime workers build
/// each batch's views (`FrameBuffer::capture` + `FrameView::prime()`) so
/// the Ethernet/ARP/IPv4 memos are populated off the evaluation hot path;
/// batches are statically sharded worker w <- {k : k % workers == w}, and
/// each worker pushes finished batch indices, in increasing order, into its
/// own bounded SPSC ring (`common::SpscRing`). A collector thread — the
/// single consumer of every ring — pops batch 0 from ring 0, batch 1 from
/// ring 1, ... and advances the publication frontier strictly in batch
/// order. Evaluation lanes (one per scheme, fanned out by Engine::run_all)
/// block on `wait_batch()` until the frontier passes the batch they need,
/// so every lane consumes primed batches in order.
///
/// Memory-safety contract: views_[i] is written by exactly one prime
/// worker, whose writes are published to the collector by the ring push
/// (release) and to lanes by the frontier store (release); lanes read only
/// after a frontier acquire, so the unsynchronized FrameBuffer memo is
/// never written concurrently with a read. Priming completes regardless of
/// consumers (the collector drains every ring), so destruction never
/// deadlocks on an abandoned lane.
///
/// Determinism contract: the frontier only controls *when* a lane may read
/// a view, never what the view contains — scores, stdout, and the
/// arpsec.replay-artifact.v1 envelope are byte-identical for every
/// (workers, batch_frames, ring_slots, jobs) combination.
class Pipeline {
public:
    /// Builds the pipeline over `trace` (which must outlive it) and starts
    /// priming: inline (returns with everything primed) when
    /// options.workers == 0, on background threads otherwise.
    Pipeline(const LabeledTrace& trace, PipelineOptions options);

    /// Joins all prime/collector threads. Safe when already joined.
    ~Pipeline();

    Pipeline(const Pipeline&) = delete;
    Pipeline& operator=(const Pipeline&) = delete;

    [[nodiscard]] const std::vector<wire::FrameView>& views() const { return views_; }
    [[nodiscard]] std::size_t batch_frames() const { return options_.batch_frames; }
    [[nodiscard]] std::size_t batch_count() const { return batch_count_; }

    /// Blocks until batch `index` (and every batch before it) is primed.
    /// Returns immediately once the frontier has passed it; out-of-range
    /// indices clamp to the last batch.
    void wait_batch(std::size_t index) const;

    /// Frames currently safe to read: monotone, reaches views().size() once
    /// priming finishes. A lane that cached this value may read any view
    /// below it without further synchronization.
    [[nodiscard]] std::size_t ready_frames() const;

    /// Blocks until every batch is primed and all pipeline threads have
    /// exited. Called by the destructor; call earlier to bound the
    /// pipeline's lifetime explicitly (e.g. before exporting metrics).
    void join();

    /// Publishes pipeline observability counters into `registry`:
    /// `replay.pipeline.workers`, `replay.pipeline.batches`,
    /// `replay.pipeline.batch_frames`, `replay.pipeline.frames_primed`, and
    /// the per-run ring occupancy high-water gauge
    /// `replay.pipeline.ring_occupancy_highwater`. Requires join() first.
    /// These are observability-only — like the FrameView parse counters,
    /// they are timing-dependent and must never feed per-run artifacts,
    /// which are byte-identical across --pipeline/--jobs by contract.
    void export_metrics(telemetry::MetricsRegistry& registry) const;

private:
    void prime_batch(std::size_t batch);
    void worker_main(std::size_t worker);
    void collector_main();

    const LabeledTrace* trace_;
    PipelineOptions options_;
    std::size_t batch_count_ = 0;
    wire::FrameSlab slab_;
    std::vector<wire::FrameView> views_;

    using BatchRing = common::SpscRing<std::uint32_t>;
    std::vector<std::unique_ptr<BatchRing>> rings_;       // one per worker
    std::vector<std::size_t> ring_highwater_;             // worker-local, read after join
    std::vector<std::thread> threads_;                    // workers + collector
    bool joined_ = false;
    std::atomic<std::size_t> frontier_{0};                // batches published, in order
};

}  // namespace arpsec::replay
