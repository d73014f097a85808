#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "common/ring.hpp"
#include "common/time.hpp"
#include "detect/alert.hpp"
#include "detect/registry.hpp"
#include "serve/shard.hpp"
#include "serve/transport.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace arpsec::serve {

/// Snapshot artifact schema written by Server::write_snapshot.
inline constexpr const char* kSnapshotSchema = "arpsec.serve-snapshot.v1";
/// Schema of the final kSummary record and of serve() outcome summaries.
inline constexpr const char* kSummarySchema = "arpsec.serve-summary.v1";
/// Schema of the periodic scorecard JSONL lines.
inline constexpr const char* kScorecardSchema = "arpsec.serve-scorecard.v1";

struct ServerOptions {
    /// Scheme names deployed in every shard (each shard owns one
    /// SchemeSession per name).
    std::vector<std::string> schemes{"arpwatch"};
    std::size_t shards = 1;
    std::size_t ring_capacity = 4096;
    std::size_t alert_ring_capacity = 4096;
    /// false = block the intake thread when a shard ring fills (zero
    /// admitted-frame loss); true = count and drop instead.
    bool drop_when_full = false;
    /// Virtual-time grace window run after a clean END record so delayed
    /// alerts (probe timeouts) land — the same knob arpsec-replay uses.
    common::Duration grace = common::Duration::seconds(5);
    /// Per-read timeout. <0 blocks forever; >=0 bounds each read so the
    /// stop flag and the idle clock are polled.
    int read_timeout_ms = -1;
    /// Total quiet time (consecutive timeouts with no data) before the
    /// stream is abandoned. <0 disables.
    int idle_timeout_ms = -1;
    /// Append a scorecard JSONL line to `scorecard_path` every N admitted
    /// frames (0 disables).
    std::uint64_t scorecard_every = 0;
    std::string scorecard_path;
    /// Stream kAlert records back to the client as alerts drain.
    bool stream_alerts = true;
    /// Send the final kSummary record before returning.
    bool send_summary = true;
    /// Load this `arpsec.serve-snapshot.v1` file before serving; the
    /// stream's HELLO seed must then match the snapshot's.
    std::string restore_path;
};

/// What one serve() call produced.
struct ServeOutcome {
    /// Every alert drained from the shards, in drain order (interleaving is
    /// nondeterministic across shards; sort_canonical() for artifacts).
    std::vector<detect::Alert> alerts;
    /// `arpsec.serve-summary.v1` — deterministic fields only.
    telemetry::Json summary;
    bool ended_by_end_record = false;
    /// request_stop() interrupted the stream (snapshot-bound shutdown).
    bool stopped = false;
    /// Idle timeout abandoned the stream.
    bool idled_out = false;
    /// Non-empty when the transport failed or the framing latched fatal;
    /// everything admitted before the failure was still processed.
    std::string transport_error;
};

/// The long-lived streaming detection service. One serve() call owns one
/// client stream end to end:
///
///   intake thread (the caller) — reads the transport, decodes
///     `arpsec.stream.v1` records, copies each read chunk's frame bytes
///     into one buffer under one FrameSlab, primes each frame's FrameView
///     once, and routes it to a shard by subnet key (single producer to
///     every ring; it wakes the shards once per chunk);
///   N shard workers — each owns its SchemeSessions and feeds them frames
///     (single consumer of its ring; sleeps while the ring is empty);
///   drain thread — pops alert rings, collects alerts, and writes kAlert
///     records back to the client (sleeps until a shard publishes alerts
///     or every worker has exited).
///
/// Backpressure is explicit: a full shard ring either puts the intake
/// thread to sleep (default — the transport then pushes back on the
/// client, so no admitted frame is ever lost) or drops with per-shard
/// accounting.
/// Malformed records are skipped with typed errors; only a corrupt length
/// prefix (framing lost) abandons the stream — the daemon itself survives
/// both.
class Server {
public:
    /// Fails when options name an unknown scheme or shards == 0.
    [[nodiscard]] static common::Expected<std::unique_ptr<Server>> create(
        const detect::Registry& registry, ServerOptions options);

    /// Serves one client stream to completion (END, EOF, error, idle
    /// timeout, or request_stop). Failure only for pre-stream errors
    /// (snapshot restore failure, HELLO protocol violation); transport
    /// failures mid-stream land in ServeOutcome::transport_error instead so
    /// the partial results survive.
    [[nodiscard]] common::Expected<ServeOutcome> serve(Connection& conn);

    /// Asynchronously asks the current serve() to wind down: the intake
    /// loop exits before its next read (never inside a read chunk, whose
    /// frames are all admitted first), shards drain what was admitted and
    /// freeze (no grace window), so a snapshot captures exactly the fed
    /// state. Safe to call from a signal handler (one relaxed store).
    void request_stop() { stop_.store(true, std::memory_order_relaxed); }

    /// True once request_stop() has been called (the daemon's accept loop
    /// polls this between clients).
    [[nodiscard]] bool stop_requested() const {
        return stop_.load(std::memory_order_relaxed);
    }

    /// Writes `arpsec.serve-snapshot.v1` for the last completed serve().
    /// Call after serve() returns (the workers are joined by then).
    [[nodiscard]] common::Expected<bool> write_snapshot(const std::string& path) const;

    /// Frames the current (or last) serve() has handed to the shards —
    /// processed or dropped. Any thread; it advances once per read chunk,
    /// so a caller can wait for a stream's frames to be admitted before
    /// request_stop().
    [[nodiscard]] std::uint64_t admitted_frames() const {
        return admitted_.load(std::memory_order_relaxed);
    }

    /// Intake-side counters/gauges (`serve.intake.*`, `serve.shard.*`),
    /// complete after serve() returns.
    [[nodiscard]] telemetry::MetricsRegistry& metrics() { return metrics_; }
    [[nodiscard]] const ServerOptions& options() const { return options_; }

    /// Prefer create(): it validates the options first. Public only so
    /// make_unique can reach it.
    Server(const detect::Registry& registry, ServerOptions options);

private:
    struct RestoredState {
        std::uint64_t seed = 1;
        std::vector<detect::HostRecord> directory;
        telemetry::Json shard_states;  // array, one entry per shard
    };

    common::Expected<bool> load_restore_file(RestoredState& out) const;
    common::Expected<bool> build_shards(std::uint64_t seed,
                                        std::vector<detect::HostRecord> directory,
                                        const RestoredState* restored);
    void write_scorecard_line(std::uint64_t frames_total);
    telemetry::Json build_summary(const ServeOutcome& outcome) const;

    const detect::Registry& registry_;
    ServerOptions options_;
    telemetry::MetricsRegistry metrics_;
    common::Stopwatch watch_;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> admitted_{0};
    // The drain thread sleeps here; every shard's alert ring wakes it.
    common::Parker alert_parker_;

    // State of the last serve() (valid after it returns; workers joined).
    std::vector<std::unique_ptr<Shard>> shards_;
    std::uint64_t seed_ = 1;
    std::vector<detect::HostRecord> directory_;
    bool served_ = false;
};

}  // namespace arpsec::serve
