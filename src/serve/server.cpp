#include "serve/server.hpp"

#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>

#include "serve/alert_stream.hpp"
#include "wire/stream_codec.hpp"

namespace arpsec::serve {

namespace {

/// sim::Network rejects seed 0; coerce it the same way arpsec-replay does.
std::uint64_t coerce_seed(std::uint64_t seed) { return seed == 0 ? 1 : seed; }

}  // namespace

common::Expected<std::unique_ptr<Server>> Server::create(const detect::Registry& registry,
                                                         ServerOptions options) {
    using Result = common::Expected<std::unique_ptr<Server>>;
    if (options.shards == 0) return Result::failure("serve: shards must be >= 1");
    if (options.schemes.empty()) return Result::failure("serve: no schemes configured");
    for (const std::string& name : options.schemes) {
        if (!registry.contains(name)) {
            return Result::failure("serve: unknown scheme '" + name + "'");
        }
    }
    return Result{std::make_unique<Server>(registry, std::move(options))};
}

Server::Server(const detect::Registry& registry, ServerOptions options)
    : registry_(registry), options_(std::move(options)) {}

common::Expected<bool> Server::build_shards(std::uint64_t seed,
                                            std::vector<detect::HostRecord> directory,
                                            const RestoredState* restored) {
    using Result = common::Expected<bool>;
    seed_ = coerce_seed(seed);
    directory_ = std::move(directory);

    replay::SessionOptions session_options;
    session_options.seed = seed_;
    session_options.directory = directory_;

    Shard::Options shard_options;
    shard_options.ring_capacity = options_.ring_capacity;
    shard_options.alert_ring_capacity = options_.alert_ring_capacity;
    shard_options.drop_when_full = options_.drop_when_full;
    shard_options.alert_parker = &alert_parker_;

    shards_.clear();
    shards_.reserve(options_.shards);
    for (std::size_t i = 0; i < options_.shards; ++i) {
        shards_.push_back(std::make_unique<Shard>(i, registry_, options_.schemes,
                                                  session_options, shard_options));
    }

    if (restored != nullptr && restored->shard_states.is_array()) {
        for (const telemetry::Json& state : restored->shard_states.as_array()) {
            const telemetry::Json* idx = state.find("shard");
            if (idx == nullptr || !idx->is_int()) continue;
            const auto shard_index = static_cast<std::size_t>(idx->as_int());
            if (shard_index >= shards_.size()) {
                return Result::failure("snapshot: shard index out of range");
            }
            Shard& shard = *shards_[shard_index];
            const telemetry::Json* sessions = state.find("sessions");
            if (sessions == nullptr || !sessions->is_array()) continue;
            for (const telemetry::Json& sess : sessions->as_array()) {
                const telemetry::Json* scheme_name = sess.find("scheme");
                if (scheme_name == nullptr || !scheme_name->is_string()) continue;
                for (std::size_t s = 0; s < shard.session_count(); ++s) {
                    if (shard.scheme_names()[s] != scheme_name->as_string()) continue;
                    replay::SchemeSession& session = shard.session(s);
                    if (const telemetry::Json* st = sess.find("state"); st != nullptr) {
                        session.scheme().restore_state(*st);
                    }
                    if (const telemetry::Json* now = sess.find("now_ns");
                        now != nullptr && now->is_int()) {
                        session.advance_to(common::SimTime{now->as_int()});
                    }
                    break;
                }
            }
        }
    }
    return Result{true};
}

common::Expected<bool> Server::load_restore_file(RestoredState& out) const {
    using Result = common::Expected<bool>;
    std::ifstream in{options_.restore_path};
    if (!in) return Result::failure("snapshot: cannot open " + options_.restore_path);
    std::ostringstream text;
    text << in.rdbuf();
    const auto parsed = telemetry::Json::parse(text.str());
    if (!parsed.has_value() || !parsed->is_object()) {
        return Result::failure("snapshot: " + options_.restore_path + " is not a JSON object");
    }
    const telemetry::Json& j = *parsed;

    const telemetry::Json* schema = j.find("schema");
    if (schema == nullptr || !schema->is_string() || schema->as_string() != kSnapshotSchema) {
        return Result::failure(std::string{"snapshot: schema is not "} + kSnapshotSchema);
    }
    if (const telemetry::Json* shards = j.find("shards");
        shards == nullptr || !shards->is_int() ||
        static_cast<std::size_t>(shards->as_int()) != options_.shards) {
        return Result::failure("snapshot: shard count does not match server configuration");
    }
    const telemetry::Json* schemes = j.find("schemes");
    if (schemes == nullptr || !schemes->is_array() ||
        schemes->size() != options_.schemes.size()) {
        return Result::failure("snapshot: scheme list does not match server configuration");
    }
    for (std::size_t i = 0; i < options_.schemes.size(); ++i) {
        if (!schemes->at(i).is_string() || schemes->at(i).as_string() != options_.schemes[i]) {
            return Result::failure("snapshot: scheme list does not match server configuration");
        }
    }
    if (const telemetry::Json* seed = j.find("seed"); seed != nullptr && seed->is_int()) {
        out.seed = coerce_seed(static_cast<std::uint64_t>(seed->as_int()));
    }
    if (const telemetry::Json* dir = j.find("directory"); dir != nullptr && dir->is_array()) {
        for (const telemetry::Json& row : dir->as_array()) {
            const telemetry::Json* name = row.find("name");
            const telemetry::Json* ip = row.find("ip");
            const telemetry::Json* mac = row.find("mac");
            if (ip == nullptr || mac == nullptr || !ip->is_string() || !mac->is_string()) {
                return Result::failure("snapshot: malformed directory entry");
            }
            const auto ip_v = wire::Ipv4Address::parse(ip->as_string());
            const auto mac_v = wire::MacAddress::parse(mac->as_string());
            if (!ip_v.ok() || !mac_v.ok()) {
                return Result::failure("snapshot: malformed directory entry");
            }
            detect::HostRecord rec;
            rec.name = (name != nullptr && name->is_string()) ? name->as_string() : "";
            rec.ip = ip_v.value();
            rec.mac = mac_v.value();
            out.directory.push_back(std::move(rec));
        }
    }
    if (const telemetry::Json* states = j.find("shard_states"); states != nullptr) {
        out.shard_states = *states;
    }
    return Result{true};
}

common::Expected<ServeOutcome> Server::serve(Connection& conn) {
    using Result = common::Expected<ServeOutcome>;
    stop_.store(false, std::memory_order_relaxed);
    shards_.clear();
    directory_.clear();
    served_ = false;

    RestoredState restored;
    bool have_restore = false;
    if (!options_.restore_path.empty()) {
        if (auto r = load_restore_file(restored); !r.ok()) return Result::failure(r.error());
        have_restore = true;
        if (auto b = build_shards(restored.seed, restored.directory, &restored); !b.ok()) {
            return Result::failure(b.error());
        }
    }

    auto& c_bytes = metrics_.counter("serve.intake.bytes");
    auto& c_records = metrics_.counter("serve.intake.records");
    auto& c_frames = metrics_.counter("serve.intake.frames");
    auto& c_bad = metrics_.counter("serve.intake.bad_records");
    auto& c_protocol = metrics_.counter("serve.intake.protocol_errors");

    ServeOutcome outcome;
    wire::StreamDecoder decoder;

    // conn is written by this thread (summary) and by the drain thread
    // (kAlert records); whole records go out under one lock so they never
    // interleave mid-record.
    std::mutex write_mutex;
    const auto write_bytes = [&](const wire::Bytes& data) {
        std::lock_guard<std::mutex> lk(write_mutex);
        (void)conn.write_all(std::span<const std::uint8_t>{data.data(), data.size()});
    };

    // The drain thread starts together with the shard workers; until the
    // first frame (or a snapshot restore) there is nothing to drain. It
    // sleeps on alert_parker_ until a shard publishes alerts or closes its
    // alert ring (worker exit), and ends once every ring is closed and
    // empty.
    std::thread drain_thread;
    bool workers_started = false;
    std::vector<telemetry::Gauge*> depth_gauges;

    const auto start_workers = [&] {
        if (workers_started) return;
        workers_started = true;
        depth_gauges.reserve(shards_.size());
        for (auto& shard : shards_) {
            shard->start(&watch_);
            depth_gauges.push_back(&metrics_.gauge(
                "serve.shard." + std::to_string(shard->index()) + ".queue_depth"));
        }
        drain_thread = std::thread([&] {
            const auto all_closed = [&] {
                for (const auto& shard : shards_) {
                    if (!shard->alerts_closed()) return false;
                }
                return true;
            };
            const auto any_alerts = [&] {
                for (const auto& shard : shards_) {
                    if (shard->has_alerts()) return true;
                }
                return false;
            };
            std::vector<detect::Alert> batch;
            for (;;) {
                // Read the closed flags before sweeping: a ring closes
                // after its last push, so if all were closed, this sweep
                // observes every alert and an empty sweep means drained.
                const bool done = all_closed();
                batch.clear();
                for (auto& shard : shards_) shard->drain_alerts(batch, 1024);
                if (!batch.empty()) {
                    if (options_.stream_alerts) {
                        wire::Bytes records;
                        for (const detect::Alert& a : batch) {
                            wire::encode_alert(records, alert_line(a));
                        }
                        write_bytes(records);
                    }
                    for (detect::Alert& a : batch) outcome.alerts.push_back(std::move(a));
                    continue;
                }
                if (done) break;
                alert_parker_.wait_until([&] { return any_alerts() || all_closed(); });
            }
        });
    };

    // Builds the shards lazily: the seed arrives in HELLO and the optional
    // directory record must precede the first frame, so construction happens
    // at the first frame (or at END, so empty streams still snapshot).
    bool got_hello = false;
    std::uint64_t hello_seed = 1;
    std::string hello_error;
    const auto ensure_shards = [&]() -> bool {
        if (!shards_.empty()) {
            start_workers();
            return true;
        }
        if (auto b = build_shards(hello_seed, directory_, nullptr); !b.ok()) {
            hello_error = b.error();
            return false;
        }
        start_workers();
        return true;
    };

    std::vector<std::uint8_t> rbuf(1 << 16);
    bool done_reading = false;
    int quiet_ms = 0;
    std::uint64_t frames_since_scorecard = 0;
    admitted_.store(0, std::memory_order_relaxed);

    // The frames of one read chunk: their bytes are appended to `chunk`,
    // and flush_chunk() captures them all from one FrameSlab over it, so a
    // frame costs no allocation of its own and every buffer of the chunk
    // is freed together when the shards drop the last of its views.
    struct PendingFrame {
        common::SimTime at;
        std::size_t offset;
        std::size_t len;
    };
    std::vector<PendingFrame> pending;
    auto chunk = std::make_shared<wire::Bytes>();

    // Admits the pending frames in arrival order (capture, prime, route,
    // submit) and then wakes each shard once.
    const auto flush_chunk = [&] {
        if (pending.empty()) return;
        const std::shared_ptr<const wire::Bytes> storage = std::move(chunk);
        chunk = std::make_shared<wire::Bytes>();
        const wire::FrameSlab slab{pending.size(), storage};
        for (std::size_t i = 0; i < pending.size(); ++i) {
            const PendingFrame& p = pending[i];
            c_frames.inc();
            wire::FrameView view{slab.capture(
                i, std::span<const std::uint8_t>{storage->data() + p.offset, p.len})};
            view.prime();  // memoize on this thread; workers read only
            const std::size_t target = shard_of(view, shards_.size());
            // Sampled observability (1-in-256 frames): the clock read for
            // the latency histogram and the cross-thread queue-depth probe
            // both cost measurable intake throughput at 1M+ frames/s.
            const bool sampled = (c_frames.value() & 255u) == 0u;
            (void)shards_[target]->submit(
                WorkItem{p.at, std::move(view), sampled ? watch_.elapsed_seconds() : -1.0});
            if (sampled) {
                depth_gauges[target]->set(
                    static_cast<std::int64_t>(shards_[target]->queue_depth()));
            }
            if (options_.scorecard_every > 0 &&
                ++frames_since_scorecard >= options_.scorecard_every) {
                frames_since_scorecard = 0;
                write_scorecard_line(c_frames.value());
            }
        }
        for (auto& shard : shards_) shard->publish();
        admitted_.fetch_add(pending.size(), std::memory_order_relaxed);
        pending.clear();
    };

    while (!done_reading) {
        if (stop_.load(std::memory_order_relaxed)) {
            outcome.stopped = true;
            break;
        }
        IoResult io = conn.read_some(std::span<std::uint8_t>{rbuf}, options_.read_timeout_ms);
        switch (io.kind) {
            case IoResult::Kind::kTimeout:
                if (options_.read_timeout_ms > 0) quiet_ms += options_.read_timeout_ms;
                if (options_.idle_timeout_ms >= 0 && quiet_ms >= options_.idle_timeout_ms) {
                    outcome.idled_out = true;
                    done_reading = true;
                }
                continue;
            case IoResult::Kind::kEof:
                done_reading = true;
                continue;
            case IoResult::Kind::kError:
                outcome.transport_error = io.error;
                done_reading = true;
                continue;
            case IoResult::Kind::kData:
                break;
        }
        quiet_ms = 0;
        c_bytes.inc(io.bytes);
        decoder.feed(std::span<const std::uint8_t>{rbuf.data(), io.bytes});
        // Every frame decoded from this chunk fits in what is buffered, so
        // the chunk buffer never reallocates.
        chunk->reserve(decoder.buffered());

        wire::StreamRecord rec;
        while (!done_reading) {
            const wire::StreamDecoder::Status st = decoder.poll(rec);
            if (st == wire::StreamDecoder::Status::kNeedMore) break;
            if (st == wire::StreamDecoder::Status::kBadRecord) {
                c_bad.inc();
                continue;
            }
            if (st == wire::StreamDecoder::Status::kFatal) {
                outcome.transport_error = "stream framing lost: " + decoder.last_error();
                done_reading = true;
                break;
            }
            c_records.inc();
            switch (rec.type) {
                case wire::StreamRecordType::kHello: {
                    if (got_hello) {
                        c_protocol.inc();
                        break;
                    }
                    got_hello = true;
                    if (rec.hello.version != 1) {
                        hello_error = "hello: unsupported stream version " +
                                      std::to_string(rec.hello.version);
                        done_reading = true;
                        break;
                    }
                    if (have_restore && coerce_seed(rec.hello.seed) != seed_) {
                        hello_error = "hello: seed does not match restored snapshot";
                        done_reading = true;
                        break;
                    }
                    hello_seed = coerce_seed(rec.hello.seed);
                    break;
                }
                case wire::StreamRecordType::kDirectory: {
                    // Only meaningful before the shards exist; a restored
                    // server already carries its directory.
                    if (!got_hello || have_restore || !shards_.empty()) {
                        c_protocol.inc();
                        break;
                    }
                    directory_.clear();
                    for (const wire::StreamHostEntry& e : rec.directory) {
                        detect::HostRecord host;
                        host.name = e.name;
                        host.ip = e.ip;
                        host.mac = e.mac;
                        directory_.push_back(std::move(host));
                    }
                    break;
                }
                case wire::StreamRecordType::kFrame: {
                    if (!got_hello) {
                        c_protocol.inc();
                        break;
                    }
                    if (!ensure_shards()) {
                        done_reading = true;
                        break;
                    }
                    const std::vector<std::uint8_t>& bytes = rec.frame.bytes;
                    pending.push_back(
                        {common::SimTime{static_cast<std::int64_t>(rec.frame.at_nanos)},
                         chunk->size(), bytes.size()});
                    chunk->insert(chunk->end(), bytes.begin(), bytes.end());
                    break;
                }
                case wire::StreamRecordType::kEnd: {
                    flush_chunk();
                    if (!got_hello) {
                        // Still the end of the stream: waiting for more
                        // data after the client said END would hang.
                        c_protocol.inc();
                        done_reading = true;
                        break;
                    }
                    if (ensure_shards()) outcome.ended_by_end_record = true;
                    done_reading = true;
                    break;
                }
                case wire::StreamRecordType::kAlert:
                case wire::StreamRecordType::kSummary:
                    // Server-to-client record types arriving inbound.
                    c_protocol.inc();
                    break;
            }
        }
        flush_chunk();
    }

    // Wind down: no grace after a stop (the snapshot must capture exactly
    // the fed state) or an abandoned stream (EOF without END).
    const bool run_grace = outcome.ended_by_end_record && !outcome.stopped;
    for (auto& shard : shards_) shard->finish_input(run_grace, options_.grace);
    for (auto& shard : shards_) shard->join();
    if (drain_thread.joinable()) drain_thread.join();

    // Fold worker-side stats into the registry now that the threads are gone.
    std::uint64_t backpressure = 0;
    std::uint64_t dropped = 0;
    for (auto& shard : shards_) {
        backpressure += shard->backpressure_waits();
        dropped += shard->dropped();
        const std::string prefix = "serve.shard." + std::to_string(shard->index());
        metrics_.counter(prefix + ".frames").inc(shard->frames());
        metrics_.counter(prefix + ".malformed").inc(shard->malformed());
        metrics_.counter(prefix + ".alerts").inc(shard->alerts_emitted());
        metrics_
            .histogram("serve.shard.drain_latency_seconds", shard->drain_latency().bounds())
            .merge(shard->drain_latency());
    }
    metrics_.counter("serve.intake.backpressure_waits").inc(backpressure);
    metrics_.counter("serve.intake.dropped_frames").inc(dropped);
    metrics_.counter("serve.alerts.streamed").inc(outcome.alerts.size());

    if (!hello_error.empty()) return Result::failure(hello_error);

    served_ = true;
    outcome.summary = build_summary(outcome);
    if (options_.send_summary && outcome.transport_error.empty()) {
        wire::Bytes summary_record;
        wire::encode_summary(summary_record, outcome.summary.dump());
        write_bytes(summary_record);
    }
    if (options_.scorecard_every > 0) write_scorecard_line(c_frames.value());
    return Result{std::move(outcome)};
}

telemetry::Json Server::build_summary(const ServeOutcome& outcome) const {
    // Deterministic fields only: identical streams must produce identical
    // summaries, so wall-clock timings and contention counters (which vary
    // run to run) stay out — they live in the metrics registry instead.
    telemetry::Json j = telemetry::Json::object();
    j["schema"] = kSummarySchema;
    j["seed"] = seed_;
    telemetry::Json schemes = telemetry::Json::array();
    for (const std::string& name : options_.schemes) schemes.push_back(name);
    j["schemes"] = std::move(schemes);
    j["shards"] = static_cast<std::uint64_t>(options_.shards);

    std::uint64_t frames = 0;
    std::uint64_t malformed = 0;
    std::uint64_t dropped = 0;
    telemetry::Json per_shard = telemetry::Json::array();
    for (const auto& shard : shards_) {
        frames += shard->frames();
        malformed += shard->malformed();
        dropped += shard->dropped();
        telemetry::Json row = telemetry::Json::object();
        row["shard"] = static_cast<std::uint64_t>(shard->index());
        row["frames"] = shard->frames();
        row["malformed"] = shard->malformed();
        row["alerts"] = shard->alerts_emitted();
        per_shard.push_back(std::move(row));
    }
    j["frames"] = frames;
    j["malformed"] = malformed;
    j["dropped_frames"] = dropped;
    j["alerts"] = static_cast<std::uint64_t>(outcome.alerts.size());
    j["end_record"] = outcome.ended_by_end_record;
    j["stopped"] = outcome.stopped;
    j["per_shard"] = std::move(per_shard);
    return j;
}

void Server::write_scorecard_line(std::uint64_t frames_total) {
    if (options_.scorecard_path.empty()) return;
    std::ofstream out{options_.scorecard_path, std::ios::app};
    if (!out) return;
    telemetry::Json j = telemetry::Json::object();
    j["schema"] = kScorecardSchema;
    j["frames"] = frames_total;
    std::uint64_t alerts = 0;
    telemetry::Json depths = telemetry::Json::array();
    for (const auto& shard : shards_) {
        alerts += shard->alerts_emitted();
        depths.push_back(static_cast<std::uint64_t>(shard->queue_depth()));
    }
    j["alerts"] = alerts;
    j["queue_depths"] = std::move(depths);
    out << j.dump() << '\n';
}

common::Expected<bool> Server::write_snapshot(const std::string& path) const {
    using Result = common::Expected<bool>;
    if (!served_) return Result::failure("snapshot: no completed serve() to capture");

    telemetry::Json j = telemetry::Json::object();
    j["schema"] = kSnapshotSchema;
    j["seed"] = seed_;
    j["shards"] = static_cast<std::uint64_t>(options_.shards);
    telemetry::Json schemes = telemetry::Json::array();
    for (const std::string& name : options_.schemes) schemes.push_back(name);
    j["schemes"] = std::move(schemes);
    telemetry::Json directory = telemetry::Json::array();
    for (const detect::HostRecord& host : directory_) {
        telemetry::Json row = telemetry::Json::object();
        row["name"] = host.name;
        row["ip"] = host.ip.to_string();
        row["mac"] = host.mac.to_string();
        directory.push_back(std::move(row));
    }
    j["directory"] = std::move(directory);

    telemetry::Json shard_states = telemetry::Json::array();
    for (const auto& shard : shards_) {
        telemetry::Json state = telemetry::Json::object();
        state["shard"] = static_cast<std::uint64_t>(shard->index());
        state["frames"] = shard->frames();
        state["malformed"] = shard->malformed();
        telemetry::Json sessions = telemetry::Json::array();
        for (std::size_t s = 0; s < shard->session_count(); ++s) {
            const replay::SchemeSession& session = shard->session(s);
            telemetry::Json row = telemetry::Json::object();
            row["scheme"] = shard->scheme_names()[s];
            row["alerts"] = static_cast<std::uint64_t>(session.alerts().alerts().size());
            row["last_at_ns"] = session.last_at().nanos();
            row["now_ns"] = session.now().nanos();
            row["state"] = session.scheme().snapshot_state();
            sessions.push_back(std::move(row));
        }
        state["sessions"] = std::move(sessions);
        shard_states.push_back(std::move(state));
    }
    j["shard_states"] = std::move(shard_states);

    std::ofstream out{path, std::ios::trunc};
    if (!out) return Result::failure("snapshot: cannot write " + path);
    out << j.dump(2) << '\n';
    if (!out) return Result::failure("snapshot: write failed for " + path);
    return Result{true};
}

}  // namespace arpsec::serve
