// The serve side of the benchmark.
//
// `served` makes arpsec-served's calls for one Unix-socket client (listen,
// Server::create, accept, serve), reports Server::metrics() afterwards,
// and then repeats its set-up to sample setup_s.
// `client` streams the trace on one connection with a writer thread and a
// reader thread, flat out or open-loop at a fixed rate, so kAlert records
// are read while frames are still being written. arpsec-loadgen writes the
// whole trace before it reads anything; against a daemon with live alerts
// that deadlocks once both socket buffers fill (see perfbench/README.md).
// `stages` runs the intake's stages single-threaded over the same records
// (decode, prime, route, feed) and times the bare transport.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.hpp"
#include "detect/registry.hpp"
#include "replay/session.hpp"
#include "replay/source.hpp"
#include "serve/alert_stream.hpp"
#include "serve/server.hpp"
#include "serve/shard.hpp"
#include "serve/transport.hpp"
#include "subcommands.hpp"
#include "wire/frame.hpp"
#include "wire/stream_codec.hpp"

namespace perfbench {

namespace {

using arpsec::telemetry::Json;
using Span = Tracer::Span;

/// The trace encoded as `arpsec.stream.v1`, exactly as a client sends it:
/// HELLO + DIRECTORY, one FRAME record per trace frame and lap, END.
struct EncodedTrace {
    arpsec::wire::Bytes prelude;
    arpsec::wire::Bytes frames;
    std::vector<std::size_t> offsets;  // frame i = frames[offsets[i], offsets[i+1])
    arpsec::wire::Bytes end;
    std::vector<std::int64_t> prefix_max_ns;  // running max of capture times

    [[nodiscard]] std::size_t count() const { return offsets.size() - 1; }
    [[nodiscard]] std::span<const std::uint8_t> slice(std::size_t begin, std::size_t stop) const {
        return {frames.data() + offsets[begin], offsets[stop] - offsets[begin]};
    }
};

bool load_encoded(const std::string& pcap_path, std::uint64_t laps, EncodedTrace& enc) {
    arpsec::replay::PcapFileSource source{pcap_path, pcap_path + ".labels.json"};
    auto trace = source.load();
    if (!trace.ok()) {
        std::fprintf(stderr, "perfbench: %s\n", trace.error().c_str());
        return false;
    }
    const arpsec::replay::LabeledTrace& t = trace.value();
    arpsec::wire::StreamHello hello;
    hello.seed = t.seed == 0 ? 1 : t.seed;
    arpsec::wire::encode_hello(enc.prelude, hello);
    std::vector<arpsec::wire::StreamHostEntry> entries;
    for (const auto& host : t.directory) entries.push_back({host.name, host.ip, host.mac});
    if (!entries.empty()) arpsec::wire::encode_directory(enc.prelude, entries);
    enc.offsets.reserve(t.frames.size() * laps + 1);
    enc.prefix_max_ns.reserve(t.frames.size() * laps);
    const std::int64_t shift = lap_shift_ns(t);
    std::int64_t running = INT64_MIN;
    for (std::uint64_t lap = 0; lap < laps; ++lap) {
        for (const arpsec::replay::TraceFrame& f : t.frames) {
            const std::int64_t at = f.at.nanos() + static_cast<std::int64_t>(lap) * shift;
            enc.offsets.push_back(enc.frames.size());
            arpsec::wire::encode_frame(enc.frames, static_cast<std::uint64_t>(at),
                                       std::span<const std::uint8_t>{f.bytes});
            running = std::max(running, at);
            enc.prefix_max_ns.push_back(running);
        }
    }
    enc.offsets.push_back(enc.frames.size());
    arpsec::wire::encode_end(enc.end);
    return true;
}

/// The serve gate's reference for `laps`: the offline alert count and the
/// multiset digest of their lines (shards interleave, so arrival order is
/// not defined).
struct Reference {
    std::uint64_t alerts = 0;
    std::string digest;

    [[nodiscard]] bool matches(const std::vector<std::string>& lines) const {
        return lines.size() == alerts && multiset_digest(lines) == digest;
    }
};

bool read_reference(const std::string& path, std::uint64_t laps, Reference& ref) {
    const auto doc = read_json(path);
    const Json* entry = doc.has_value() ? doc->find(std::to_string(laps)) : nullptr;
    const Json* alerts = entry != nullptr ? entry->find("alerts") : nullptr;
    const Json* digest = entry != nullptr ? entry->find("digest") : nullptr;
    if (alerts == nullptr || digest == nullptr) {
        std::fprintf(stderr, "perfbench: no %llu-lap reference in %s\n",
                     static_cast<unsigned long long>(laps), path.c_str());
        return false;
    }
    ref.alerts = static_cast<std::uint64_t>(alerts->as_int());
    ref.digest = digest->as_string();
    return true;
}

/// Linear interpolation inside the le-histogram bucket holding quantile q.
double histogram_quantile(const arpsec::telemetry::Histogram& h, double q) {
    if (h.count() == 0) return 0.0;
    const double target = q * static_cast<double>(h.count());
    double cumulative = 0.0;
    const auto& bounds = h.bounds();
    const auto& counts = h.bucket_counts();
    for (std::size_t b = 0; b < counts.size(); ++b) {
        const double c = static_cast<double>(counts[b]);
        if (c > 0.0 && cumulative + c >= target) {
            if (b == bounds.size()) return h.max();  // overflow bucket
            const double lo = b == 0 ? 0.0 : bounds[b - 1];
            const double hi = std::min(bounds[b], h.max());
            return lo + (std::max(hi, lo) - lo) * (target - cumulative) / c;
        }
        cumulative += c;
    }
    return h.max();
}

arpsec::serve::ServerOptions serve_options() {
    // arpsec-served's defaults, with the workload's scheme and shard count.
    arpsec::serve::ServerOptions options;
    options.schemes = {kServeScheme};
    options.shards = kServeShards;
    options.grace = arpsec::common::Duration::millis(kServeGraceMs);
    options.read_timeout_ms = 100;
    return options;
}

/// setup_s samples (perfbench/README.md, "setup_s on serve"): the
/// daemon's set-up — Registry, Server::create, and accept of a client that
/// is already waiting — repeated kSetupRepeats times in a process that has
/// served its stream. listen_unix and the client's connect are not timed:
/// binding a socket file creates an inode, which here cost 4 to 80 us
/// depending on what earlier runs had written to the filesystem. Wall
/// seconds per repetition; empty on any error.
std::vector<double> repeat_setup(const std::string& path) {
    constexpr std::size_t kSetupRepeats = 32;
    std::vector<double> samples;
    for (std::size_t i = 0; i < kSetupRepeats; ++i) {
        const double t0 = mono_now();
        const arpsec::detect::Registry registry;
        auto server = arpsec::serve::Server::create(registry, serve_options());
        const double t1 = mono_now();
        if (!server.ok()) return {};
        auto listener = arpsec::serve::listen_unix(path);
        if (!listener.ok()) return {};
        auto client = arpsec::serve::connect_unix(path);
        if (!client.ok()) return {};
        const double t2 = mono_now();
        auto conn = listener.value()->accept(1000);
        const double t3 = mono_now();
        if (!conn.ok()) return {};
        samples.push_back((t1 - t0) + (t3 - t2));
    }
    return samples;
}

}  // namespace

int cmd_served(const Args& args) {
    const double t_main = mono_now();
    const std::string path = args.str("unix");
    if (path.empty() || !args.has("result")) {
        std::fprintf(stderr, "usage: served --unix PATH --result F [--trace-out F]\n");
        return 2;
    }
    std::signal(SIGPIPE, SIG_IGN);  // as arpsec-served: a vanished client is not fatal

    const arpsec::detect::Registry registry;
    std::unique_ptr<arpsec::serve::Listener> listener;
    {
        Span s{"serve.listen"};
        auto l = arpsec::serve::listen_unix(path);
        if (!l.ok()) {
            std::fprintf(stderr, "served: %s\n", l.error().c_str());
            return 2;
        }
        listener = std::move(l).value();
    }
    std::unique_ptr<arpsec::serve::Server> server;
    {
        Span s{"serve.create"};
        auto created = arpsec::serve::Server::create(registry, serve_options());
        if (!created.ok()) {
            std::fprintf(stderr, "served: %s\n", created.error().c_str());
            return 2;
        }
        server = std::move(created).value();
    }
    std::unique_ptr<arpsec::serve::Connection> conn;
    {
        Span s{"serve.accept"};
        while (conn == nullptr) {
            auto c = listener->accept(200);
            if (c.ok()) {
                conn = std::move(c).value();
            } else if (c.error() != "accept: timed out" ||
                       mono_now() - t_main > kAcceptTimeoutS) {
                std::fprintf(stderr, "served: %s\n", c.error().c_str());
                return 2;
            }
        }
    }
    const double t_accept = mono_now();
    arpsec::common::Expected<arpsec::serve::ServeOutcome> outcome =
        arpsec::common::Expected<arpsec::serve::ServeOutcome>::failure("not served");
    {
        Span s{"serve.serve"};
        outcome = server->serve(*conn);
    }
    const double t_served = mono_now();
    const ProcessUsage usage = process_usage();
    conn.reset();
    listener->close();
    if (!outcome.ok()) {
        std::fprintf(stderr, "served: %s\n", outcome.error().c_str());
        return 1;
    }
    const std::vector<double> setups = repeat_setup(path);
    if (setups.empty()) return 1;

    const arpsec::telemetry::MetricsRegistry& m = server->metrics();
    Json metrics = Json::object();
    const auto counter = [&](const std::string& name) -> std::uint64_t {
        const auto* c = m.find_counter(name);
        return c == nullptr ? 0 : c->value();
    };
    metrics["backpressure_waits"] = counter("serve.intake.backpressure_waits");
    metrics["dropped_frames"] = counter("serve.intake.dropped_frames");
    std::int64_t depth_max = 0;
    Json shard_frames = Json::array();
    for (std::size_t i = 0; i < kServeShards; ++i) {
        const std::string prefix = "serve.shard." + std::to_string(i);
        if (const auto* g = m.find_gauge(prefix + ".queue_depth"); g != nullptr) {
            depth_max = std::max(depth_max, g->high_water());
        }
        shard_frames.push_back(counter(prefix + ".frames"));
    }
    metrics["queue_depth_max"] = depth_max;
    metrics["shard_frames"] = std::move(shard_frames);
    if (const auto* h = m.find_histogram("serve.shard.drain_latency_seconds"); h != nullptr) {
        metrics["drain_latency_p50_us"] = histogram_quantile(*h, 0.50) * 1e6;
        metrics["drain_latency_p99_us"] = histogram_quantile(*h, 0.99) * 1e6;
        metrics["drain_latency_samples"] = h->count();
    }

    const arpsec::serve::ServeOutcome& res = outcome.value();
    Json result = Json::object();
    result["main_start_mono"] = t_main;
    result["accept_mono"] = t_accept;
    Json setup_samples = Json::array();
    for (const double s : setups) setup_samples.push_back(s);
    result["setup_samples"] = std::move(setup_samples);
    result["served_mono"] = t_served;
    result["cpu_s"] = usage.cpu_s;
    result["peak_rss_mb"] = usage.peak_rss_mb;
    result["alerts"] = static_cast<std::uint64_t>(res.alerts.size());
    result["transport_error"] = res.transport_error;
    result["summary"] = res.summary;
    result["metrics"] = std::move(metrics);
    return write_json(args.str("result"), result) ? 0 : 1;
}

int cmd_client(const Args& args) {
    const std::string pcap_path = args.str("pcap");
    const std::string path = args.str("unix");
    const std::string result_path = args.str("result");
    const std::string reference_path = args.str("reference");
    const double rate = args.num("rate", 0.0);  // frames/s; 0 = flat out
    const std::uint64_t laps = args.u64("laps", 1);
    if (pcap_path.empty() || path.empty() || result_path.empty() || reference_path.empty() ||
        laps == 0) {
        std::fprintf(stderr,
                     "usage: client --pcap P --unix S --reference F --result F [--rate R]\n"
                     "              [--laps L] [--latencies-out F] [--trace-out F]\n");
        return 2;
    }

    EncodedTrace enc;
    Reference reference;
    {
        Span s{"bench.client_load"};
        if (!load_encoded(pcap_path, laps, enc)) return 2;
        if (!read_reference(reference_path, laps, reference)) return 2;
    }
    const std::size_t n = enc.count();
    // The harness starts the daemon only now, so the daemon's set-up time
    // does not include the client's trace loading.
    std::puts("ready");
    std::fflush(stdout);

    // Poll until the daemon listens.
    std::unique_ptr<arpsec::serve::Connection> conn;
    const double t_connect0 = mono_now();
    while (conn == nullptr) {
        auto c = arpsec::serve::connect_unix(path);
        if (c.ok()) {
            conn = std::move(c).value();
        } else if (mono_now() - t_connect0 > kNoProgressDeadlineS) {
            std::fprintf(stderr, "client: %s\n", c.error().c_str());
            return 3;
        } else {
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    // Progress clock for the no-progress deadline: either direction moving
    // counts. A run that stalls fails instead of hanging.
    std::atomic<double> last_progress{mono_now()};
    std::atomic<bool> reader_done{false};
    std::atomic<bool> writer_done{false};

    // Writer-owned until joined.
    double t_first_write = 0.0;
    double t_end_written = 0.0;
    double write_blocked_s = 0.0;
    bool write_failed = false;
    std::vector<double> due(n, 0.0);      // when frame i was due to be sent
    std::vector<double> written(n, 0.0);  // when its write started

    std::thread writer([&] {
        const auto send = [&](std::span<const std::uint8_t> bytes) {
            Span s{"serve.client_write"};
            const double t = mono_now();
            const bool ok = conn->write_all(bytes);
            const double t_done = mono_now();
            write_blocked_s += t_done - t;
            last_progress.store(t_done, std::memory_order_relaxed);
            return ok;
        };
        if (!send(enc.prelude)) {
            write_failed = true;
            writer_done.store(true);
            return;
        }
        t_first_write = mono_now();
        std::size_t i = 0;
        while (i < n) {
            std::size_t stop = std::min(n, i + kWriteBatchFrames);
            if (rate > 0.0) {
                // Open loop: send whatever is due by now, sleep otherwise.
                const double now = mono_now();
                const auto due_by_now =
                    static_cast<std::size_t>(std::floor((now - t_first_write) * rate)) + 1;
                if (due_by_now <= i) {
                    const double next = t_first_write + static_cast<double>(i) / rate;
                    std::this_thread::sleep_for(std::chrono::duration<double>(next - now));
                    continue;
                }
                stop = std::min(stop, due_by_now);
                for (std::size_t k = i; k < stop; ++k) {
                    due[k] = t_first_write + static_cast<double>(k) / rate;
                }
            }
            const double t = mono_now();
            for (std::size_t k = i; k < stop; ++k) {
                written[k] = t;
                if (rate <= 0.0) due[k] = t;  // flat out: due when written
            }
            if (!send(enc.slice(i, stop))) {
                write_failed = true;
                break;
            }
            i = stop;
        }
        if (!write_failed) {
            t_end_written = mono_now();
            write_failed = !send(enc.end);
        }
        writer_done.store(true);
    });

    // Reader-owned until joined.
    std::vector<std::pair<double, std::string>> alerts;
    std::string summary_text;
    double t_summary = 0.0;
    std::string read_error;
    std::thread reader([&] {
        arpsec::wire::StreamDecoder decoder;
        std::vector<std::uint8_t> buf(1 << 16);
        while (summary_text.empty()) {
            const auto io = conn->read_some(std::span<std::uint8_t>{buf}, 100);
            if (io.kind == arpsec::serve::IoResult::Kind::kTimeout) continue;
            if (io.kind != arpsec::serve::IoResult::Kind::kData) {
                read_error = io.kind == arpsec::serve::IoResult::Kind::kEof
                                 ? "daemon closed before the summary"
                                 : io.error;
                break;
            }
            const double t = mono_now();
            last_progress.store(t, std::memory_order_relaxed);
            decoder.feed(std::span<const std::uint8_t>{buf.data(), io.bytes});
            arpsec::wire::StreamRecord rec;
            for (;;) {
                const auto st = decoder.poll(rec);
                if (st == arpsec::wire::StreamDecoder::Status::kNeedMore) break;
                if (st != arpsec::wire::StreamDecoder::Status::kRecord) {
                    read_error = "bad record from daemon: " + decoder.last_error();
                    break;
                }
                if (rec.type == arpsec::wire::StreamRecordType::kAlert) {
                    alerts.emplace_back(t, std::move(rec.text));
                } else if (rec.type == arpsec::wire::StreamRecordType::kSummary) {
                    summary_text = std::move(rec.text);
                    t_summary = t;
                }
            }
            if (!read_error.empty()) break;
        }
        reader_done.store(true);
    });

    while (!(reader_done.load() && writer_done.load())) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        if (mono_now() - last_progress.load(std::memory_order_relaxed) > kNoProgressDeadlineS) {
            // A blocked write_all cannot be interrupted from here without
            // racing the connection; ending the process is the clean way
            // out, and the harness counts the run as failed.
            Json fail = Json::object();
            fail["ok"] = false;
            fail["error"] = "no progress for " + std::to_string(kNoProgressDeadlineS) + " s";
            (void)write_json(result_path, fail);
            std::fprintf(stderr, "client: deadline: no progress for %.1f s\n",
                         kNoProgressDeadlineS);
            std::fflush(stderr);
            std::_Exit(3);
        }
    }
    writer.join();
    reader.join();
    conn.reset();

    std::vector<std::string> errors;
    if (write_failed) errors.push_back("daemon closed while frames were being written");
    if (!read_error.empty()) errors.push_back(read_error);
    const auto summary = Json::parse(summary_text);
    std::uint64_t processed = 0;
    if (!summary.has_value() || !summary->is_object()) {
        errors.push_back("no summary received");
    } else {
        const Json* frames = summary->find("frames");
        const Json* dropped = summary->find("dropped_frames");
        const Json* end_record = summary->find("end_record");
        processed = frames != nullptr ? static_cast<std::uint64_t>(frames->as_int()) : 0;
        if (processed != n) {
            errors.push_back("frames processed " + std::to_string(processed) + " != sent " +
                             std::to_string(n));
        }
        if (dropped == nullptr || dropped->as_int() != 0) errors.push_back("frames dropped");
        if (end_record == nullptr || !end_record->as_bool()) {
            errors.push_back("stream did not end on END");
        }
    }

    // Alert latency: from when the frame that moved virtual time to the
    // alert's `at` was due, until the kAlert record was read. Alerts past
    // the last frame (grace window) were released by END.
    std::vector<double> latency_ms;
    std::vector<std::string> lines;
    latency_ms.reserve(alerts.size());
    lines.reserve(alerts.size());
    for (auto& [t, line] : alerts) {
        const auto j = Json::parse(line);
        const Json* at = j.has_value() ? j->find("at_ns") : nullptr;
        if (at == nullptr) {
            errors.push_back("kAlert record without at_ns");
            break;
        }
        const auto it = std::lower_bound(enc.prefix_max_ns.begin(), enc.prefix_max_ns.end(),
                                         at->as_int());
        const double due_at =
            it == enc.prefix_max_ns.end()
                ? t_end_written
                : due[static_cast<std::size_t>(it - enc.prefix_max_ns.begin())];
        latency_ms.push_back((t - due_at) * 1e3);
        lines.push_back(std::move(line));
    }
    if (args.has("latencies-out")) {
        // Raw per-alert samples (float64, native byte order) so the harness
        // can pool every alert of every run before taking percentiles.
        std::ofstream raw{args.str("latencies-out"), std::ios::binary | std::ios::trunc};
        raw.write(reinterpret_cast<const char*>(latency_ms.data()),
                  static_cast<std::streamsize>(latency_ms.size() * sizeof(double)));
        if (!raw) errors.push_back("cannot write " + args.str("latencies-out"));
    }
    if (!reference.matches(lines)) {
        errors.push_back("alerts differ from the offline reference (" +
                         std::to_string(lines.size()) + " received, " +
                         std::to_string(reference.alerts) + " expected)");
    }
    std::vector<double> lag_ms(n);
    for (std::size_t k = 0; k < n; ++k) lag_ms[k] = (written[k] - due[k]) * 1e3;

    Json result = Json::object();
    result["ok"] = errors.empty();
    Json errs = Json::array();
    for (const std::string& e : errors) errs.push_back(e);
    result["errors"] = std::move(errs);
    result["frames_sent"] = static_cast<std::uint64_t>(n);
    result["frames_processed"] = processed;
    result["first_write_mono"] = t_first_write;
    result["summary_mono"] = t_summary;
    result["alerts"] = static_cast<std::uint64_t>(lines.size());
    result["alert_latency_p50_ms"] = percentile(latency_ms, 0.50);
    result["alert_latency_p90_ms"] = percentile(latency_ms, 0.90);
    result["alert_latency_p99_ms"] = percentile(latency_ms, 0.99);
    result["alert_latency_samples"] = static_cast<std::uint64_t>(latency_ms.size());
    result["gen_lag_p99_ms"] = percentile(lag_ms, 0.99);
    result["write_blocked_s"] = write_blocked_s;
    return write_json(result_path, result) && errors.empty() ? 0 : 1;
}

int cmd_stages(const Args& args) {
    const std::string pcap_path = args.str("pcap");
    const std::string sock = args.str("unix");
    const std::string reference_path = args.str("reference");
    const std::uint64_t laps = args.u64("laps", 1);
    if (pcap_path.empty() || sock.empty() || reference_path.empty() || !args.has("result") ||
        laps == 0) {
        std::fprintf(stderr,
                     "usage: stages --pcap P --unix S --reference F --result F [--laps L]\n");
        return 2;
    }
    EncodedTrace enc;
    Reference reference;
    if (!load_encoded(pcap_path, laps, enc) || !read_reference(reference_path, laps, reference)) {
        return 2;
    }
    const std::size_t n = enc.count();
    arpsec::wire::Bytes stream = enc.prelude;
    stream.insert(stream.end(), enc.frames.begin(), enc.frames.end());
    stream.insert(stream.end(), enc.end.begin(), enc.end.end());

    // The intake thread's per-frame work, one stage at a time, over the
    // bytes the daemon receives.
    set_alloc_counting(true);
    const std::uint64_t a0 = alloc_count();
    std::vector<arpsec::wire::StreamFrame> frames;
    arpsec::wire::StreamHello hello;
    std::vector<arpsec::detect::HostRecord> directory;
    {
        Span s{"wire.stream_decode"};
        arpsec::wire::StreamDecoder decoder;
        frames.reserve(n);
        arpsec::wire::StreamRecord rec;
        constexpr std::size_t kChunk = 1 << 16;  // the daemon's read buffer
        for (std::size_t off = 0; off < stream.size(); off += kChunk) {
            decoder.feed(std::span<const std::uint8_t>{stream.data() + off,
                                                       std::min(kChunk, stream.size() - off)});
            while (decoder.poll(rec) == arpsec::wire::StreamDecoder::Status::kRecord) {
                if (rec.type == arpsec::wire::StreamRecordType::kFrame) {
                    frames.push_back(std::move(rec.frame));
                } else if (rec.type == arpsec::wire::StreamRecordType::kHello) {
                    hello = rec.hello;
                } else if (rec.type == arpsec::wire::StreamRecordType::kDirectory) {
                    for (const auto& e : rec.directory) {
                        directory.push_back({e.name, e.ip, e.mac});
                    }
                }
            }
        }
        s.arg("frames", static_cast<double>(frames.size()));
    }
    std::vector<arpsec::wire::FrameView> views;
    {
        Span s{"serve.prime"};
        views.reserve(frames.size());
        for (arpsec::wire::StreamFrame& f : frames) {
            arpsec::wire::FrameView view{arpsec::wire::FrameBuffer::capture(std::move(f.bytes))};
            view.prime();
            views.push_back(std::move(view));
        }
    }
    const std::uint64_t intake_allocs = alloc_count() - a0;
    set_alloc_counting(false);

    std::vector<std::size_t> target(views.size());
    {
        Span s{"serve.route"};
        for (std::size_t i = 0; i < views.size(); ++i) {
            target[i] = arpsec::serve::shard_of(views[i], kServeShards);
        }
    }
    const arpsec::detect::Registry registry;
    arpsec::replay::SessionOptions session_options;
    session_options.seed = hello.seed == 0 ? 1 : hello.seed;
    session_options.directory = directory;
    std::vector<std::unique_ptr<arpsec::replay::SchemeSession>> sessions;
    for (std::size_t i = 0; i < kServeShards; ++i) {
        sessions.push_back(std::make_unique<arpsec::replay::SchemeSession>(
            registry.make(kServeScheme), session_options));
    }
    {
        Span s{"serve.feed"};
        for (std::size_t i = 0; i < views.size(); ++i) {
            sessions[target[i]]->feed(
                arpsec::common::SimTime{static_cast<std::int64_t>(frames[i].at_nanos)},
                views[i]);
        }
        for (auto& session : sessions) {
            session->finish(arpsec::common::Duration::millis(kServeGraceMs));
        }
    }
    std::vector<std::string> lines;
    for (const auto& session : sessions) {
        for (const auto& a : session->alerts().alerts()) {
            lines.push_back(arpsec::serve::alert_line(a));
        }
    }
    const bool alerts_match = reference.matches(lines);

    // Transport ceiling: the same bytes, same write size as the flat
    // client, into a reader that discards them.
    double transport_s = 0.0;
    std::string transport_error;
    {
        Span s{"serve.transport"};
        auto listener = arpsec::serve::listen_unix(sock);
        auto client = arpsec::serve::connect_unix(sock);
        auto server_side =
            listener.ok()
                ? listener.value()->accept(5000)
                : arpsec::common::Expected<std::unique_ptr<arpsec::serve::Connection>>::failure(
                      "no listener");
        if (!listener.ok() || !client.ok() || !server_side.ok()) {
            transport_error = "transport setup failed";
        } else {
            arpsec::serve::Connection& rx = *server_side.value();
            std::uint64_t received = 0;
            double t_drained = 0.0;
            std::thread drain([&] {
                std::vector<std::uint8_t> buf(1 << 16);
                for (;;) {
                    const auto io = rx.read_some(std::span<std::uint8_t>{buf}, 5000);
                    if (io.kind != arpsec::serve::IoResult::Kind::kData) break;
                    received += io.bytes;
                }
                t_drained = mono_now();
            });
            const double t0 = mono_now();
            for (std::size_t i = 0; i < n; i += kWriteBatchFrames) {
                if (!client.value()->write_all(enc.slice(i, std::min(n, i + kWriteBatchFrames)))) {
                    break;
                }
            }
            client.value()->close();
            drain.join();
            transport_s = t_drained - t0;
            if (received != enc.frames.size()) transport_error = "transport lost bytes";
        }
        if (listener.ok()) listener.value()->close();
    }

    Json result = Json::object();
    result["ok"] = alerts_match && transport_error.empty() && frames.size() == n;
    result["alerts_match"] = alerts_match;
    result["transport_error"] = transport_error;
    result["frames"] = static_cast<std::uint64_t>(n);
    result["intake_allocs"] = intake_allocs;
    result["transport_frames_per_s"] = transport_s > 0.0 ? static_cast<double>(n) / transport_s
                                                         : 0.0;
    const bool ok = result["ok"].as_bool();
    return write_json(args.str("result"), result) && ok ? 0 : 1;
}

}  // namespace perfbench
