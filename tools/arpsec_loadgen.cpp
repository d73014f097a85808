// arpsec-loadgen — streams a labeled pcap trace at an arpsec-served daemon
// over the `arpsec.stream.v1` protocol and reports what came back.
//
//   $ arpsec-loadgen --pcap t.pcap --unix /tmp/arpsec.sock
//   $ arpsec-loadgen --pcap t.pcap --tcp 127.0.0.1:9099 --count 10000
//   $ arpsec-loadgen --pcap t.pcap --unix s.sock --skip 10000 --repeat 5
//
// The HELLO record carries the trace's seed and the DIRECTORY record its
// (IP, MAC) ground-truth bindings, so the daemon's shards deploy their
// schemes exactly as arpsec-replay would offline. --skip/--count slice the
// trace (the snapshot/resume smoke streams the first half, then the rest);
// --no-end closes without an END record, which the server treats as an
// abandoned stream and freezes state without the grace window.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/version.hpp"
#include "exp/executor.hpp"
#include "replay/source.hpp"
#include "serve/transport.hpp"
#include "wire/stream_codec.hpp"

namespace {

using arpsec::common::parse_count;

int usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s --pcap PATH (--unix PATH | --tcp HOST:PORT) [--labels PATH]\n"
        "          [--skip N] [--count N] [--repeat R] [--batch-frames B] [--no-end]\n"
        "  --pcap PATH       trace to stream (classic pcap)\n"
        "  --labels PATH     ground-truth sidecar (default: <pcap>.labels.json)\n"
        "  --unix PATH       connect to a Unix-domain socket daemon\n"
        "  --tcp HOST:PORT   connect to a TCP daemon\n"
        "  --skip N          skip the first N trace frames\n"
        "  --count N         stream at most N frames (default: all remaining)\n"
        "  --repeat R        stream the slice R times, advancing timestamps by\n"
        "                    the trace span each lap (throughput soak)\n"
        "  --batch-frames B  frames encoded per socket write (default 256)\n"
        "  --no-end          close without an END record (abandoned-stream /\n"
        "                    snapshot-freeze path)\n"
        "  --version         print the build's git describe string\n",
        argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    std::string pcap_path;
    std::string labels_path;
    std::string unix_path;
    std::string tcp_host;
    std::uint16_t tcp_port = 0;
    std::size_t skip = 0;
    std::size_t count = SIZE_MAX;
    std::size_t repeat = 1;
    std::size_t batch_frames = 256;
    bool send_end = true;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        const char* v = nullptr;
        if (arg == "--pcap") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            pcap_path = v;
        } else if (arg == "--labels") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            labels_path = v;
        } else if (arg == "--unix") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            unix_path = v;
        } else if (arg == "--tcp") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            const std::string target = v;
            const auto colon = target.rfind(':');
            if (colon == std::string::npos) return usage(argv[0]);
            tcp_host = target.substr(0, colon);
            tcp_port = static_cast<std::uint16_t>(
                parse_count(argv[0], target.c_str() + colon + 1, 1, 65535));
        } else if (arg == "--skip") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            skip = static_cast<std::size_t>(parse_count(argv[0], v, 0));
        } else if (arg == "--count") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            count = static_cast<std::size_t>(parse_count(argv[0], v, 0));
        } else if (arg == "--repeat") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            repeat = static_cast<std::size_t>(parse_count(argv[0], v));
        } else if (arg == "--batch-frames") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            batch_frames = static_cast<std::size_t>(parse_count(argv[0], v));
        } else if (arg == "--no-end") {
            send_end = false;
        } else if (arg == "--version") {
            std::puts(arpsec::common::tool_version_line("loadgen").c_str());
            return 0;
        } else {
            return usage(argv[0]);
        }
    }
    if (pcap_path.empty() || unix_path.empty() == tcp_host.empty()) return usage(argv[0]);
    if (labels_path.empty()) labels_path = pcap_path + ".labels.json";

    arpsec::replay::PcapFileSource source{pcap_path, labels_path};
    auto trace = source.load();
    if (!trace.ok()) {
        std::fprintf(stderr, "arpsec-loadgen: %s\n", trace.error().c_str());
        return 2;
    }
    const auto& frames = trace.value().frames;
    const std::size_t begin = skip < frames.size() ? skip : frames.size();
    const std::size_t end =
        count < frames.size() - begin ? begin + count : frames.size();

    auto conn = unix_path.empty() ? arpsec::serve::connect_tcp(tcp_host, tcp_port)
                                  : arpsec::serve::connect_unix(unix_path);
    if (!conn.ok()) {
        std::fprintf(stderr, "arpsec-loadgen: %s\n", conn.error().c_str());
        return 2;
    }
    arpsec::serve::Connection& c = *conn.value();

    const auto send = [&](const arpsec::wire::Bytes& data) {
        return c.write_all(std::span<const std::uint8_t>{data.data(), data.size()});
    };

    // HELLO + DIRECTORY first, so the daemon deploys shards with the same
    // seed and bindings the offline replay engine would use.
    arpsec::wire::Bytes out;
    arpsec::wire::StreamHello hello;
    hello.seed = trace.value().seed == 0 ? 1 : trace.value().seed;
    arpsec::wire::encode_hello(out, hello);
    if (!trace.value().directory.empty()) {
        std::vector<arpsec::wire::StreamHostEntry> entries;
        entries.reserve(trace.value().directory.size());
        for (const auto& host : trace.value().directory) {
            entries.push_back({host.name, host.ip, host.mac});
        }
        arpsec::wire::encode_directory(out, entries);
    }
    if (!send(out)) {
        std::fprintf(stderr, "arpsec-loadgen: daemon closed during handshake\n");
        return 1;
    }

    // The daemon's side of the stream (kAlert records, then the final
    // kSummary after END) is read on a second thread while frames are
    // written. A client that wrote everything before reading would stall
    // against live alerts: its receive buffer fills, the daemon's alert
    // drain blocks, its shards block on full alert rings, its intake blocks
    // on full shard rings, and the client blocks writing frames.
    constexpr int kPollMs = 100;
    constexpr int kReplyTimeoutMs = 30000;
    std::atomic<bool> writer_done{false};
    std::uint64_t alerts = 0;
    std::string summary;
    bool got_summary = false;
    std::string stream_error;
    const auto read_replies = [&] {
        arpsec::wire::StreamDecoder decoder;
        std::vector<std::uint8_t> rbuf(1 << 16);
        int idle_ms = 0;
        while (!got_summary) {
            // Without END no summary comes: stop once the last frame is out.
            if (!send_end && writer_done.load()) return;
            const auto io = c.read_some(std::span<std::uint8_t>{rbuf}, kPollMs);
            if (io.kind == arpsec::serve::IoResult::Kind::kTimeout) {
                if ((idle_ms += kPollMs) >= kReplyTimeoutMs) return;
                continue;
            }
            if (io.kind != arpsec::serve::IoResult::Kind::kData) return;
            idle_ms = 0;
            // After a decode error keep draining, so the daemon never blocks.
            if (!stream_error.empty()) continue;
            decoder.feed(std::span<const std::uint8_t>{rbuf.data(), io.bytes});
            arpsec::wire::StreamRecord rec;
            for (;;) {
                const auto st = decoder.poll(rec);
                if (st == arpsec::wire::StreamDecoder::Status::kNeedMore) break;
                if (st == arpsec::wire::StreamDecoder::Status::kFatal) {
                    stream_error = decoder.last_error();
                    break;
                }
                if (st != arpsec::wire::StreamDecoder::Status::kRecord) continue;
                if (rec.type == arpsec::wire::StreamRecordType::kAlert) ++alerts;
                if (rec.type == arpsec::wire::StreamRecordType::kSummary) {
                    summary = rec.text;
                    got_summary = true;
                }
            }
        }
    };

    // Laps beyond the first shift timestamps by the trace span so virtual
    // time stays monotonic through a soak.
    const std::int64_t span =
        frames.empty() ? 0 : trace.value().last_at().nanos() + 1'000'000;
    std::uint64_t sent = 0;
    const auto write_frames = [&]() -> int {
        for (std::size_t lap = 0; lap < repeat; ++lap) {
            const std::uint64_t shift =
                static_cast<std::uint64_t>(span) * static_cast<std::uint64_t>(lap);
            std::size_t i = begin;
            while (i < end) {
                out.clear();
                const std::size_t stop = i + batch_frames < end ? i + batch_frames : end;
                for (; i < stop; ++i) {
                    arpsec::wire::encode_frame(
                        out, static_cast<std::uint64_t>(frames[i].at.nanos()) + shift,
                        frames[i].bytes);
                    ++sent;
                }
                if (!send(out)) {
                    std::fprintf(stderr, "arpsec-loadgen: daemon closed after %llu frames\n",
                                 static_cast<unsigned long long>(sent));
                    return 1;
                }
            }
        }
        if (send_end) {
            out.clear();
            arpsec::wire::encode_end(out);
            if (!send(out)) {
                std::fprintf(stderr, "arpsec-loadgen: daemon closed before END\n");
                return 1;
            }
        }
        return 0;
    };

    int status = 0;
    const std::string reader_error = arpsec::exp::run_pair(read_replies, [&] {
        status = write_frames();
        writer_done.store(true);
    });
    if (status != 0) return status;
    if (!reader_error.empty()) {
        std::fprintf(stderr, "arpsec-loadgen: %s\n", reader_error.c_str());
        return 1;
    }
    if (!send_end) {
        c.close();
        std::printf("loadgen: streamed %llu frames, closed without END\n",
                    static_cast<unsigned long long>(sent));
        return 0;
    }
    if (!stream_error.empty()) {
        std::fprintf(stderr, "arpsec-loadgen: %s\n", stream_error.c_str());
        return 1;
    }
    if (got_summary) std::printf("%s\n", summary.c_str());
    std::fprintf(stderr, "loadgen: streamed %llu frames, received %llu alert records\n",
                 static_cast<unsigned long long>(sent),
                 static_cast<unsigned long long>(alerts));
    if (!got_summary) {
        std::fprintf(stderr, "arpsec-loadgen: no summary received\n");
        return 1;
    }
    return 0;
}
