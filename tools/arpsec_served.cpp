// arpsec-served — the online streaming detection daemon. Listens on a Unix
// or TCP socket, speaks `arpsec.stream.v1`, shards incoming frames across
// detector workers, streams `arpsec.alert-stream.v1` records back live, and
// can snapshot its learned state for a later --restore.
//
//   $ arpsec-served --unix /tmp/arpsec.sock --schemes arpwatch --shards 4
//   $ arpsec-served --tcp 0 --alerts alerts.jsonl --snapshot state.json
//   $ arpsec-served --unix s.sock --restore state.json   # resume a stream
//
// One invocation serves `--conns` client streams (default 1) and exits —
// process supervision belongs to the init system, not the daemon. SIGTERM
// and SIGINT request a graceful drain: everything already admitted is fed
// to the schemes, state freezes without the grace window (so a snapshot
// captures exactly what was seen), and the summary still goes out.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/version.hpp"
#include "detect/registry.hpp"
#include "serve/alert_stream.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"

namespace {

using arpsec::common::parse_count;

// Flag bounds. Each shard is a worker thread, and a ring slot is a
// 32-byte WorkItem allocated up front per shard.
constexpr std::uint64_t kMaxShards = 256;
constexpr std::uint64_t kMaxRing = std::uint64_t{1} << 20;
constexpr std::uint64_t kMaxTimeoutMs = std::numeric_limits<int>::max();

int usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s (--unix PATH | --tcp PORT) [--schemes a,b,...] [--shards N]\n"
        "          [--ring N] [--drop] [--grace-ms MS] [--read-timeout-ms MS]\n"
        "          [--idle-timeout-ms MS] [--conns N] [--alerts PATH]\n"
        "          [--summary PATH] [--snapshot PATH] [--restore PATH]\n"
        "          [--scorecard PATH --scorecard-every N] [--no-alert-stream]\n"
        "  --unix PATH           listen on a Unix-domain socket\n"
        "  --tcp PORT            listen on 127.0.0.1:PORT (0 = kernel-assigned;\n"
        "                        the chosen address is printed on stdout)\n"
        "  --schemes LIST        schemes deployed per shard (default arpwatch)\n"
        "  --shards N            detector workers, 1..256 (default 1)\n"
        "  --ring N              per-shard intake ring capacity, 1..1048576\n"
        "                        (default 4096)\n"
        "  --drop                drop frames when a shard ring is full instead\n"
        "                        of applying backpressure\n"
        "  --grace-ms MS         virtual time after a clean END (default 2000)\n"
        "  --read-timeout-ms MS  per-read poll interval, >= 1 (default 100; also how\n"
        "                        often SIGTERM is noticed)\n"
        "  --idle-timeout-ms MS  abandon a stream after this much quiet\n"
        "  --conns N             serve N connections, then exit (default 1)\n"
        "  --alerts PATH         write the canonical alert-stream file on exit\n"
        "  --summary PATH        write the final serve-summary JSON\n"
        "  --snapshot PATH       write arpsec.serve-snapshot.v1 after serving\n"
        "  --restore PATH        restore a snapshot before serving\n"
        "  --scorecard PATH      append scorecard JSONL lines here\n"
        "  --scorecard-every N   ...every N admitted frames\n"
        "  --no-alert-stream     do not send live kAlert records to the client\n"
        "  --version             print the build's git describe string\n",
        argv0);
    return 2;
}

std::vector<std::string> split_csv(const std::string& s) {
    std::vector<std::string> out;
    std::string item;
    for (char c : s) {
        if (c == ',') {
            if (!item.empty()) out.push_back(item);
            item.clear();
        } else {
            item.push_back(c);
        }
    }
    if (!item.empty()) out.push_back(item);
    return out;
}

// Signal handlers may only touch the server through the one relaxed store
// inside request_stop().
arpsec::serve::Server* g_server = nullptr;

void handle_signal(int) {
    if (g_server != nullptr) g_server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
    std::string unix_path;
    int tcp_port = -1;
    std::string alerts_path;
    std::string summary_path;
    std::string snapshot_path;
    std::size_t conns = 1;
    arpsec::serve::ServerOptions options;
    options.grace = arpsec::common::Duration::millis(2000);
    options.read_timeout_ms = 100;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        const char* v = nullptr;
        if (arg == "--unix") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            unix_path = v;
        } else if (arg == "--tcp") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            tcp_port = static_cast<int>(parse_count(argv[0], v, 0, 65535));
        } else if (arg == "--schemes") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            options.schemes = split_csv(v);
        } else if (arg == "--shards") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            options.shards = static_cast<std::size_t>(parse_count(argv[0], v, 1, kMaxShards));
        } else if (arg == "--ring") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            options.ring_capacity =
                static_cast<std::size_t>(parse_count(argv[0], v, 1, kMaxRing));
        } else if (arg == "--drop") {
            options.drop_when_full = true;
        } else if (arg == "--grace-ms") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            options.grace = arpsec::common::parse_millis(argv[0], v);
        } else if (arg == "--read-timeout-ms") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            options.read_timeout_ms = static_cast<int>(parse_count(argv[0], v, 1, kMaxTimeoutMs));
        } else if (arg == "--idle-timeout-ms") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            options.idle_timeout_ms = static_cast<int>(parse_count(argv[0], v, 0, kMaxTimeoutMs));
        } else if (arg == "--conns") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            conns = static_cast<std::size_t>(parse_count(argv[0], v));
        } else if (arg == "--alerts") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            alerts_path = v;
        } else if (arg == "--summary") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            summary_path = v;
        } else if (arg == "--snapshot") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            snapshot_path = v;
        } else if (arg == "--restore") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            options.restore_path = v;
        } else if (arg == "--scorecard") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            options.scorecard_path = v;
        } else if (arg == "--scorecard-every") {
            if ((v = next()) == nullptr) return usage(argv[0]);
            options.scorecard_every = parse_count(argv[0], v, 0);
        } else if (arg == "--no-alert-stream") {
            options.stream_alerts = false;
        } else if (arg == "--version") {
            std::puts(arpsec::common::tool_version_line("served").c_str());
            return 0;
        } else {
            return usage(argv[0]);
        }
    }
    if (unix_path.empty() == (tcp_port < 0)) return usage(argv[0]);

    auto listener = unix_path.empty()
                        ? arpsec::serve::listen_tcp(static_cast<std::uint16_t>(tcp_port))
                        : arpsec::serve::listen_unix(unix_path);
    if (!listener.ok()) {
        std::fprintf(stderr, "arpsec-served: %s\n", listener.error().c_str());
        return 2;
    }

    const arpsec::detect::Registry registry;
    auto server = arpsec::serve::Server::create(registry, options);
    if (!server.ok()) {
        std::fprintf(stderr, "arpsec-served: %s\n", server.error().c_str());
        return 2;
    }
    g_server = server.value().get();
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);
    // A client that vanishes mid-write must not kill the daemon.
    std::signal(SIGPIPE, SIG_IGN);

    std::printf("arpsec-served: listening on %s\n", listener.value()->address().c_str());
    std::fflush(stdout);

    int exit_code = 0;
    std::size_t served = 0;
    while (served < conns) {
        // Poll accept so a SIGTERM while idle still exits promptly.
        if (g_server->stop_requested()) break;
        auto conn = listener.value()->accept(200);
        if (!conn.ok()) {
            if (conn.error() == "accept: timed out") continue;
            std::fprintf(stderr, "arpsec-served: %s\n", conn.error().c_str());
            exit_code = 2;
            break;
        }
        ++served;

        auto outcome = server.value()->serve(*conn.value());
        if (!outcome.ok()) {
            std::fprintf(stderr, "arpsec-served: %s\n", outcome.error().c_str());
            exit_code = 1;
            continue;
        }
        const auto& res = outcome.value();
        if (!res.transport_error.empty()) {
            std::fprintf(stderr, "arpsec-served: stream aborted: %s\n",
                         res.transport_error.c_str());
        }
        std::printf("arpsec-served: %s\n", res.summary.dump().c_str());
        std::fflush(stdout);

        if (!alerts_path.empty() &&
            !arpsec::serve::write_alert_file(alerts_path, res.alerts)) {
            std::fprintf(stderr, "arpsec-served: cannot write %s\n", alerts_path.c_str());
            exit_code = 2;
        }
        if (!summary_path.empty()) {
            std::ofstream out{summary_path};
            if (out) {
                out << res.summary.dump(2) << "\n";
            } else {
                std::fprintf(stderr, "arpsec-served: cannot write %s\n", summary_path.c_str());
                exit_code = 2;
            }
        }
        if (!snapshot_path.empty()) {
            if (auto snap = server.value()->write_snapshot(snapshot_path); !snap.ok()) {
                std::fprintf(stderr, "arpsec-served: %s\n", snap.error().c_str());
                exit_code = 2;
            }
        }
        if (res.stopped) break;  // SIGTERM drain: stop accepting new streams
    }
    listener.value()->close();
    return exit_code;
}
