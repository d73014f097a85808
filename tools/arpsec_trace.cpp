// arpsec-trace — labeled trace generator for the replay engine.
//
// Renders check::ScenarioGen scenarios through the full simulator, records
// the mirror-port frame stream with attacker-origin ground truth, and
// writes a classic pcap plus its arpsec.trace-labels.v1 sidecar. The
// output is byte-identical for every --jobs value.
//
//   $ arpsec-trace --frames 100000 --out trace.pcap --jobs 8
//   $ arpsec-trace --frames 5000 --first-seed 7 --out t.pcap --labels t.labels.json

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/cli.hpp"
#include "common/version.hpp"
#include "replay/source.hpp"

namespace {

using arpsec::common::parse_count;

int usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [--frames N] [--first-seed S] [--jobs J] [--out PCAP]\n"
        "          [--labels PATH] [--gap-ms MS] [--max-hosts H] [--max-events E]\n"
        "  --frames N      minimum frame count of the trace (default 10000)\n"
        "  --first-seed S  seed of the first scenario epoch (default 1)\n"
        "  --jobs J        epoch-rendering threads; output is identical for any J\n"
        "  --out PCAP      pcap path (default trace.pcap)\n"
        "  --labels PATH   sidecar path (default: <out>.labels.json)\n"
        "  --gap-ms MS     idle gap between scenario epochs (default 100)\n"
        "  --max-hosts H   upper bound on hosts per epoch (default 8)\n"
        "  --max-events E  upper bound on injected events per epoch (default 16)\n"
        "  --version       print the build's git describe string and exit\n",
        argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    arpsec::replay::ScenarioTraceSource::Options opts;
    std::string out_path = "trace.pcap";
    std::string labels_path;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        if (arg == "--frames") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            opts.target_frames = static_cast<std::size_t>(parse_count(argv[0], v));
        } else if (arg == "--first-seed") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            opts.first_seed = parse_count(argv[0], v, 0);
        } else if (arg == "--jobs") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            opts.jobs = static_cast<std::size_t>(parse_count(argv[0], v));
        } else if (arg == "--out") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            out_path = v;
        } else if (arg == "--labels") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            labels_path = v;
        } else if (arg == "--gap-ms") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            opts.epoch_gap = arpsec::common::parse_millis(argv[0], v);
        } else if (arg == "--max-hosts") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            opts.gen.max_hosts = static_cast<std::size_t>(parse_count(argv[0], v, 2));
        } else if (arg == "--max-events") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            opts.gen.max_events = static_cast<std::size_t>(parse_count(argv[0], v));
        } else if (arg == "--version") {
            std::puts(arpsec::common::tool_version_line("trace").c_str());
            return 0;
        } else {
            return usage(argv[0]);
        }
    }
    if (labels_path.empty()) labels_path = out_path + ".labels.json";

    arpsec::replay::ScenarioTraceSource source{opts};
    auto trace = source.load();
    if (!trace.ok()) {
        std::fprintf(stderr, "arpsec-trace: %s\n", trace.error().c_str());
        return 1;
    }
    const auto written =
        arpsec::replay::write_trace(trace.value(), out_path, labels_path, "arpsec-trace");
    if (!written.ok()) {
        std::fprintf(stderr, "arpsec-trace: %s\n", written.error().c_str());
        return 1;
    }
    std::printf("wrote %zu frames (%zu attacks, %zu directory entries) to %s + %s\n",
                trace.value().frames.size(), trace.value().attack_count(),
                trace.value().directory.size(), out_path.c_str(), labels_path.c_str());
    return 0;
}
