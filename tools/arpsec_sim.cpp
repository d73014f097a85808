// arpsec_sim — command-line driver for the ARPSEC testbed.
//
// Runs one scenario (scheme × attack × topology) and prints the result;
// optionally records a pcap of the whole fabric and/or appends a CSV row.
//
//   $ arpsec_sim --list
//   $ arpsec_sim --scheme arpwatch --attack mitm --hosts 8 --seed 42
//   $ arpsec_sim --scheme dai --addressing dhcp --attack mitm --pcap run.pcap
//   $ arpsec_sim --sweep --scheme all --seeds 10 --jobs 4 --sweep-out sweep.json

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/time.hpp"
#include "common/version.hpp"
#include "core/artifact.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "detect/registry.hpp"
#include "exp/sweep.hpp"
#include "sim/pcap_tap.hpp"
#include "telemetry/run_artifact.hpp"
#include "telemetry/trace.hpp"

using namespace arpsec;

namespace {

struct Args {
    std::string scheme = "none";
    std::string attack = "mitm";
    std::string addressing = "static";
    std::string policy = "linux-2.6";
    std::size_t hosts = 8;
    std::uint64_t seed = 1;
    std::int64_t duration_s = 60;
    std::int64_t attack_start_s = 20;
    std::int64_t attack_stop_s = 50;
    double loss = 0.0;
    std::string pcap_path;
    std::string csv_path;
    std::string metrics_path;
    std::string trace_path;
    std::string trace_jsonl_path;
    bool verbose = false;
    bool list = false;
    bool help = false;
    bool version = false;
    bool sweep = false;
    std::size_t jobs = 1;
    std::size_t seeds = 1;
    std::string sweep_out_path;
};

void usage() {
    std::puts("arpsec_sim — run one ARPSEC scenario");
    std::puts("");
    std::puts("  --list                 list available schemes and exit");
    std::puts("  --scheme NAME          scheme under test (default: none)");
    std::puts("  --attack KIND          none|mitm|dos|hijack-offline|reply-race (default: mitm)");
    std::puts("  --addressing MODE      static|dhcp (default: static)");
    std::puts("  --policy NAME          host ARP cache policy (default: linux-2.6)");
    std::puts("  --hosts N              station count (default: 8)");
    std::puts("  --seed S               run seed (default: 1)");
    std::puts("  --duration SECS        total simulated time (default: 60)");
    std::puts("  --attack-window A B    attack start/stop seconds (default: 20 50)");
    std::puts("  --loss P               iid frame loss on access links (default: 0)");
    std::puts("  --pcap FILE            record every frame to a pcap file");
    std::puts("  --csv FILE             append a result row (with header if new)");
    std::puts("  --metrics-out FILE     write the run artifact (config+result+metrics JSON)");
    std::puts("  --trace-out FILE       write a Chrome trace_event JSON (chrome://tracing)");
    std::puts("  --trace-jsonl FILE     write the event log as JSON lines");
    std::puts("  --verbose              print alerts as they fire");
    std::puts("  --version              print the build's git describe string and exit");
    std::puts("");
    std::puts("sweep mode (aggregate table instead of a single run):");
    std::puts("  --sweep                sweep scheme x seed instead of one scenario;");
    std::puts("                         --scheme takes a comma list or 'all'");
    std::puts("  --seeds K              seed replicates seed..seed+K-1 (default: 1)");
    std::puts("  --jobs N               worker threads; stdout and artifacts are");
    std::puts("                         byte-identical for every N (default: 1)");
    std::puts("  --sweep-out FILE       write the arpsec.sweep-artifact.v1 JSON");
}

using common::parse_count;

// Static host addresses are 192.168.1.(10 + i), so the LAN holds at most 200.
constexpr std::uint64_t kMaxHosts = 200;

/// A non-negative whole-seconds flag value whose nanosecond Duration fits
/// in int64.
std::int64_t parse_seconds(const char* prog, const char* text) {
    constexpr std::uint64_t kMaxSeconds =
        std::numeric_limits<std::int64_t>::max() / 1'000'000'000;
    return static_cast<std::int64_t>(parse_count(prog, text, 0, kMaxSeconds));
}

bool parse_args(int argc, char** argv, Args& out) {
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto need = [&](const char* what) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", what);
                return nullptr;
            }
            return argv[++i];
        };
        if (a == "--help" || a == "-h") {
            out.help = true;
        } else if (a == "--version") {
            out.version = true;
        } else if (a == "--list") {
            out.list = true;
        } else if (a == "--verbose") {
            out.verbose = true;
        } else if (a == "--scheme") {
            const char* v = need("--scheme");
            if (v == nullptr) return false;
            out.scheme = v;
        } else if (a == "--attack") {
            const char* v = need("--attack");
            if (v == nullptr) return false;
            out.attack = v;
        } else if (a == "--addressing") {
            const char* v = need("--addressing");
            if (v == nullptr) return false;
            out.addressing = v;
        } else if (a == "--policy") {
            const char* v = need("--policy");
            if (v == nullptr) return false;
            out.policy = v;
        } else if (a == "--hosts") {
            const char* v = need("--hosts");
            if (v == nullptr) return false;
            out.hosts = static_cast<std::size_t>(parse_count(argv[0], v, 1, kMaxHosts));
        } else if (a == "--seed") {
            const char* v = need("--seed");
            if (v == nullptr) return false;
            out.seed = parse_count(argv[0], v, 0);
        } else if (a == "--duration") {
            const char* v = need("--duration");
            if (v == nullptr) return false;
            out.duration_s = parse_seconds(argv[0], v);
        } else if (a == "--attack-window") {
            const char* v1 = need("--attack-window");
            if (v1 == nullptr) return false;
            const char* v2 = need("--attack-window");
            if (v2 == nullptr) return false;
            out.attack_start_s = parse_seconds(argv[0], v1);
            out.attack_stop_s = parse_seconds(argv[0], v2);
        } else if (a == "--loss") {
            const char* v = need("--loss");
            if (v == nullptr) return false;
            char* end = nullptr;
            out.loss = std::strtod(v, &end);
            if (end == v || *end != '\0' || !(out.loss >= 0.0 && out.loss <= 1.0)) {
                std::fprintf(stderr, "%s: bad probability '%s'\n", argv[0], v);
                return false;
            }
        } else if (a == "--pcap") {
            const char* v = need("--pcap");
            if (v == nullptr) return false;
            out.pcap_path = v;
        } else if (a == "--csv") {
            const char* v = need("--csv");
            if (v == nullptr) return false;
            out.csv_path = v;
        } else if (a == "--metrics-out") {
            const char* v = need("--metrics-out");
            if (v == nullptr) return false;
            out.metrics_path = v;
        } else if (a == "--trace-out") {
            const char* v = need("--trace-out");
            if (v == nullptr) return false;
            out.trace_path = v;
        } else if (a == "--trace-jsonl") {
            const char* v = need("--trace-jsonl");
            if (v == nullptr) return false;
            out.trace_jsonl_path = v;
        } else if (a == "--sweep") {
            out.sweep = true;
        } else if (a == "--jobs") {
            const char* v = need("--jobs");
            if (v == nullptr) return false;
            out.jobs = static_cast<std::size_t>(parse_count(argv[0], v));
        } else if (a == "--seeds") {
            const char* v = need("--seeds");
            if (v == nullptr) return false;
            out.seeds = static_cast<std::size_t>(parse_count(argv[0], v));
        } else if (a == "--sweep-out") {
            const char* v = need("--sweep-out");
            if (v == nullptr) return false;
            out.sweep_out_path = v;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
            return false;
        }
    }
    return true;
}

bool append_csv(const Args& args, const core::ScenarioResult& r) {
    const bool fresh = [&] {
        std::FILE* f = std::fopen(args.csv_path.c_str(), "r");
        if (f == nullptr) return true;
        std::fclose(f);
        return false;
    }();
    std::FILE* f = std::fopen(args.csv_path.c_str(), "a");
    if (f == nullptr) return false;
    if (fresh) {
        std::fputs(
            "scheme,attack,addressing,hosts,seed,attack_succeeded,interception,"
            "delivery,tp,fp,detection_latency_ms,resolve_p50_us,total_bytes,arp_bytes,"
            "crypto_ops\n",
            f);
    }
    std::fprintf(f, "%s,%s,%s,%zu,%llu,%d,%.4f,%.4f,%llu,%llu,%s,%.1f,%llu,%llu,%llu\n",
                 r.scheme_name.c_str(), args.attack.c_str(), args.addressing.c_str(),
                 args.hosts, static_cast<unsigned long long>(args.seed), r.attack_succeeded ? 1 : 0,
                 r.attack_window.interception_ratio(), r.attack_window.delivery_ratio(),
                 static_cast<unsigned long long>(r.alerts.true_positives),
                 static_cast<unsigned long long>(r.alerts.false_positives),
                 r.alerts.detection_latency
                     ? core::fmt_double(r.alerts.detection_latency->to_millis(), 3).c_str()
                     : "",
                 r.resolution_latency_us.median(), static_cast<unsigned long long>(r.total_bytes),
                 static_cast<unsigned long long>(r.arp_bytes), static_cast<unsigned long long>(r.crypto_ops.total()));
    std::fclose(f);
    return true;
}

/// Sweep mode: scheme set × seed replicates on the worker pool, aggregate
/// table on stdout (byte-identical for every --jobs value), timing and
/// failures on stderr. pcap/trace/csv options apply to single runs only.
int run_sweep_mode(const Args& args, const core::ScenarioConfig& base_cfg) {
    exp::SweepSpec spec;
    spec.name = "cli_sweep";
    if (args.scheme == "all") {
        for (const auto& reg : detect::all_schemes()) spec.schemes.push_back(reg.name);
    } else {
        std::string cur;
        for (const char c : args.scheme + ",") {
            if (c == ',') {
                if (!cur.empty()) spec.schemes.push_back(cur);
                cur.clear();
            } else {
                cur += c;
            }
        }
    }
    for (const auto& name : spec.schemes) {
        if (detect::make_scheme(name) == nullptr) {
            std::fprintf(stderr, "unknown scheme '%s' (see --list)\n", name.c_str());
            return 2;
        }
    }
    spec.seeds.clear();
    for (std::size_t k = 0; k < args.seeds; ++k) spec.seeds.push_back(args.seed + k);
    spec.configure = [&](const exp::Point& p) {
        core::ScenarioConfig cfg = base_cfg;
        cfg.name = "cli-sweep";
        cfg.seed = p.seed;
        return cfg;
    };

    common::Stopwatch sw;
    const auto outcome = exp::run_sweep(spec, exp::SweepOptions{args.jobs});
    std::fprintf(stderr, "sweep: %zu points, jobs=%zu, %.2fs wall\n", outcome.points.size(),
                 args.jobs, sw.elapsed_seconds());
    for (const auto& pr : outcome.points) {
        if (!pr.failed) continue;
        std::fprintf(stderr, "point %zu (%s seed=%llu) failed: %s\n", pr.point.index,
                     pr.point.scheme.c_str(), static_cast<unsigned long long>(pr.point.seed),
                     pr.error.c_str());
    }

    core::TextTable table("Sweep — " + std::to_string(spec.schemes.size()) + " scheme(s) x " +
                          std::to_string(args.seeds) + " seed(s), attack=" + args.attack);
    table.set_headers({"scheme", "runs", "attack success", "detected", "FP/run",
                       "interception", "resolve p50 (us)"});
    for (const auto& name : spec.schemes) {
        const auto& agg = outcome.aggregate_at(name, {});
        const auto rate = [&](const char* m) {
            const auto* s = agg.measure(m);
            return core::fmt_percent(s != nullptr ? s->mean() : 0.0);
        };
        table.add_row({name, std::to_string(agg.replicates), rate("attack_succeeded"),
                       rate("detected"), exp::fmt_mean_sd(agg.measure("false_positives")),
                       rate("interception"),
                       exp::fmt_mean_sd(agg.measure("resolve_p50_us"))});
    }
    table.print();

    if (!args.sweep_out_path.empty()) {
        exp::SweepArtifact artifact("arpsec_sim");
        artifact.set_meta("attack", args.attack);
        artifact.add(outcome);
        if (!artifact.write(args.sweep_out_path)) {
            std::fprintf(stderr, "failed to write %s\n", args.sweep_out_path.c_str());
            return 1;
        }
        std::fprintf(stderr, "wrote sweep artifact -> %s\n", args.sweep_out_path.c_str());
    }
    return outcome.failures() > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, args)) return 2;
    if (args.version) {
        std::puts(common::tool_version_line("sim").c_str());
        return 0;
    }
    if (args.help) {
        usage();
        return 0;
    }
    if (args.list) {
        std::puts("available schemes:");
        for (const auto& reg : detect::all_schemes()) {
            auto scheme = reg.make();
            const auto t = scheme->traits();
            std::printf("  %-16s %-18s %s\n", reg.name.c_str(), t.vantage.c_str(),
                        t.notes.c_str());
        }
        std::puts("\navailable cache policies:");
        for (const auto& p : arp::CachePolicy::all_profiles()) {
            std::printf("  %s\n", p.name.c_str());
        }
        return 0;
    }

    std::unique_ptr<detect::Scheme> scheme;
    if (!args.sweep) {
        scheme = detect::make_scheme(args.scheme);
        if (scheme == nullptr) {
            std::fprintf(stderr, "unknown scheme '%s' (see --list)\n", args.scheme.c_str());
            return 2;
        }
    }

    core::ScenarioConfig cfg;
    cfg.name = "cli";
    cfg.seed = args.seed;
    cfg.host_count = args.hosts;
    cfg.link_loss = args.loss;
    cfg.duration = common::Duration::seconds(args.duration_s);
    cfg.attack_start = common::Duration::seconds(args.attack_start_s);
    cfg.attack_stop = common::Duration::seconds(args.attack_stop_s);

    if (args.addressing == "static") {
        cfg.addressing = core::Addressing::kStatic;
    } else if (args.addressing == "dhcp") {
        cfg.addressing = core::Addressing::kDhcp;
    } else {
        std::fprintf(stderr, "unknown addressing '%s'\n", args.addressing.c_str());
        return 2;
    }

    if (args.attack == "none") cfg.attack = core::AttackKind::kNone;
    else if (args.attack == "mitm") cfg.attack = core::AttackKind::kMitm;
    else if (args.attack == "dos") cfg.attack = core::AttackKind::kDosBlackhole;
    else if (args.attack == "hijack-offline") cfg.attack = core::AttackKind::kHijackOffline;
    else if (args.attack == "reply-race") cfg.attack = core::AttackKind::kReplyRace;
    else {
        std::fprintf(stderr, "unknown attack '%s'\n", args.attack.c_str());
        return 2;
    }

    bool policy_found = false;
    for (const auto& p : arp::CachePolicy::all_profiles()) {
        if (p.name == args.policy) {
            cfg.host_policy = p;
            policy_found = true;
        }
    }
    if (!policy_found) {
        std::fprintf(stderr, "unknown policy '%s' (see --list)\n", args.policy.c_str());
        return 2;
    }

    if (args.sweep) return run_sweep_mode(args, cfg);

    core::ScenarioRunner runner(cfg);
    if (args.verbose) {
        runner.alerts().on_alert = [](const detect::Alert& a) {
            std::printf("ALERT  %s\n", a.to_string().c_str());
        };
    }

    telemetry::EventTracer tracer;
    const bool tracing = !args.trace_path.empty() || !args.trace_jsonl_path.empty();
    if (tracing) runner.set_tracer(&tracer);

    std::unique_ptr<sim::PcapTap> tap;
    if (!args.pcap_path.empty()) tap = std::make_unique<sim::PcapTap>(args.pcap_path);
    const auto result = runner.run_with_tap(*scheme, tap.get());

    std::printf("%s\n", result.summary_line().c_str());
    std::printf("  benign window  : %5.1f%% delivered (%llu sent)\n",
                result.benign_window.delivery_ratio() * 100.0,
                static_cast<unsigned long long>(result.benign_window.sent));
    std::printf("  attack window  : %5.1f%% delivered, %5.1f%% intercepted (%llu sent)\n",
                result.attack_window.delivery_ratio() * 100.0,
                result.attack_window.interception_ratio() * 100.0,
                static_cast<unsigned long long>(result.attack_window.sent));
    std::printf("  victim cache   : %s\n", result.victim_poisoned_at_end ? "POISONED" : "clean");
    std::printf("  resolve p50    : %.1f us over %zu cold resolutions\n",
                result.resolution_latency_us.median(), result.resolution_latency_us.count());
    std::printf("  wire           : %llu frames, %llu bytes (%llu ARP frames)\n",
                static_cast<unsigned long long>(result.total_frames), static_cast<unsigned long long>(result.total_bytes),
                static_cast<unsigned long long>(result.arp_frames));
    if (result.crypto_ops.total() > 0) {
        std::printf("  crypto ops     : %llu signs, %llu verifies\n",
                    static_cast<unsigned long long>(result.crypto_ops.signs),
                    static_cast<unsigned long long>(result.crypto_ops.verifies));
    }
    if (tap) std::printf("  pcap           : %zu frames -> %s\n", tap->frames(),
                         args.pcap_path.c_str());
    if (!args.csv_path.empty() && !append_csv(args, result)) {
        std::fprintf(stderr, "failed to write %s\n", args.csv_path.c_str());
        return 1;
    }
    if (!args.metrics_path.empty()) {
        telemetry::RunArtifact artifact("arpsec_sim");
        artifact.add_run(core::run_json(result, &runner.metrics()));
        if (!artifact.write(args.metrics_path)) {
            std::fprintf(stderr, "failed to write %s\n", args.metrics_path.c_str());
            return 1;
        }
        std::printf("  metrics        : %s\n", args.metrics_path.c_str());
    }
    if (!args.trace_path.empty()) {
        if (!tracer.write_chrome_trace(args.trace_path)) {
            std::fprintf(stderr, "failed to write %s\n", args.trace_path.c_str());
            return 1;
        }
        std::printf("  trace          : %zu events -> %s\n", tracer.size(),
                    args.trace_path.c_str());
    }
    if (!args.trace_jsonl_path.empty()) {
        if (!tracer.write_jsonl(args.trace_jsonl_path)) {
            std::fprintf(stderr, "failed to write %s\n", args.trace_jsonl_path.c_str());
            return 1;
        }
        std::printf("  trace (jsonl)  : %zu events -> %s\n", tracer.size(),
                    args.trace_jsonl_path.c_str());
    }
    return result.attack_succeeded ? 3 : 0;
}
