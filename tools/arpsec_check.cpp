// arpsec-check — deterministic simulation checker for the ARPSEC tree.
//
// Draws randomized scenarios (topology + adversarial ARP schedule) from a
// seed range, runs each through the full simulator with the scheme under
// test deployed, and asserts cross-cutting invariants after every event
// step: sim conservation, telemetry consistency, no silent poisoning under
// detection schemes, no admitted poisoning under prevention schemes. Every
// failure is delta-debugged down to a minimal event schedule and written
// as an arpsec.check-artifact.v1 JSON repro that --replay re-executes
// bit-for-bit.
//
//   $ arpsec-check --seeds 50 --jobs 8              # sweep the builtin schemes
//   $ arpsec-check --schemes arpwatch,anticap       # restrict the pool
//   $ arpsec-check --plant-bug --artifact-dir out/  # self-test: find the bug
//   $ arpsec-check --replay out/check-seed-17.json  # re-run a recorded repro
//
// The report is byte-identical for every --jobs value: workers pull seeds
// from an atomic counter but results are collected in seed order.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/checker.hpp"
#include "check/planted.hpp"
#include "common/cli.hpp"
#include "common/version.hpp"

namespace {

int usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [--seeds N] [--first-seed S] [--jobs J] [--schemes a,b,...]\n"
        "          [--plant-bug] [--no-shrink] [--out PATH] [--artifact-dir DIR]\n"
        "          [--replay PATH [--planted]]\n"
        "  --seeds N         scenarios to check (default 20)\n"
        "  --first-seed S    first seed of the range (default 1)\n"
        "  --jobs J          worker threads (default 1; report is identical for any J)\n"
        "  --schemes LIST    comma-separated scheme pool (default: all registered)\n"
        "  --plant-bug       self-test against a fault-injected scheme\n"
        "  --no-shrink       keep failing schedules unshrunk\n"
        "  --out PATH        write the text report to PATH as well as stdout\n"
        "  --artifact-dir D  write check-seed-<seed>.json repros for failures\n"
        "  --replay PATH     re-execute a recorded artifact (exit 1 if it fails)\n"
        "  --planted         with --replay: the artifact used --plant-bug\n"
        "  --version         print the build's git describe string and exit\n",
        argv0);
    return 2;
}

std::vector<std::string> split_csv(const std::string& s) {
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty()) out.push_back(item);
    }
    return out;
}

int replay(const std::string& path, bool planted) {
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "arpsec-check: cannot read %s\n", path.c_str());
        return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const auto result = arpsec::check::replay_artifact(buf.str(), planted);
    if (!result.ok()) {
        std::fprintf(stderr, "arpsec-check: %s\n", result.error().c_str());
        return 2;
    }
    const auto& outcome = result.value().outcome;
    std::printf("replayed seed %llu scheme=%s events=%zu frames=%llu alerts=%zu\n",
                static_cast<unsigned long long>(result.value().scenario.seed),
                result.value().scenario.scheme.c_str(), result.value().scenario.events.size(),
                static_cast<unsigned long long>(outcome.frames), outcome.alerts);
    for (const auto& v : outcome.violations) {
        std::printf("  [%s] %s\n", v.oracle.c_str(), v.detail.c_str());
    }
    if (outcome.passed()) {
        std::printf("replay: no violation reproduced\n");
        return 0;
    }
    std::printf("replay: violation reproduced\n");
    return 1;
}

}  // namespace

int main(int argc, char** argv) {
    arpsec::check::CheckOptions opts;
    std::string out_path;
    std::string artifact_dir;
    std::string replay_path;
    bool replay_planted = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
        if (arg == "--seeds") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            opts.seeds = static_cast<std::size_t>(arpsec::common::parse_count(argv[0], v));
        } else if (arg == "--first-seed") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            opts.first_seed = arpsec::common::parse_count(argv[0], v, 0);
        } else if (arg == "--jobs") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            opts.jobs = static_cast<std::size_t>(arpsec::common::parse_count(argv[0], v));
        } else if (arg == "--schemes") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            opts.gen.schemes = split_csv(v);
        } else if (arg == "--plant-bug") {
            opts.plant_bug = true;
        } else if (arg == "--no-shrink") {
            opts.shrink = false;
        } else if (arg == "--out") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            out_path = v;
        } else if (arg == "--artifact-dir") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            artifact_dir = v;
        } else if (arg == "--replay") {
            const char* v = next();
            if (v == nullptr) return usage(argv[0]);
            replay_path = v;
        } else if (arg == "--planted") {
            replay_planted = true;
        } else if (arg == "--version") {
            std::puts(arpsec::common::tool_version_line("check").c_str());
            return 0;
        } else {
            return usage(argv[0]);
        }
    }

    if (!replay_path.empty()) return replay(replay_path, replay_planted);

    if (opts.gen.schemes.empty() || (opts.gen.schemes.size() == 1 &&
                                     opts.gen.schemes.front() == "none" && !opts.plant_bug)) {
        // Default pool: every registered scheme.
        opts.gen.schemes.clear();
        const arpsec::detect::Registry registry;
        for (const auto& entry : registry.entries()) {
            opts.gen.schemes.push_back(entry.name);
        }
    }

    const arpsec::check::CheckReport report = arpsec::check::run_check(opts);
    const std::string text = report.text();
    std::fputs(text.c_str(), stdout);

    if (!out_path.empty()) {
        std::ofstream out(out_path);
        if (!out) {
            std::fprintf(stderr, "arpsec-check: cannot write %s\n", out_path.c_str());
            return 2;
        }
        out << text;
    }
    if (!artifact_dir.empty()) {
        for (const auto& r : report.results) {
            if (!r.failed || !r.error.empty()) continue;
            const std::string path =
                artifact_dir + "/check-seed-" + std::to_string(r.seed) + ".json";
            std::ofstream out(path);
            if (!out) {
                std::fprintf(stderr, "arpsec-check: cannot write %s\n", path.c_str());
                return 2;
            }
            out << r.artifact().dump(2) << "\n";
            std::fprintf(stderr, "arpsec-check: wrote repro %s\n", path.c_str());
        }
    }
    return report.failures() == 0 ? 0 : 1;
}
