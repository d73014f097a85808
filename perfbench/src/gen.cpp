// `gen` renders the benchmark trace for one seed, once per seed, as
// benchmark set-up; its time is reported as bench.trace_gen_s and never
// inside setup_s. `reference` computes the offline alerts the serve gates
// compare against, once per seed and build: the reference must come from
// the code under test, the trace must not.

#include <cstdio>
#include <cstdlib>

#include "bench.hpp"
#include "detect/registry.hpp"
#include "replay/engine.hpp"
#include "replay/source.hpp"
#include "serve/alert_stream.hpp"
#include "subcommands.hpp"

namespace perfbench {

using arpsec::telemetry::Json;

int cmd_gen(const Args& args) {
    const std::string dir = args.str("dir");
    if (dir.empty() || !args.has("seed")) {
        std::fprintf(stderr, "usage: gen --seed S --dir DIR [--frames N] [--jobs J]\n");
        return 2;
    }
    const double t0 = mono_now();

    // 32 hosts / 64 events per epoch, as in the ROADMAP baseline: the
    // default 8-host epochs hit the 4096-epoch cap before large traces.
    // Seed s renders epochs starting at 1 + 4096 s: the epoch cap is 4096,
    // so traces of different benchmark seeds never share an epoch.
    const std::uint64_t seed = args.u64("seed", 1);
    arpsec::replay::ScenarioTraceSource::Options options;
    options.first_seed = 1 + seed * options.max_epochs;
    options.target_frames = args.u64("frames", 300000);
    options.jobs = args.u64("jobs", 2);
    options.gen.max_hosts = 32;
    options.gen.max_events = 64;
    arpsec::replay::ScenarioTraceSource source{options};
    auto trace = source.load();
    if (!trace.ok()) {
        std::fprintf(stderr, "gen: %s\n", trace.error().c_str());
        return 1;
    }
    const std::string pcap = dir + "/trace.pcap";
    const std::string labels = pcap + ".labels.json";
    if (auto w = arpsec::replay::write_trace(trace.value(), pcap, labels, "perfbench");
        !w.ok()) {
        std::fprintf(stderr, "gen: %s\n", w.error().c_str());
        return 1;
    }
    const double gen_s = mono_now() - t0;

    Json out = Json::object();
    out["seed"] = seed;
    out["first_epoch_seed"] = options.first_seed;
    out["frames"] = static_cast<std::uint64_t>(trace.value().frames.size());
    out["attacks"] = static_cast<std::uint64_t>(trace.value().attack_count());
    out["trace_gen_s"] = gen_s;
    if (!write_json(dir + "/gen.json", out)) return 1;
    return 0;
}

int cmd_reference(const Args& args) {
    const std::string pcap = args.str("pcap");
    const std::vector<std::string> laps = args.list("laps");
    const std::string out_path = args.str("out");
    if (pcap.empty() || out_path.empty() || laps.empty()) {
        std::fprintf(stderr, "usage: reference --pcap P --out F --laps L1,L2,...\n");
        return 2;
    }
    // One reference per lap count: offline Engine over the pcap as the
    // client streams it (microsecond timestamps after the disk round trip,
    // laps shifted as the client shifts them), with the daemon's scheme and
    // grace window. Kept as the alert count and multiset digest of the
    // alert lines arpsec-served would stream.
    arpsec::replay::PcapFileSource disk{pcap, pcap + ".labels.json"};
    auto loaded = disk.load();
    if (!loaded.ok()) {
        std::fprintf(stderr, "reference: %s\n", loaded.error().c_str());
        return 1;
    }
    const arpsec::detect::Registry registry;
    arpsec::replay::EngineOptions engine_options;
    engine_options.grace = arpsec::common::Duration::millis(kServeGraceMs);
    engine_options.timing = false;
    const arpsec::replay::Engine engine{registry, engine_options};
    const arpsec::replay::LabeledTrace& base = loaded.value();
    const std::int64_t shift = lap_shift_ns(base);
    Json references = Json::object();
    for (const std::string& lap_arg : laps) {
        const auto lap_count =
            static_cast<std::int64_t>(std::strtoull(lap_arg.c_str(), nullptr, 10));
        if (lap_count < 1) {
            std::fprintf(stderr, "reference: bad lap count '%s'\n", lap_arg.c_str());
            return 2;
        }
        arpsec::replay::LabeledTrace lapped;
        lapped.seed = base.seed;
        lapped.directory = base.directory;
        lapped.origin = base.origin;
        lapped.frames.reserve(base.frames.size() * static_cast<std::size_t>(lap_count));
        for (std::int64_t lap = 0; lap < lap_count; ++lap) {
            for (const arpsec::replay::TraceFrame& f : base.frames) {
                lapped.frames.push_back(
                    {arpsec::common::SimTime{f.at.nanos() + lap * shift}, f.bytes, f.attack});
            }
        }
        auto score = engine.run(lapped, kServeScheme);
        if (!score.ok()) {
            std::fprintf(stderr, "reference: %s\n", score.error().c_str());
            return 1;
        }
        std::vector<std::string> lines;
        for (const arpsec::detect::Alert& a : score.value().alert_list) {
            lines.push_back(arpsec::serve::alert_line(a));
        }
        Json entry = Json::object();
        entry["alerts"] = static_cast<std::uint64_t>(lines.size());
        entry["digest"] = multiset_digest(lines);
        references[lap_arg] = std::move(entry);
    }
    return write_json(out_path, references) ? 0 : 1;
}

}  // namespace perfbench
