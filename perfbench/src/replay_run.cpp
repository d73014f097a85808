// `replay`: one arpsec-replay command over the benchmark trace — load the
// pcap and its labels, prime the views, run every scheme, score, and emit
// the table and the artifact.
//
// Untraced, it makes exactly the library calls arpsec-replay's main()
// makes with --jobs 1 (Engine::run_all with one job is make_views followed
// by Engine::run per scheme on the calling thread; calling those two
// directly is what lets set-up end at "views primed"). Traced, ingest is
// the same public calls with a span around each (PcapReader, TraceLabels,
// join_labels, Engine::make_views). The scheme stage has no public call
// per step, so the traced run re-states Engine::run's loop over the public
// SchemeSession and match_alerts with a span around each step. Two checks
// keep that honest: its scorecard and alert digests must equal the
// untraced run's, and after the command it times Engine::run itself over
// the same views, so the harness can compare the re-stated feed + finish
// time with the library's own (replay.traced_over_engine).

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "bench.hpp"
#include "core/report.hpp"
#include "detect/registry.hpp"
#include "replay/engine.hpp"
#include "replay/score.hpp"
#include "replay/session.hpp"
#include "replay/source.hpp"
#include "subcommands.hpp"
#include "wire/frame.hpp"
#include "wire/pcap_reader.hpp"

namespace perfbench {

namespace {

using arpsec::replay::LabeledTrace;
using arpsec::replay::SchemeScore;
using arpsec::telemetry::Json;
using Span = Tracer::Span;

/// Traced ingest: PcapFileSource::load's three public calls, then
/// Engine::make_views itself (capture + prime of every frame), one span
/// each. Allocation counting covers all of it.
bool traced_ingest(const std::string& pcap_path, const std::string& labels_path,
                   LabeledTrace& trace, std::vector<arpsec::wire::FrameView>& views,
                   std::uint64_t& ingest_allocs) {
    set_alloc_counting(true);
    const std::uint64_t a0 = alloc_count();
    {
        arpsec::common::Expected<arpsec::wire::PcapTrace> pcap =
            arpsec::common::Expected<arpsec::wire::PcapTrace>::failure("unread");
        {
            Span s{"wire.pcap_read"};
            pcap = arpsec::wire::PcapReader::read_file(pcap_path);
        }
        if (!pcap.ok()) {
            std::fprintf(stderr, "replay: %s\n", pcap.error().c_str());
            return false;
        }
        arpsec::common::Expected<arpsec::replay::TraceLabels> labels =
            arpsec::common::Expected<arpsec::replay::TraceLabels>::failure("unread");
        {
            Span s{"replay.labels_parse"};
            std::ifstream in{labels_path};
            std::ostringstream buf;
            buf << in.rdbuf();
            labels = arpsec::replay::TraceLabels::parse(buf.str());
        }
        if (!labels.ok()) {
            std::fprintf(stderr, "replay: %s\n", labels.error().c_str());
            return false;
        }
        Span s{"replay.join"};
        auto joined = arpsec::replay::join_labels(pcap.value(), labels.value(), pcap_path);
        if (!joined.ok()) {
            std::fprintf(stderr, "replay: %s\n", joined.error().c_str());
            return false;
        }
        trace = std::move(joined).value();
    }
    {
        Span s{"wire.make_views"};
        views = arpsec::replay::Engine::make_views(trace);
        s.arg("frames", static_cast<double>(views.size()));
    }
    ingest_allocs = alloc_count() - a0;
    set_alloc_counting(false);
    return true;
}

/// Traced scheme run: the body of Engine::run, one span per public call.
SchemeScore traced_scheme(const LabeledTrace& trace,
                          std::span<const arpsec::wire::FrameView> views,
                          const arpsec::detect::Registry& registry,
                          const arpsec::replay::EngineOptions& options,
                          const std::string& name) {
    std::unique_ptr<arpsec::replay::SchemeSession> session;
    {
        Span s{"replay.session_setup"};
        arpsec::replay::SessionOptions session_options;
        session_options.seed = trace.seed == 0 ? 1 : trace.seed;
        session_options.directory = trace.directory;
        session = std::make_unique<arpsec::replay::SchemeSession>(registry.make(name),
                                                                  session_options);
    }
    const double t0 = mono_now();
    {
        Span s{"replay.session." + name + ".feed"};
        constexpr std::size_t kPrefetchAhead = 8;  // as in Engine::run
        for (std::size_t i = 0; i < trace.frames.size(); ++i) {
            if (i + kPrefetchAhead < views.size()) views[i + kPrefetchAhead].prefetch();
            session->feed(trace.frames[i].at, views[i]);
        }
        s.arg("frames", static_cast<double>(trace.frames.size()));
    }
    {
        Span s{"replay.session.finish"};
        session->finish(options.grace);
    }
    const double elapsed = mono_now() - t0;

    Span s{"replay.match"};
    SchemeScore score;
    score.scheme = name;
    score.attack_frames = trace.attack_count();
    score.frames = session->frames();
    score.malformed = session->malformed();
    std::vector<arpsec::common::SimTime> attack_times;
    for (const arpsec::replay::TraceFrame& f : trace.frames) {
        if (f.attack) attack_times.push_back(f.at);
    }
    const arpsec::detect::AlertSink& alerts = session->alerts();
    const arpsec::replay::MatchCounts match =
        arpsec::replay::match_alerts(std::move(attack_times), alerts.alerts(),
                                     options.match_window);
    score.true_positive_alerts = match.true_positive_alerts;
    score.false_positive_alerts = match.false_positive_alerts;
    score.detected_attacks = match.detected_attacks;
    score.alerts = alerts.count();
    score.alert_list = alerts.alerts();
    score.precision = score.alerts == 0 ? 1.0
                                        : static_cast<double>(score.true_positive_alerts) /
                                              static_cast<double>(score.alerts);
    score.recall = score.attack_frames == 0 ? 1.0
                                            : static_cast<double>(score.detected_attacks) /
                                                  static_cast<double>(score.attack_frames);
    if (elapsed > 0.0) {
        score.wall_seconds = elapsed;
        score.frames_per_second = static_cast<double>(score.frames) / elapsed;
    }
    arpsec::telemetry::MetricsRegistry& metrics = session->metrics();
    metrics.counter("replay.frames").inc(score.frames);
    metrics.counter("replay.frames.malformed").inc(score.malformed);
    metrics.counter("replay.frames.attack").inc(score.attack_frames);
    alerts.export_metrics(metrics);
    score.metrics = metrics.snapshot_json();
    arpsec::wire::flush_frameview_hits();
    session.reset();  // Engine::run tears the session down before returning
    return score;
}

/// arpsec-replay's output stage with `--out`: the table on stdout and the
/// artifact. Returns false on I/O failure.
bool emit(const LabeledTrace& trace, const std::vector<SchemeScore>& scores,
          const std::string& pcap_path, const std::string& out_dir) {
    std::printf("replayed %zu frames (%zu attacks) from %s\n", trace.frames.size(),
                trace.attack_count(), pcap_path.c_str());
    arpsec::core::TextTable table;
    table.set_headers({"scheme", "frames", "alerts", "TP", "FP", "detected", "precision",
                       "recall", "frames/s"});
    for (const SchemeScore& s : scores) {
        table.add_row({s.scheme, std::to_string(s.frames), std::to_string(s.alerts),
                       std::to_string(s.true_positive_alerts),
                       std::to_string(s.false_positive_alerts),
                       std::to_string(s.detected_attacks),
                       arpsec::core::fmt_double(s.precision, 3),
                       arpsec::core::fmt_double(s.recall, 3),
                       arpsec::core::fmt_double(s.frames_per_second, 0)});
    }
    table.print();
    std::fflush(stdout);
    const Json artifact = arpsec::replay::Engine::artifact(trace, scores, "arpsec-replay");
    std::ofstream out{out_dir + "/replay.json"};
    out << artifact.dump(2) << "\n";
    return static_cast<bool>(out);
}

/// Gate digests, computed after the command's clock stops: the artifact
/// with its wall-clock fields zeroed, and an order-independent digest of
/// the alert multiset (the sum of per-alert FNV-1a hashes over every field
/// the alert stream carries).
void digests(const LabeledTrace& trace, std::vector<SchemeScore> scores, Json& result) {
    std::uint64_t alert_sum = 0;
    std::uint64_t alerts = 0;
    for (SchemeScore& s : scores) {
        s.wall_seconds = 0.0;
        s.frames_per_second = 0.0;
        for (const arpsec::detect::Alert& a : s.alert_list) {
            const std::string fields =
                std::to_string(a.at.nanos()) + '|' + a.scheme + '|' +
                arpsec::detect::to_string(a.kind) + '|' + a.ip.to_string() + '|' +
                a.claimed_mac.to_string() + '|' + a.previous_mac.to_string() + '|' + a.detail;
            alert_sum += fnv1a(fields);
            ++alerts;
        }
    }
    result["scorecard_digest"] =
        hex64(fnv1a(arpsec::replay::Engine::artifact(trace, scores, "arpsec-replay").dump()));
    result["alert_digest"] = hex64(alert_sum);
    result["alerts"] = alerts;
}

}  // namespace

int cmd_replay(const Args& args) {
    const double t_main = mono_now();
    const std::string pcap_path = args.str("pcap");
    const std::string out_dir = args.str("out-dir");
    const std::vector<std::string> schemes = args.list("schemes");
    if (pcap_path.empty() || out_dir.empty() || schemes.empty() || !args.has("result")) {
        std::fprintf(stderr,
                     "usage: replay --pcap P --schemes a,b --out-dir D --result F "
                     "[--trace-out F]\n");
        return 2;
    }
    const std::string labels_path = pcap_path + ".labels.json";
    const bool traced = Tracer::instance().enabled();

    const arpsec::detect::Registry registry;
    const arpsec::replay::EngineOptions engine_options;  // arpsec-replay's defaults
    const arpsec::replay::Engine engine{registry, engine_options};

    LabeledTrace trace;
    std::vector<arpsec::wire::FrameView> views;
    std::uint64_t ingest_allocs = 0;
    if (traced) {
        if (!traced_ingest(pcap_path, labels_path, trace, views, ingest_allocs)) return 1;
    } else {
        arpsec::replay::PcapFileSource source{pcap_path, labels_path};
        auto loaded = source.load();
        if (!loaded.ok()) {
            std::fprintf(stderr, "replay: %s\n", loaded.error().c_str());
            return 1;
        }
        trace = std::move(loaded).value();
        views = arpsec::replay::Engine::make_views(trace);
    }
    const double t_setup = mono_now();

    std::vector<SchemeScore> scores;
    for (const std::string& name : schemes) {
        if (!registry.contains(name)) {
            std::fprintf(stderr, "replay: unknown scheme '%s'\n", name.c_str());
            return 2;
        }
        if (traced) {
            scores.push_back(traced_scheme(trace, views, registry, engine_options, name));
            continue;
        }
        auto score = engine.run(trace, views, name);
        if (!score.ok()) {
            std::fprintf(stderr, "replay: %s: %s\n", name.c_str(), score.error().c_str());
            return 1;
        }
        scores.push_back(std::move(score).value());
    }
    for (const SchemeScore& s : scores) {
        if (s.frames != trace.frames.size()) {
            std::fprintf(stderr, "replay: %s processed %llu of %zu frames\n", s.scheme.c_str(),
                         static_cast<unsigned long long>(s.frames), trace.frames.size());
            return 1;
        }
    }
    bool emitted = false;
    {
        Span s{"replay.emit"};
        emitted = emit(trace, scores, pcap_path, out_dir);
    }
    if (!emitted) {
        std::fprintf(stderr, "replay: cannot write results under %s\n", out_dir.c_str());
        return 1;
    }
    const double t_end = mono_now();
    const ProcessUsage usage = process_usage();

    double traced_feed_finish_s = 0.0;
    double engine_feed_finish_s = 0.0;
    if (traced) {
        // Outside the command's window: Engine::run's own feed + finish
        // stopwatch over the same views, against the re-stated loop's.
        for (const SchemeScore& s : scores) traced_feed_finish_s += s.wall_seconds;
        for (const std::string& name : schemes) {
            auto score = engine.run(trace, views, name);
            if (!score.ok()) {
                std::fprintf(stderr, "replay: %s: %s\n", name.c_str(), score.error().c_str());
                return 1;
            }
            engine_feed_finish_s += score.value().wall_seconds;
        }
    }

    Json result = Json::object();
    result["main_start_mono"] = t_main;
    result["setup_end_mono"] = t_setup;
    result["end_mono"] = t_end;
    result["frames"] = static_cast<std::uint64_t>(trace.frames.size());
    result["attacks"] = static_cast<std::uint64_t>(trace.attack_count());
    result["ingest_allocs"] = ingest_allocs;
    result["cpu_s"] = usage.cpu_s;
    result["peak_rss_mb"] = usage.peak_rss_mb;
    result["traced_feed_finish_s"] = traced_feed_finish_s;
    result["engine_feed_finish_s"] = engine_feed_finish_s;
    digests(trace, std::move(scores), result);
    if (!write_json(args.str("result"), result)) return 1;
    return 0;
}

}  // namespace perfbench
