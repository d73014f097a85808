#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "detect/registry.hpp"
#include "exp/executor.hpp"
#include "replay/engine.hpp"
#include "replay/source.hpp"
#include "replay/trace.hpp"
#include "serve/alert_stream.hpp"
#include "serve/server.hpp"
#include "serve/shard.hpp"
#include "serve/transport.hpp"
#include "wire/stream_codec.hpp"

namespace arpsec::serve {
namespace {

// A pipe big enough that a test client can write a whole small trace (and
// the daemon its alert stream back) without either side blocking on the
// transport — keeps the tests deadlock-free regardless of scheduling.
constexpr std::size_t kRoomyPipe = 1u << 22;

replay::LabeledTrace small_trace() {
    replay::ScenarioTraceSource::Options opts;
    opts.first_seed = 1;
    opts.target_frames = 600;
    auto trace = replay::ScenarioTraceSource{opts}.load();
    EXPECT_TRUE(trace.ok()) << trace.error();
    return trace.value();
}

// Encodes the client half of an `arpsec.stream.v1` conversation for a
// slice of `trace` — exactly what arpsec-loadgen would put on the wire.
wire::Bytes encode_stream(const replay::LabeledTrace& trace, std::size_t begin,
                          std::size_t end, bool with_hello = true,
                          bool with_end = true) {
    wire::Bytes out;
    if (with_hello) {
        wire::StreamHello hello;
        hello.seed = trace.seed == 0 ? 1 : trace.seed;
        wire::encode_hello(out, hello);
        std::vector<wire::StreamHostEntry> entries;
        entries.reserve(trace.directory.size());
        for (const auto& host : trace.directory) {
            entries.push_back({host.name, host.ip, host.mac});
        }
        wire::encode_directory(out, entries);
    }
    for (std::size_t i = begin; i < end && i < trace.frames.size(); ++i) {
        wire::encode_frame(
            out, static_cast<std::uint64_t>(trace.frames[i].at.nanos()),
            std::span<const std::uint8_t>{trace.frames[i].bytes.data(),
                                          trace.frames[i].bytes.size()});
    }
    if (with_end) wire::encode_end(out);
    return out;
}

// Runs one serve() against a pipe whose client half plays `script` and then
// optionally hangs up. The client writes from its own thread (via the
// sanctioned exp::run_pair entry point), mirroring the real daemon's
// intake-vs-transport concurrency.
common::Expected<ServeOutcome> serve_script(Server& server, const wire::Bytes& script,
                                            bool close_after = false) {
    PipePair pipe = make_pipe(kRoomyPipe);
    std::optional<common::Expected<ServeOutcome>> outcome;
    const std::string peer = exp::run_pair(
        [&] {
            (void)pipe.client->write_all(
                std::span<const std::uint8_t>{script.data(), script.size()});
            if (close_after) pipe.client->close();
        },
        [&] { outcome = server.serve(*pipe.server); });
    EXPECT_EQ(peer, "");
    return *outcome;
}

std::vector<std::string> canonical_lines(std::vector<detect::Alert> alerts) {
    sort_canonical(alerts);
    std::vector<std::string> lines;
    lines.reserve(alerts.size());
    for (const auto& a : alerts) lines.push_back(alert_line(a));
    return lines;
}

// The offline ground truth: the same trace through arpsec-replay's engine.
std::vector<detect::Alert> offline_alerts(const replay::LabeledTrace& trace,
                                          common::Duration grace) {
    const detect::Registry registry;
    replay::EngineOptions opts;
    opts.grace = grace;
    opts.timing = false;
    const auto score = replay::Engine{registry, opts}.run(trace, "arpwatch");
    EXPECT_TRUE(score.ok()) << score.error();
    return score.value().alert_list;
}

// Waits (up to 60 s) until `server` has admitted `frames` frames of the
// stream it is serving.
void wait_admitted(const Server& server, std::uint64_t frames) {
    for (int waited_ms = 0; server.admitted_frames() < frames && waited_ms < 60000;
         ++waited_ms) {
        exp::sleep_millis(1);
    }
}

// User plus system CPU seconds of this whole process.
double process_cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

ServerOptions base_options() {
    ServerOptions opts;
    opts.grace = common::Duration::seconds(2);  // match EngineOptions::grace
    return opts;
}

// ---------------------------------------------------------------------------
// Server::create
// ---------------------------------------------------------------------------

TEST(ServeCreateTest, RejectsZeroShardsAndUnknownSchemes) {
    const detect::Registry registry;
    ServerOptions opts;
    opts.shards = 0;
    EXPECT_FALSE(Server::create(registry, opts).ok());

    opts = ServerOptions{};
    opts.schemes = {"no-such-scheme"};
    EXPECT_FALSE(Server::create(registry, opts).ok());

    opts = ServerOptions{};
    opts.schemes.clear();
    EXPECT_FALSE(Server::create(registry, opts).ok());

    EXPECT_TRUE(Server::create(registry, ServerOptions{}).ok());
}

// ---------------------------------------------------------------------------
// alert line byte layout
// ---------------------------------------------------------------------------

// Crafted alerts and their `arpsec.alert-stream.v1` lines, written out by
// hand. The live kAlert stream, the --alerts file and perfbench's reference
// all come from one writer, so none of them can catch a drift of that
// writer's layout; these literals can.
struct GoldenAlert {
    detect::Alert alert;
    const char* line;
};

std::vector<GoldenAlert> golden_alerts() {
    using detect::AlertKind;
    const auto make = [](std::int64_t at, std::string scheme, AlertKind kind,
                         wire::Ipv4Address ip, wire::MacAddress claimed,
                         wire::MacAddress previous, std::string detail) {
        detect::Alert a;
        a.at = common::SimTime{at};
        a.scheme = std::move(scheme);
        a.kind = kind;
        a.ip = ip;
        a.claimed_mac = claimed;
        a.previous_mac = previous;
        a.detail = std::move(detail);
        return a;
    };
    const wire::MacAddress zero = wire::MacAddress::zero();
    const wire::MacAddress bcast = wire::MacAddress::broadcast();
    const wire::MacAddress mac_a{0x02, 0x00, 0x00, 0x00, 0x00, 0x0a};
    const wire::MacAddress mac_b{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01};
    const wire::Ipv4Address any{0, 0, 0, 0};
    const wire::Ipv4Address all = wire::Ipv4Address::broadcast();
    const wire::Ipv4Address host{192, 168, 1, 7};
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    return {
        {make(0, "arpwatch", AlertKind::kSpoofSuspected, any, zero, bcast, ""),
         R"({"at_ns":0,"scheme":"arpwatch","kind":"spoof-suspected","ip":"0.0.0.0",)"
         R"("claimed_mac":"00:00:00:00:00:00","previous_mac":"ff:ff:ff:ff:ff:ff","detail":""})"},
        {make(-1, "q\"uote\\back", AlertKind::kIpMacChange, all, bcast, zero,
              "tab\there\nnl\rcr\bbs\fff\x01\x1f end"),
         R"({"at_ns":-1,"scheme":"q\"uote\\back","kind":"ip-mac-change",)"
         R"("ip":"255.255.255.255","claimed_mac":"ff:ff:ff:ff:ff:ff",)"
         R"("previous_mac":"00:00:00:00:00:00",)"
         R"("detail":"tab\there\nnl\rcr\bbs\fff\u0001\u001f end"})"},
        {make(kMin, "caf\xc3\xa9", AlertKind::kFlipFlop, host, mac_a, mac_b,
              "snow \xe2\x98\x83 del \x7f raw \xff"),
         "{\"at_ns\":-9223372036854775808,\"scheme\":\"caf\xc3\xa9\",\"kind\":\"flip-flop\","
         "\"ip\":\"192.168.1.7\",\"claimed_mac\":\"02:00:00:00:00:0a\","
         "\"previous_mac\":\"de:ad:be:ef:00:01\","
         "\"detail\":\"snow \xe2\x98\x83 del \x7f raw \xff\"}"},
        {make(kMax, "s-arp", AlertKind::kUnsignedArp, host, mac_b, zero, "unsigned reply"),
         R"({"at_ns":9223372036854775807,"scheme":"s-arp","kind":"unsigned-arp",)"
         R"("ip":"192.168.1.7","claimed_mac":"de:ad:be:ef:00:01",)"
         R"("previous_mac":"00:00:00:00:00:00","detail":"unsigned reply"})"},
        {make(1, "dai", AlertKind::kBindingViolation, host, mac_a, zero, "/\\/"),
         R"({"at_ns":1,"scheme":"dai","kind":"binding-violation","ip":"192.168.1.7",)"
         R"("claimed_mac":"02:00:00:00:00:0a","previous_mac":"00:00:00:00:00:00",)"
         R"("detail":"/\\/"})"},
        {make(1500000000, "", AlertKind::kInconsistentHeader, any, mac_a, mac_b, "\"\""),
         R"({"at_ns":1500000000,"scheme":"","kind":"inconsistent-header","ip":"0.0.0.0",)"
         R"("claimed_mac":"02:00:00:00:00:0a","previous_mac":"de:ad:be:ef:00:01",)"
         R"("detail":"\"\""})"},
        {make(42, "snort-arpspoof", AlertKind::kUnicastRequest, host, mac_a, bcast, "x"),
         R"({"at_ns":42,"scheme":"snort-arpspoof","kind":"unicast-request",)"
         R"("ip":"192.168.1.7","claimed_mac":"02:00:00:00:00:0a",)"
         R"("previous_mac":"ff:ff:ff:ff:ff:ff","detail":"x"})"},
        {make(-42, "port-security", AlertKind::kPortSecurity, all, zero, zero, "{}[],:"),
         R"({"at_ns":-42,"scheme":"port-security","kind":"port-security",)"
         R"("ip":"255.255.255.255","claimed_mac":"00:00:00:00:00:00",)"
         R"("previous_mac":"00:00:00:00:00:00","detail":"{}[],:"})"},
        {make(7, "lease-monitor", AlertKind::kRogueDhcp, any, bcast, bcast, "offer"),
         R"({"at_ns":7,"scheme":"lease-monitor","kind":"rogue-dhcp","ip":"0.0.0.0",)"
         R"("claimed_mac":"ff:ff:ff:ff:ff:ff","previous_mac":"ff:ff:ff:ff:ff:ff",)"
         R"("detail":"offer"})"},
        {make(1000000000000, "antidote", AlertKind::kRateAnomaly, host, mac_b, mac_a,
              std::string("nul\0byte", 8)),
         R"({"at_ns":1000000000000,"scheme":"antidote","kind":"rate-anomaly",)"
         R"("ip":"192.168.1.7","claimed_mac":"de:ad:be:ef:00:01",)"
         R"("previous_mac":"02:00:00:00:00:0a","detail":"nul\u0000byte"})"},
    };
}

TEST(AlertStreamGoldenTest, LinesMatchCommittedLayout) {
    EXPECT_EQ(alert_stream_header(), R"({"schema":"arpsec.alert-stream.v1"})");
    for (const GoldenAlert& g : golden_alerts()) {
        EXPECT_EQ(alert_line(g.alert), g.line) << g.alert.scheme;
    }
}

TEST(AlertStreamGoldenTest, LiveRecordsFrameTheSameLines) {
    // The drain thread's in-place kAlert encoder writes the committed line
    // behind the record framing, several records to one buffer.
    wire::Bytes records;
    wire::Bytes expected;
    for (const GoldenAlert& g : golden_alerts()) {
        append_alert_record(records, g.alert);
        wire::encode_alert(expected, g.line);
    }
    EXPECT_EQ(records, expected);

    wire::StreamDecoder decoder;
    decoder.feed(records);
    wire::StreamRecord rec;
    for (const GoldenAlert& g : golden_alerts()) {
        ASSERT_EQ(decoder.poll(rec), wire::StreamDecoder::Status::kRecord);
        EXPECT_EQ(rec.type, wire::StreamRecordType::kAlert);
        EXPECT_EQ(rec.text, g.line);
    }
    EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(AlertStreamGoldenTest, AlertFileIsHeaderThenCanonicalLines) {
    const std::vector<GoldenAlert> golden = golden_alerts();
    std::vector<detect::Alert> alerts;
    for (const GoldenAlert& g : golden) alerts.push_back(g.alert);
    const std::string path = ::testing::TempDir() + "golden_alerts.jsonl";
    ASSERT_TRUE(write_alert_file(path, alerts));

    // Canonical order is by at_ns first, and every crafted at_ns differs.
    std::vector<const GoldenAlert*> by_time;
    for (const GoldenAlert& g : golden) by_time.push_back(&g);
    std::sort(by_time.begin(), by_time.end(), [](const GoldenAlert* a, const GoldenAlert* b) {
        return a->alert.at < b->alert.at;
    });
    std::string expected = std::string{R"({"schema":"arpsec.alert-stream.v1"})"} + "\n";
    for (const GoldenAlert* g : by_time) expected += std::string{g->line} + "\n";

    std::ifstream in{path, std::ios::binary};
    const std::string actual{std::istreambuf_iterator<char>{in},
                             std::istreambuf_iterator<char>{}};
    EXPECT_EQ(actual, expected);
    std::remove(path.c_str());
}

TEST(AlertStreamGoldenTest, CanonicalOrderBreaksTiesLikeTheLineText) {
    // sort_canonical compares MACs as octets and strings as bytes; that must
    // order alerts exactly as comparing the MACs' hex text and the strings
    // as unsigned bytes would. Few distinct values, so most keys tie early.
    common::Rng rng(3);
    const std::vector<std::string> texts = {"a", "b", "ab", "caf\xc3\xa9", "Z", ""};
    const std::vector<wire::MacAddress> macs = {
        wire::MacAddress{0x0a, 0, 0, 0, 0, 1}, wire::MacAddress{0xa0, 0, 0, 0, 0, 1},
        wire::MacAddress{0x0a, 0, 0, 0, 0, 0xff}, wire::MacAddress::zero(),
        wire::MacAddress::broadcast()};
    std::vector<detect::Alert> alerts(400);
    for (detect::Alert& a : alerts) {
        a.at = common::SimTime{static_cast<std::int64_t>(rng.next_below(2))};
        a.scheme = texts[rng.next_below(texts.size())];
        a.kind = static_cast<detect::AlertKind>(rng.next_below(3));
        a.ip = wire::Ipv4Address{static_cast<std::uint32_t>(rng.next_below(2))};
        a.claimed_mac = macs[rng.next_below(macs.size())];
        a.previous_mac = macs[rng.next_below(macs.size())];
        a.detail = texts[rng.next_below(texts.size())];
    }
    std::vector<detect::Alert> by_text = alerts;
    std::sort(by_text.begin(), by_text.end(), [](const detect::Alert& a, const detect::Alert& b) {
        return std::make_tuple(a.at.nanos(), a.scheme, static_cast<int>(a.kind), a.ip.value(),
                               a.claimed_mac.to_string(), a.previous_mac.to_string(),
                               a.detail) <
               std::make_tuple(b.at.nanos(), b.scheme, static_cast<int>(b.kind), b.ip.value(),
                               b.claimed_mac.to_string(), b.previous_mac.to_string(),
                               b.detail);
    });
    sort_canonical(alerts);
    std::vector<std::string> got;
    std::vector<std::string> want;
    for (const detect::Alert& a : alerts) got.push_back(alert_line(a));
    for (const detect::Alert& a : by_text) want.push_back(alert_line(a));
    EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// shard routing
// ---------------------------------------------------------------------------

TEST(ServeShardTest, RoutingIsStableAndBounded) {
    const auto trace = small_trace();
    const auto views = replay::Engine::make_views(trace);
    for (const auto& view : views) {
        EXPECT_EQ(shard_of(view, 1), 0u);
        const std::size_t first = shard_of(view, 4);
        EXPECT_LT(first, 4u);
        EXPECT_EQ(shard_of(view, 4), first);  // same frame, same shard
    }
}

TEST(ServeShardTest, SpreadsAcrossShards) {
    // A realistic LAN trace must not collapse onto a single shard, or the
    // sharded daemon degenerates to one worker.
    const auto trace = small_trace();
    const auto views = replay::Engine::make_views(trace);
    std::vector<std::size_t> hits(4, 0);
    for (const auto& view : views) ++hits[shard_of(view, 4)];
    std::size_t used = 0;
    for (std::size_t h : hits) used += h > 0 ? 1 : 0;
    EXPECT_GE(used, 2u);
}

// ---------------------------------------------------------------------------
// pipe-transport equivalence with offline replay
// ---------------------------------------------------------------------------

TEST(ServeEquivalenceTest, PipeStreamMatchesOfflineReplay) {
    const auto trace = small_trace();
    const detect::Registry registry;
    auto server = Server::create(registry, base_options());
    ASSERT_TRUE(server.ok()) << server.error();

    const auto outcome =
        serve_script(*server.value(), encode_stream(trace, 0, trace.frames.size()));
    ASSERT_TRUE(outcome.ok()) << outcome.error();
    EXPECT_TRUE(outcome.value().ended_by_end_record);
    EXPECT_TRUE(outcome.value().transport_error.empty());

    const auto served = canonical_lines(outcome.value().alerts);
    const auto offline =
        canonical_lines(offline_alerts(trace, common::Duration::seconds(2)));
    ASSERT_FALSE(offline.empty()) << "trace produced no alerts; test is vacuous";
    EXPECT_EQ(served, offline);

    const telemetry::Json& summary = outcome.value().summary;
    EXPECT_EQ(summary.find("schema")->as_string(), kSummarySchema);
    EXPECT_EQ(static_cast<std::size_t>(summary.find("frames")->as_int()),
              trace.frames.size());
    EXPECT_EQ(summary.find("dropped_frames")->as_int(), 0);
}

TEST(ServeEquivalenceTest, AlertRecordsStreamBackToClient) {
    // With stream_alerts on, every drained alert also goes out as a kAlert
    // record; the client's decode of those lines must match the outcome.
    const auto trace = small_trace();
    const detect::Registry registry;
    auto server = Server::create(registry, base_options());
    ASSERT_TRUE(server.ok()) << server.error();

    PipePair pipe = make_pipe(kRoomyPipe);
    const wire::Bytes script = encode_stream(trace, 0, trace.frames.size());
    std::vector<std::string> streamed;
    std::optional<common::Expected<ServeOutcome>> served;
    const std::string peer = exp::run_pair(
        [&] {
            (void)pipe.client->write_all(
                std::span<const std::uint8_t>{script.data(), script.size()});
            wire::StreamDecoder decoder;
            std::vector<std::uint8_t> rbuf(1 << 14);
            wire::StreamRecord rec;
            bool got_summary = false;
            while (!got_summary) {
                const auto io =
                    pipe.client->read_some(std::span<std::uint8_t>{rbuf}, 10000);
                if (io.kind != IoResult::Kind::kData) break;
                decoder.feed(std::span<const std::uint8_t>{rbuf.data(), io.bytes});
                for (;;) {
                    const auto st = decoder.poll(rec);
                    if (st != wire::StreamDecoder::Status::kRecord) break;
                    if (rec.type == wire::StreamRecordType::kAlert) {
                        streamed.push_back(rec.text);
                    }
                    if (rec.type == wire::StreamRecordType::kSummary) got_summary = true;
                }
            }
            EXPECT_TRUE(got_summary);
        },
        [&] { served = server.value()->serve(*pipe.server); });
    EXPECT_EQ(peer, "");
    const auto& outcome = *served;
    ASSERT_TRUE(outcome.ok()) << outcome.error();

    auto expected = canonical_lines(outcome.value().alerts);
    std::sort(streamed.begin(), streamed.end());
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(streamed, expected);
}

// ---------------------------------------------------------------------------
// sharded intake: conservation + backpressure
// ---------------------------------------------------------------------------

TEST(ServeShardedTest, EveryAdmittedFrameReachesExactlyOneShard) {
    const auto trace = small_trace();
    const detect::Registry registry;
    ServerOptions opts = base_options();
    opts.shards = 3;
    opts.ring_capacity = 64;  // small enough to exercise backpressure
    auto server = Server::create(registry, opts);
    ASSERT_TRUE(server.ok()) << server.error();

    const auto outcome =
        serve_script(*server.value(), encode_stream(trace, 0, trace.frames.size()));
    ASSERT_TRUE(outcome.ok()) << outcome.error();

    const telemetry::Json& summary = outcome.value().summary;
    EXPECT_EQ(static_cast<std::size_t>(summary.find("frames")->as_int()),
              trace.frames.size());
    EXPECT_EQ(summary.find("dropped_frames")->as_int(), 0);
    const auto* per_shard = summary.find("per_shard");
    ASSERT_NE(per_shard, nullptr);
    ASSERT_EQ(per_shard->size(), 3u);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < per_shard->size(); ++i) {
        total += static_cast<std::uint64_t>(per_shard->at(i).find("frames")->as_int());
    }
    EXPECT_EQ(total, trace.frames.size());
}

TEST(ServeShardedTest, DropModeConservesAdmittedPlusDropped) {
    const auto trace = small_trace();
    const detect::Registry registry;
    ServerOptions opts = base_options();
    opts.shards = 2;
    opts.ring_capacity = 8;
    opts.drop_when_full = true;
    auto server = Server::create(registry, opts);
    ASSERT_TRUE(server.ok()) << server.error();

    const auto outcome =
        serve_script(*server.value(), encode_stream(trace, 0, trace.frames.size()));
    ASSERT_TRUE(outcome.ok()) << outcome.error();

    // Drops are load-dependent, but the accounting identity is not:
    // processed + dropped == admitted, always.
    const telemetry::Json& summary = outcome.value().summary;
    const auto processed = static_cast<std::uint64_t>(summary.find("frames")->as_int());
    const auto dropped =
        static_cast<std::uint64_t>(summary.find("dropped_frames")->as_int());
    EXPECT_EQ(processed + dropped, trace.frames.size());
}

// ---------------------------------------------------------------------------
// protocol errors and malformed records
// ---------------------------------------------------------------------------

TEST(ServeProtocolTest, FrameBeforeHelloIsCountedAndIgnored) {
    const auto trace = small_trace();
    const detect::Registry registry;
    auto server = Server::create(registry, base_options());
    ASSERT_TRUE(server.ok()) << server.error();

    // One frame record ahead of the handshake, then a legal stream.
    wire::Bytes script;
    wire::encode_frame(script, 0,
                       std::span<const std::uint8_t>{trace.frames[0].bytes.data(),
                                                     trace.frames[0].bytes.size()});
    const wire::Bytes rest = encode_stream(trace, 0, 10);
    script.insert(script.end(), rest.begin(), rest.end());

    const auto outcome = serve_script(*server.value(), script);
    ASSERT_TRUE(outcome.ok()) << outcome.error();
    EXPECT_EQ(outcome.value().summary.find("frames")->as_int(), 10);
    EXPECT_EQ(server.value()->metrics().counter("serve.intake.protocol_errors").value(),
              1u);
}

TEST(ServeProtocolTest, DuplicateHelloIsCountedAndIgnored) {
    const auto trace = small_trace();
    const detect::Registry registry;
    auto server = Server::create(registry, base_options());
    ASSERT_TRUE(server.ok()) << server.error();

    wire::Bytes script;
    wire::StreamHello hello;
    hello.seed = trace.seed;
    wire::encode_hello(script, hello);
    const wire::Bytes rest = encode_stream(trace, 0, 10);  // second HELLO inside
    script.insert(script.end(), rest.begin(), rest.end());

    const auto outcome = serve_script(*server.value(), script);
    ASSERT_TRUE(outcome.ok()) << outcome.error();
    EXPECT_EQ(outcome.value().summary.find("frames")->as_int(), 10);
    EXPECT_EQ(server.value()->metrics().counter("serve.intake.protocol_errors").value(),
              1u);
}

TEST(ServeProtocolTest, UnsupportedHelloVersionIsRejectedBeforeAnyWork) {
    // The codec refuses a version != 1 HELLO (typed bad-record), so the
    // handshake never completes; the END that follows still terminates the
    // stream (as a protocol error) instead of hanging the daemon.
    const detect::Registry registry;
    auto server = Server::create(registry, base_options());
    ASSERT_TRUE(server.ok()) << server.error();

    wire::Bytes script;
    wire::StreamHello hello;
    hello.version = 2;
    wire::encode_hello(script, hello);
    wire::encode_end(script);

    const auto outcome = serve_script(*server.value(), script);
    ASSERT_TRUE(outcome.ok()) << outcome.error();
    EXPECT_FALSE(outcome.value().ended_by_end_record);
    EXPECT_EQ(outcome.value().summary.find("frames")->as_int(), 0);
    EXPECT_EQ(server.value()->metrics().counter("serve.intake.bad_records").value(), 1u);
    EXPECT_EQ(server.value()->metrics().counter("serve.intake.protocol_errors").value(),
              1u);
}

TEST(ServeProtocolTest, BadRecordBodyIsSkippedNotFatal) {
    const auto trace = small_trace();
    const detect::Registry registry;
    auto server = Server::create(registry, base_options());
    ASSERT_TRUE(server.ok()) << server.error();

    wire::Bytes script = encode_stream(trace, 0, 10, true, false);
    // A well-framed record with an unknown type byte: skipped, not fatal.
    script.insert(script.end(), {0x00, 0x00, 0x00, 0x01, 0x7F});
    const wire::Bytes tail = encode_stream(trace, 10, 20, false, true);
    script.insert(script.end(), tail.begin(), tail.end());

    const auto outcome = serve_script(*server.value(), script);
    ASSERT_TRUE(outcome.ok()) << outcome.error();
    EXPECT_TRUE(outcome.value().transport_error.empty());
    EXPECT_EQ(outcome.value().summary.find("frames")->as_int(), 20);
    EXPECT_EQ(server.value()->metrics().counter("serve.intake.bad_records").value(), 1u);
}

TEST(ServeProtocolTest, CorruptLengthPrefixAbandonsStreamButKeepsWork) {
    const auto trace = small_trace();
    const detect::Registry registry;
    auto server = Server::create(registry, base_options());
    ASSERT_TRUE(server.ok()) << server.error();

    wire::Bytes script = encode_stream(trace, 0, 10, true, false);
    // Zero-length prefix: framing is unrecoverable from here.
    script.insert(script.end(), {0x00, 0x00, 0x00, 0x00});

    const auto outcome = serve_script(*server.value(), script, /*close_after=*/true);
    ASSERT_TRUE(outcome.ok()) << outcome.error();
    EXPECT_FALSE(outcome.value().transport_error.empty());
    // Everything admitted before the corruption was still processed.
    EXPECT_EQ(outcome.value().summary.find("frames")->as_int(), 10);
}

// A client whose bytes reach the daemon in fixed chunks, one per read, then
// EOF; whatever the daemon writes back is discarded. Reads return at once,
// so the intake runs ahead of the shards still reading earlier chunks.
class ChunkedConnection : public Connection {
public:
    explicit ChunkedConnection(std::vector<wire::Bytes> chunks) : chunks_(std::move(chunks)) {}

    IoResult read_some(std::span<std::uint8_t> buf, int /*timeout_ms*/) override {
        IoResult io;
        if (next_ == chunks_.size()) return io;  // kEof
        const wire::Bytes& chunk = chunks_[next_];
        io.kind = IoResult::Kind::kData;
        io.bytes = std::min(buf.size(), chunk.size() - offset_);
        std::copy_n(chunk.begin() + static_cast<std::ptrdiff_t>(offset_), io.bytes, buf.begin());
        offset_ += io.bytes;
        if (offset_ == chunk.size()) {
            ++next_;
            offset_ = 0;
        }
        return io;
    }
    bool write_all(std::span<const std::uint8_t> /*data*/) override { return true; }
    void close() override {}
    std::string peer() const override { return "chunks"; }

private:
    std::vector<wire::Bytes> chunks_;
    std::size_t next_ = 0;
    std::size_t offset_ = 0;
};

// Splits `script` at `cuts` (ascending offsets).
std::vector<wire::Bytes> split_at(const wire::Bytes& script, const std::vector<std::size_t>& cuts) {
    std::vector<wire::Bytes> chunks;
    std::size_t pos = 0;
    for (std::size_t cut : cuts) {
        chunks.emplace_back(script.begin() + static_cast<std::ptrdiff_t>(pos),
                            script.begin() + static_cast<std::ptrdiff_t>(cut));
        pos = cut;
    }
    chunks.emplace_back(script.begin() + static_cast<std::ptrdiff_t>(pos), script.end());
    return chunks;
}

TEST(ServeIntakeTest, FrameSplitAcrossTwoReadsMatchesOfflineReplay) {
    // The intake captures a read's whole frames from a slab over that read's
    // buffer, while the record cut at the read's end is carried into the
    // next buffer and decoded whole there. Every cut inside one frame
    // record must give the offline answer. (The decoder tests in
    // wire_test check that a shared buffer's bytes never change.)
    const auto trace = small_trace();
    const std::size_t split_frame = trace.frames.size() / 2;
    const wire::Bytes script = encode_stream(trace, 0, trace.frames.size());
    const std::size_t record_begin =
        encode_stream(trace, 0, split_frame, true, false).size();
    const std::size_t record_end =
        encode_stream(trace, 0, split_frame + 1, true, false).size();
    const auto offline = canonical_lines(offline_alerts(trace, base_options().grace));
    ASSERT_FALSE(offline.empty()) << "trace produced no alerts; test is vacuous";

    const detect::Registry registry;
    ServerOptions opts = base_options();
    opts.shards = 2;
    for (std::size_t cut = record_begin + 1; cut < record_end; ++cut) {
        auto server = Server::create(registry, opts);
        ASSERT_TRUE(server.ok()) << server.error();
        ChunkedConnection conn{split_at(script, {cut})};
        const auto outcome = server.value()->serve(conn);
        ASSERT_TRUE(outcome.ok()) << outcome.error();
        EXPECT_TRUE(outcome.value().ended_by_end_record) << "cut " << cut;
        EXPECT_EQ(static_cast<std::size_t>(outcome.value().summary.find("frames")->as_int()),
                  trace.frames.size())
            << "cut " << cut;
        EXPECT_EQ(canonical_lines(outcome.value().alerts), offline) << "cut " << cut;
    }
}

TEST(ServeIntakeTest, SmallReadsMatchOfflineReplay) {
    // Reads far smaller than a record: most frames span two or more reads,
    // and every read that completes a frame starts a new buffer.
    const auto trace = small_trace();
    const wire::Bytes script = encode_stream(trace, 0, trace.frames.size());
    std::vector<std::size_t> cuts;
    for (std::size_t at = 29; at < script.size(); at += 29) cuts.push_back(at);

    const detect::Registry registry;
    ServerOptions opts = base_options();
    opts.shards = 3;
    auto server = Server::create(registry, opts);
    ASSERT_TRUE(server.ok()) << server.error();
    ChunkedConnection conn{split_at(script, cuts)};
    const auto outcome = server.value()->serve(conn);
    ASSERT_TRUE(outcome.ok()) << outcome.error();
    EXPECT_EQ(static_cast<std::size_t>(outcome.value().summary.find("frames")->as_int()),
              trace.frames.size());
    EXPECT_EQ(canonical_lines(outcome.value().alerts),
              canonical_lines(offline_alerts(trace, base_options().grace)));
}

TEST(ServeProtocolTest, ClientGoneMidRecordKeepsWholeRecordsAndFreezes) {
    // A client that hangs up halfway through a frame record: the whole
    // records before it are processed, the cut tail is neither a frame nor
    // a bad record, and EOF without END freezes state (no grace window).
    const auto trace = small_trace();
    const std::size_t n = trace.frames.size() - 1;
    const detect::Registry registry;
    ServerOptions opts = base_options();
    opts.shards = 2;
    // A daemon that kept waiting for the rest of the record would idle out
    // here instead of hanging the test.
    opts.read_timeout_ms = 50;
    opts.idle_timeout_ms = 30000;
    auto server = Server::create(registry, opts);
    ASSERT_TRUE(server.ok()) << server.error();

    wire::Bytes script = encode_stream(trace, 0, n, true, /*with_end=*/false);
    const wire::Bytes last = encode_stream(trace, n, n + 1, false, false);
    script.insert(script.end(), last.begin(),
                  last.begin() + static_cast<std::ptrdiff_t>(last.size() / 2));

    const common::Stopwatch watch;
    const auto outcome = serve_script(*server.value(), script, /*close_after=*/true);
    EXPECT_LT(watch.elapsed_seconds(), 20.0);
    ASSERT_TRUE(outcome.ok()) << outcome.error();
    EXPECT_FALSE(outcome.value().ended_by_end_record);
    EXPECT_FALSE(outcome.value().idled_out);
    EXPECT_FALSE(outcome.value().stopped);
    EXPECT_TRUE(outcome.value().transport_error.empty()) << outcome.value().transport_error;

    const telemetry::Json& summary = outcome.value().summary;
    EXPECT_EQ(static_cast<std::size_t>(summary.find("frames")->as_int()), n);
    EXPECT_EQ(summary.find("dropped_frames")->as_int(), 0);
    std::uint64_t per_shard_total = 0;
    const auto* per_shard = summary.find("per_shard");
    ASSERT_NE(per_shard, nullptr);
    for (std::size_t i = 0; i < per_shard->size(); ++i) {
        per_shard_total +=
            static_cast<std::uint64_t>(per_shard->at(i).find("frames")->as_int());
    }
    EXPECT_EQ(per_shard_total, n);
    EXPECT_EQ(server.value()->metrics().counter("serve.intake.bad_records").value(), 0u);

    replay::LabeledTrace whole_records = trace;
    whole_records.frames.resize(n);
    const auto offline =
        canonical_lines(offline_alerts(whole_records, common::Duration::zero()));
    ASSERT_FALSE(offline.empty()) << "trace produced no alerts; test is vacuous";
    EXPECT_EQ(canonical_lines(outcome.value().alerts), offline);
}

// ---------------------------------------------------------------------------
// idle timeout and stop
// ---------------------------------------------------------------------------

TEST(ServeLifecycleTest, IdleTimeoutAbandonsAQuietStream) {
    const detect::Registry registry;
    ServerOptions opts = base_options();
    opts.read_timeout_ms = 5;
    opts.idle_timeout_ms = 20;
    auto server = Server::create(registry, opts);
    ASSERT_TRUE(server.ok()) << server.error();

    PipePair pipe = make_pipe(kRoomyPipe);
    wire::Bytes script;
    wire::encode_hello(script, wire::StreamHello{});
    ASSERT_TRUE(pipe.client->write_all(
        std::span<const std::uint8_t>{script.data(), script.size()}));
    // ...and then silence: the server must give up on its own.
    const auto outcome = server.value()->serve(*pipe.server);
    ASSERT_TRUE(outcome.ok()) << outcome.error();
    EXPECT_TRUE(outcome.value().idled_out);
    EXPECT_FALSE(outcome.value().ended_by_end_record);
}

TEST(ServeLifecycleTest, RequestStopDrainsAdmittedFramesAndFreezes) {
    const auto trace = small_trace();
    const detect::Registry registry;
    ServerOptions opts = base_options();
    opts.read_timeout_ms = 5;
    auto server = Server::create(registry, opts);
    ASSERT_TRUE(server.ok()) << server.error();

    PipePair pipe = make_pipe(kRoomyPipe);
    const wire::Bytes script =
        encode_stream(trace, 0, trace.frames.size(), true, /*with_end=*/false);
    std::optional<common::Expected<ServeOutcome>> served;
    const std::string peer = exp::run_pair(
        [&] {
            (void)pipe.client->write_all(
                std::span<const std::uint8_t>{script.data(), script.size()});
            // Leave the stream open; once every written frame is admitted,
            // ask for shutdown instead of sending END. The deadline is for
            // slow (sanitizer) builds; admission normally takes microseconds.
            wait_admitted(*server.value(), trace.frames.size());
            server.value()->request_stop();
        },
        [&] { served = server.value()->serve(*pipe.server); });
    EXPECT_EQ(peer, "");
    const auto& outcome = *served;
    ASSERT_TRUE(outcome.ok()) << outcome.error();
    EXPECT_TRUE(outcome.value().stopped);
    EXPECT_FALSE(outcome.value().ended_by_end_record);
    // Everything written before the stop was admitted and processed.
    EXPECT_EQ(static_cast<std::size_t>(
                  outcome.value().summary.find("frames")->as_int()),
              trace.frames.size());
}

TEST(ServeLifecycleTest, IdleConnectionUsesNoCpu) {
    // An open but quiet client: every daemon thread must sleep. The intake
    // wakes once per read timeout; shards and the drain thread block until
    // there is work. Spinning workers would burn ~1 CPU-second here.
    const auto trace = small_trace();
    const detect::Registry registry;
    ServerOptions opts = base_options();
    opts.shards = 2;
    opts.read_timeout_ms = 100;
    auto server = Server::create(registry, opts);
    ASSERT_TRUE(server.ok()) << server.error();

    PipePair pipe = make_pipe(kRoomyPipe);
    constexpr std::size_t kFrames = 20;
    const wire::Bytes script = encode_stream(trace, 0, kFrames, true, /*with_end=*/false);
    double idle_cpu_s = -1.0;
    std::optional<common::Expected<ServeOutcome>> served;
    const std::string peer = exp::run_pair(
        [&] {
            (void)pipe.client->write_all(
                std::span<const std::uint8_t>{script.data(), script.size()});
            wait_admitted(*server.value(), kFrames);
            exp::sleep_millis(50);  // the shards finish the frames and go idle
            const double before = process_cpu_seconds();
            exp::sleep_millis(500);
            idle_cpu_s = process_cpu_seconds() - before;
            server.value()->request_stop();
        },
        [&] { served = server.value()->serve(*pipe.server); });
    EXPECT_EQ(peer, "");
    const auto& outcome = *served;
    ASSERT_TRUE(outcome.ok()) << outcome.error();
    EXPECT_TRUE(outcome.value().stopped);
    EXPECT_EQ(static_cast<std::size_t>(outcome.value().summary.find("frames")->as_int()),
              kFrames);
    EXPECT_GE(idle_cpu_s, 0.0);
    EXPECT_LT(idle_cpu_s, 0.050) << "daemon burned CPU while the connection was idle";
}

// ---------------------------------------------------------------------------
// snapshot / restore
// ---------------------------------------------------------------------------

TEST(ServeSnapshotTest, SnapshotRequiresACompletedServe) {
    const detect::Registry registry;
    auto server = Server::create(registry, base_options());
    ASSERT_TRUE(server.ok()) << server.error();
    EXPECT_FALSE(server.value()->write_snapshot(::testing::TempDir() + "/nope.json").ok());
}

TEST(ServeSnapshotTest, RestoreResumesExactlyWhereTheStreamFroze) {
    const auto trace = small_trace();
    const std::size_t half = trace.frames.size() / 2;
    const std::string snap_path = ::testing::TempDir() + "/arpsec_serve_snap.json";
    const detect::Registry registry;

    // Leg 1: first half, no END, client hangs up — state freezes with no
    // grace window, exactly what the snapshot must capture.
    auto first = Server::create(registry, base_options());
    ASSERT_TRUE(first.ok()) << first.error();
    const auto leg1 = serve_script(*first.value(),
                                   encode_stream(trace, 0, half, true, false),
                                   /*close_after=*/true);
    ASSERT_TRUE(leg1.ok()) << leg1.error();
    EXPECT_FALSE(leg1.value().ended_by_end_record);
    const auto snap = first.value()->write_snapshot(snap_path);
    ASSERT_TRUE(snap.ok()) << snap.error();

    // Leg 2: a fresh server restores the snapshot and serves the rest.
    ServerOptions opts = base_options();
    opts.restore_path = snap_path;
    auto second = Server::create(registry, opts);
    ASSERT_TRUE(second.ok()) << second.error();
    const auto leg2 = serve_script(
        *second.value(), encode_stream(trace, half, trace.frames.size()));
    ASSERT_TRUE(leg2.ok()) << leg2.error();
    EXPECT_TRUE(leg2.value().ended_by_end_record);

    // The union of both legs' alerts is the offline single-run alert set.
    std::vector<detect::Alert> combined = leg1.value().alerts;
    combined.insert(combined.end(), leg2.value().alerts.begin(),
                    leg2.value().alerts.end());
    const auto resumed = canonical_lines(std::move(combined));
    const auto offline =
        canonical_lines(offline_alerts(trace, common::Duration::seconds(2)));
    ASSERT_FALSE(offline.empty()) << "trace produced no alerts; test is vacuous";
    EXPECT_EQ(resumed, offline);
}

TEST(ServeSnapshotTest, RestoreRejectsSeedMismatch) {
    const auto trace = small_trace();
    const std::string snap_path = ::testing::TempDir() + "/arpsec_serve_seedmm.json";
    const detect::Registry registry;

    auto first = Server::create(registry, base_options());
    ASSERT_TRUE(first.ok()) << first.error();
    const auto leg1 = serve_script(*first.value(), encode_stream(trace, 0, 50, true, false),
                                   /*close_after=*/true);
    ASSERT_TRUE(leg1.ok()) << leg1.error();
    ASSERT_TRUE(first.value()->write_snapshot(snap_path).ok());

    ServerOptions opts = base_options();
    opts.restore_path = snap_path;
    auto second = Server::create(registry, opts);
    ASSERT_TRUE(second.ok()) << second.error();

    wire::Bytes script;
    wire::StreamHello hello;
    hello.seed = trace.seed + 17;  // not the snapshot's seed
    wire::encode_hello(script, hello);
    wire::encode_end(script);
    EXPECT_FALSE(serve_script(*second.value(), script).ok());
}

TEST(ServeSnapshotTest, RestoreRejectsMismatchedTopology) {
    const auto trace = small_trace();
    const std::string snap_path = ::testing::TempDir() + "/arpsec_serve_topomm.json";
    const detect::Registry registry;

    auto first = Server::create(registry, base_options());
    ASSERT_TRUE(first.ok()) << first.error();
    const auto leg1 = serve_script(*first.value(), encode_stream(trace, 0, 50, true, false),
                                   /*close_after=*/true);
    ASSERT_TRUE(leg1.ok()) << leg1.error();
    ASSERT_TRUE(first.value()->write_snapshot(snap_path).ok());

    ServerOptions opts = base_options();
    opts.shards = 2;  // snapshot was taken with 1
    opts.restore_path = snap_path;
    auto second = Server::create(registry, opts);
    ASSERT_TRUE(second.ok()) << second.error();
    EXPECT_FALSE(serve_script(*second.value(), encode_stream(trace, 50, 60)).ok());
}

}  // namespace
}  // namespace arpsec::serve
