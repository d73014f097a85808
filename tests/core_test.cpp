#include <gtest/gtest.h>

#include "core/matrix.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "core/taxonomy.hpp"
#include "detect/registry.hpp"

namespace arpsec::core {
namespace {

using attack::PoisonVector;
using common::Duration;

// ---------------------------------------------------------------------------
// Taxonomy micro-scenarios (the ground truth behind table T1)
// ---------------------------------------------------------------------------

TaxonomyOutcome poison(const arp::CachePolicy& policy, PoisonVector vector,
                       InitialEntry initial) {
    return evaluate_poison_case(TaxonomyCase{policy, vector, initial, 1});
}

TEST(TaxonomyTest, WindowsFallsToUnsolicitedReplyCreation) {
    EXPECT_TRUE(poison(arp::CachePolicy::windows_xp(), PoisonVector::kUnsolicitedReply,
                       InitialEntry::kAbsent)
                    .poisoned);
}

TEST(TaxonomyTest, LinuxResistsUnsolicitedCreationButNotUpdate) {
    EXPECT_FALSE(poison(arp::CachePolicy::linux26(), PoisonVector::kUnsolicitedReply,
                        InitialEntry::kAbsent)
                     .poisoned);
    EXPECT_TRUE(poison(arp::CachePolicy::linux26(), PoisonVector::kUnsolicitedReply,
                       InitialEntry::kFresh)
                    .poisoned);
}

TEST(TaxonomyTest, FreeBsdResistsUnsolicitedRepliesEntirely) {
    EXPECT_FALSE(poison(arp::CachePolicy::freebsd5(), PoisonVector::kUnsolicitedReply,
                        InitialEntry::kAbsent)
                     .poisoned);
    EXPECT_FALSE(poison(arp::CachePolicy::freebsd5(), PoisonVector::kUnsolicitedReply,
                        InitialEntry::kFresh)
                     .poisoned);
    // ...but the forged-request vector still succeeds (learns from requests).
    EXPECT_TRUE(poison(arp::CachePolicy::freebsd5(), PoisonVector::kForgedRequest,
                       InitialEntry::kFresh)
                    .poisoned);
}

TEST(TaxonomyTest, SolarisRefreshGuardProtectsFreshEntriesOnly) {
    EXPECT_FALSE(poison(arp::CachePolicy::solaris9(), PoisonVector::kUnsolicitedReply,
                        InitialEntry::kFresh)
                     .poisoned);
    EXPECT_TRUE(poison(arp::CachePolicy::solaris9(), PoisonVector::kUnsolicitedReply,
                       InitialEntry::kAged)
                    .poisoned);
}

TEST(TaxonomyTest, StrictPolicyOnlyLosesTheReplyRace) {
    const auto strict = arp::CachePolicy::strict();
    for (auto vector : {PoisonVector::kUnsolicitedReply, PoisonVector::kForgedRequest,
                        PoisonVector::kGratuitousRequest, PoisonVector::kGratuitousReply}) {
        for (auto initial : {InitialEntry::kAbsent, InitialEntry::kFresh}) {
            EXPECT_FALSE(poison(strict, vector, initial).poisoned)
                << attack::to_string(vector) << "/" << to_string(initial);
        }
    }
    // The race is inherent to being stateless about who answers first.
    EXPECT_TRUE(poison(strict, PoisonVector::kReplyRace, InitialEntry::kAbsent).poisoned);
}

TEST(TaxonomyTest, GratuitousVectorsTrackPolicyFlags) {
    EXPECT_TRUE(poison(arp::CachePolicy::windows_xp(), PoisonVector::kGratuitousReply,
                       InitialEntry::kAbsent)
                    .poisoned);
    EXPECT_FALSE(poison(arp::CachePolicy::freebsd5(), PoisonVector::kGratuitousReply,
                        InitialEntry::kFresh)
                     .poisoned);
    EXPECT_TRUE(poison(arp::CachePolicy::linux26(), PoisonVector::kGratuitousRequest,
                       InitialEntry::kFresh)
                    .poisoned);
}

TEST(TaxonomyTest, FullSweepHasExpectedShape) {
    const auto cases = full_taxonomy_sweep();
    EXPECT_EQ(cases.size(), 5u * 5u * 3u);
    // Sanity over the whole sweep: permissive policies are strictly more
    // susceptible than the strict one.
    std::size_t strict_hits = 0;
    std::size_t windows_hits = 0;
    for (const auto& c : cases) {
        const bool hit = evaluate_poison_case(c).poisoned;
        if (c.policy.name == "strict" && hit) ++strict_hits;
        if (c.policy.name == "windows-xp" && hit) ++windows_hits;
    }
    EXPECT_GT(windows_hits, strict_hits);
    EXPECT_LE(strict_hits, 3u);  // only the race rows
}

// ---------------------------------------------------------------------------
// ScenarioRunner
// ---------------------------------------------------------------------------

ScenarioConfig small_config() {
    ScenarioConfig cfg;
    cfg.seed = 11;
    cfg.host_count = 3;
    cfg.duration = Duration::seconds(30);
    cfg.attack_start = Duration::seconds(10);
    cfg.attack_stop = Duration::seconds(25);
    return cfg;
}

TEST(ScenarioRunnerTest, DeterministicAcrossRuns) {
    detect::NullScheme s1;
    detect::NullScheme s2;
    const auto a = ScenarioRunner::run_scheme(small_config(), s1);
    const auto b = ScenarioRunner::run_scheme(small_config(), s2);
    EXPECT_EQ(a.total_frames, b.total_frames);
    EXPECT_EQ(a.total_bytes, b.total_bytes);
    EXPECT_EQ(a.attack_window.sent, b.attack_window.sent);
    EXPECT_EQ(a.attack_window.intercepted, b.attack_window.intercepted);
    EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(ScenarioRunnerTest, SeedsChangeDetails) {
    detect::NullScheme s1;
    detect::NullScheme s2;
    ScenarioConfig cfg2 = small_config();
    cfg2.seed = 12;
    const auto a = ScenarioRunner::run_scheme(small_config(), s1);
    const auto b = ScenarioRunner::run_scheme(cfg2, s2);
    // Different DHCP xids etc. shift event counts at least slightly; the
    // headline metrics stay in the same regime.
    EXPECT_TRUE(a.attack_succeeded);
    EXPECT_TRUE(b.attack_succeeded);
}

TEST(ScenarioRunnerTest, DhcpAddressingBootstrapsAllHosts) {
    ScenarioConfig cfg = small_config();
    cfg.addressing = Addressing::kDhcp;
    cfg.attack = AttackKind::kNone;
    detect::NullScheme scheme;
    ScenarioRunner runner(cfg);
    const auto r = runner.run(scheme);
    for (auto* h : runner.hosts()) EXPECT_TRUE(h->has_ip()) << h->name();
    EXPECT_GT(r.benign_window.delivery_ratio(), 0.9);
}

TEST(ScenarioRunnerTest, DosBlackholeMeasuredAsDeliveryLoss) {
    ScenarioConfig cfg = small_config();
    cfg.attack = AttackKind::kDosBlackhole;
    detect::NullScheme scheme;
    const auto r = ScenarioRunner::run_scheme(cfg, scheme);
    EXPECT_TRUE(r.attack_succeeded);
    EXPECT_LT(r.victim_flow_attack_window.delivery_ratio(), 0.5);
    EXPECT_GT(r.benign_window.delivery_ratio(), 0.95);
    // Frames blackholed to a nonexistent MAC are unknown unicast: the
    // switch floods them, so the attacker's promiscuous NIC sees them too
    // (the blackhole is observable even though nothing is relayed).
    EXPECT_GT(r.attack_window.intercepted, 0u);
}

TEST(ScenarioRunnerTest, ReplyRaceAttackIntercepts) {
    ScenarioConfig cfg = small_config();
    cfg.attack = AttackKind::kReplyRace;
    cfg.repoison_period = Duration::seconds(2);
    detect::NullScheme scheme;
    const auto r = ScenarioRunner::run_scheme(cfg, scheme);
    EXPECT_TRUE(r.attack_succeeded);
    EXPECT_GT(r.attack_window.interception_ratio(), 0.05);
}

TEST(ScenarioRunnerTest, HijackOfflineInterceptsVictimboundTraffic) {
    ScenarioConfig cfg = small_config();
    cfg.attack = AttackKind::kHijackOffline;
    detect::NullScheme scheme;
    const auto r = ScenarioRunner::run_scheme(cfg, scheme);
    EXPECT_TRUE(r.attack_succeeded);
    EXPECT_TRUE(r.victim_poisoned_at_end);
}

TEST(ScenarioRunnerTest, SummaryLineMentionsScheme) {
    detect::NullScheme scheme;
    const auto r = ScenarioRunner::run_scheme(small_config(), scheme);
    EXPECT_NE(r.summary_line().find("none"), std::string::npos);
}

TEST(ScenarioRunnerTest, GoldenOutcomePerScheme) {
    // Pins the runner's per-scheme outcome (static addressing, MITM, seed
    // 11): any change to how the LAN is built or a scheme is deployed —
    // port order, node order, lifecycle order — shifts at least one line.
    const std::vector<std::string> golden = {
        "none (classic ARP) attack=mitm            success=yes   intercept= 49.3% deliver=100.0% "
        "TP=0 FP=0 latency=n/a crypto=0 frames=2340 events=3576",
        "static-entries     attack=mitm            success=no    intercept=  0.0% deliver=100.0% "
        "TP=0 FP=0 latency=n/a crypto=0 frames=1860 events=3088",
        "arpwatch           attack=mitm            success=yes   intercept= 49.3% deliver=100.0% "
        "TP=2 FP=0 latency=19.60us crypto=0 frames=2340 events=3576",
        "snort-arpspoof     attack=mitm            success=yes   intercept= 49.3% deliver=100.0% "
        "TP=16 FP=0 latency=19.60us crypto=0 frames=2340 events=3576",
        "active-probe       attack=mitm            success=yes   intercept= 49.3% deliver=100.0% "
        "TP=4 FP=0 latency=78.60us crypto=0 frames=2360 events=3600",
        "anticap            attack=mitm            success=no    intercept=  0.0% deliver=100.0% "
        "TP=16 FP=0 latency=19.60us crypto=0 frames=1896 events=3132",
        "antidote           attack=mitm            success=no    intercept=  0.0% deliver=100.0% "
        "TP=16 FP=0 latency=54.20us crypto=0 frames=1992 events=3260",
        "middleware         attack=mitm            success=no    intercept=  0.0% deliver=100.0% "
        "TP=16 FP=0 latency=300.02ms crypto=0 frames=2100 events=3404",
        "port-security      attack=mitm            success=yes   intercept= 49.3% deliver=100.0% "
        "TP=0 FP=0 latency=n/a crypto=0 frames=2340 events=3576",
        "dai+dhcp-snooping  attack=mitm            success=no    intercept=  0.0% deliver= 75.0% "
        "TP=16 FP=36 latency=9.80us crypto=0 frames=1579 events=2750",
        "dai-static         attack=mitm            success=no    intercept=  0.0% deliver=100.0% "
        "TP=16 FP=0 latency=9.80us crypto=0 frames=1864 events=3100",
        "gossip             attack=mitm            success=yes   intercept= 32.7% deliver=100.0% "
        "TP=16 FP=0 latency=43.72us crypto=0 frames=2436 events=3744",
        "lease-monitor      attack=mitm            success=yes   intercept= 49.3% deliver=100.0% "
        "TP=0 FP=0 latency=n/a crypto=0 frames=2340 events=3576",
        "s-arp              attack=mitm            success=no    intercept=  0.0% deliver=100.0% "
        "TP=16 FP=0 latency=19.60us crypto=105 frames=2023 events=3377",
        "tarp               attack=mitm            success=no    intercept=  0.0% deliver=100.0% "
        "TP=16 FP=0 latency=19.60us crypto=20 frames=1896 events=3144",
    };
    const auto schemes = detect::all_schemes();
    ASSERT_EQ(schemes.size(), golden.size());
    for (std::size_t i = 0; i < schemes.size(); ++i) {
        auto scheme = schemes[i].make();
        const auto r = ScenarioRunner::run_scheme(small_config(), *scheme);
        const std::string line = r.summary_line() +
                                 " crypto=" + std::to_string(r.crypto_ops.total()) +
                                 " frames=" + std::to_string(r.total_frames) +
                                 " events=" + std::to_string(r.events_executed);
        EXPECT_EQ(line, golden[i]) << schemes[i].name;
    }
}

// ---------------------------------------------------------------------------
// Report / matrix rendering
// ---------------------------------------------------------------------------

TEST(TextTableTest, AlignsColumns) {
    TextTable t("title");
    t.set_headers({"a", "long-header"});
    t.add_row({"xxxxx", "y"});
    const std::string s = t.to_string();
    EXPECT_NE(s.find("title"), std::string::npos);
    EXPECT_NE(s.find("| a     |"), std::string::npos);
    EXPECT_NE(s.find("| xxxxx |"), std::string::npos);
}

TEST(TextTableTest, Formatters) {
    EXPECT_EQ(fmt_percent(0.333), "33.3%");
    EXPECT_EQ(fmt_double(1.2345, 2), "1.23");
    EXPECT_EQ(fmt_bool(true), "yes");
    EXPECT_EQ(fmt_bool(false), "no");
}

TEST(TextTableTest, CsvEscapesSpecialCells) {
    TextTable t;
    t.set_headers({"a", "b"});
    t.add_row({"plain", "with,comma"});
    t.add_row({"with \"quote\"", "multi\nline"});
    const std::string csv = t.to_csv();
    EXPECT_NE(csv.find("a,b\n"), std::string::npos);
    EXPECT_NE(csv.find("\"with,comma\""), std::string::npos);
    EXPECT_NE(csv.find("\"with \"\"quote\"\"\""), std::string::npos);
}

TEST(TextTableTest, WriteCsvCreatesFile) {
    TextTable t;
    t.set_headers({"x"});
    t.add_row({"1"});
    const std::string path = ::testing::TempDir() + "/arpsec_table.csv";
    ASSERT_TRUE(t.write_csv(path));
    std::FILE* f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[64] = {};
    ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_EQ(std::string(buf), "x\n");
}

TEST(MatrixTest, TraitsMatrixCoversAllSchemes) {
    std::vector<detect::SchemeTraits> traits;
    for (const auto& reg : detect::all_schemes()) traits.push_back(reg.make()->traits());
    const TextTable table = traits_matrix(traits);
    EXPECT_EQ(table.row_count(), traits.size());
    const std::string s = table.to_string();
    EXPECT_NE(s.find("s-arp"), std::string::npos);
    EXPECT_NE(s.find("arpwatch"), std::string::npos);
}

TEST(MatrixTest, QuantitativeMatrixComputesOverhead) {
    detect::NullScheme baseline_scheme;
    const auto baseline = ScenarioRunner::run_scheme(small_config(), baseline_scheme);
    detect::NullScheme again;
    const auto r = ScenarioRunner::run_scheme(small_config(), again);
    const TextTable table = quantitative_matrix({r}, &baseline);
    const std::string s = table.to_string();
    EXPECT_NE(s.find("0.0%"), std::string::npos);  // identical run: no overhead
}

}  // namespace
}  // namespace arpsec::core
