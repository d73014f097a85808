#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "detect/active_probe.hpp"
#include "detect/anticap.hpp"
#include "detect/antidote.hpp"
#include "detect/arpwatch.hpp"
#include "detect/gossip.hpp"
#include "detect/lan.hpp"
#include "detect/lease_monitor.hpp"
#include "detect/middleware.hpp"
#include "detect/registry.hpp"
#include "detect/sarp.hpp"
#include "detect/snort_preprocessor.hpp"
#include "detect/static_entries.hpp"
#include "l2/switch.hpp"
#include "sim/network.hpp"
#include "detect/switch_schemes.hpp"
#include "detect/tarp.hpp"

namespace arpsec::detect {
namespace {

using common::Duration;
using core::Addressing;
using core::AttackKind;
using core::ScenarioConfig;
using core::ScenarioResult;
using core::ScenarioRunner;

/// Short MITM scenario used across scheme tests.
ScenarioConfig mitm_config(Addressing addressing = Addressing::kStatic) {
    ScenarioConfig cfg;
    cfg.seed = 7;
    cfg.host_count = 4;
    cfg.addressing = addressing;
    cfg.attack = AttackKind::kMitm;
    cfg.duration = Duration::seconds(30);
    cfg.attack_start = Duration::seconds(10);
    cfg.attack_stop = Duration::seconds(25);
    cfg.repoison_period = Duration::seconds(2);
    return cfg;
}

ScenarioConfig benign_config(Addressing addressing = Addressing::kStatic) {
    ScenarioConfig cfg = mitm_config(addressing);
    cfg.attack = AttackKind::kNone;
    return cfg;
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

TEST(NullSchemeTest, AttackSucceedsSilently) {
    NullScheme scheme;
    const auto r = ScenarioRunner::run_scheme(mitm_config(), scheme);
    EXPECT_TRUE(r.attack_succeeded);
    EXPECT_TRUE(r.victim_poisoned_at_end);
    EXPECT_GT(r.attack_window.interception_ratio(), 0.2);
    EXPECT_EQ(r.alerts.true_positives, 0u);
    EXPECT_EQ(r.alerts.false_positives, 0u);
}

TEST(NullSchemeTest, BenignRunIsClean) {
    NullScheme scheme;
    const auto r = ScenarioRunner::run_scheme(benign_config(), scheme);
    EXPECT_FALSE(r.attack_succeeded);
    EXPECT_GT(r.benign_window.delivery_ratio(), 0.95);
    EXPECT_EQ(r.attack_window.intercepted, 0u);
}

// ---------------------------------------------------------------------------
// Static entries
// ---------------------------------------------------------------------------

TEST(StaticEntriesTest, PreventsPoisoningOutright) {
    StaticEntriesScheme scheme;
    const auto r = ScenarioRunner::run_scheme(mitm_config(), scheme);
    EXPECT_FALSE(r.attack_succeeded);
    EXPECT_FALSE(r.victim_poisoned_at_end);
    EXPECT_DOUBLE_EQ(r.attack_window.interception_ratio(), 0.0);
    EXPECT_GT(r.attack_window.delivery_ratio(), 0.95);
}

TEST(StaticEntriesTest, NoArpTrafficNeededAfterSetup) {
    StaticEntriesScheme scheme;
    const auto r = ScenarioRunner::run_scheme(benign_config(), scheme);
    // Only gratuitous announcements remain; no request/reply exchanges.
    EXPECT_LT(r.resolution_latency_us.count(), 2u);
}

// ---------------------------------------------------------------------------
// arpwatch
// ---------------------------------------------------------------------------

TEST(ArpwatchTest, DetectsButDoesNotPrevent) {
    ArpwatchScheme scheme;
    const auto r = ScenarioRunner::run_scheme(mitm_config(), scheme);
    EXPECT_TRUE(r.attack_succeeded);  // detection-only
    EXPECT_GE(r.alerts.true_positives, 1u);
    EXPECT_EQ(r.alerts.false_positives, 0u);
    ASSERT_TRUE(r.alerts.detection_latency.has_value());
    EXPECT_LT(r.alerts.detection_latency->to_seconds(), 1.0);
}

TEST(ArpwatchTest, DhcpRecyclingCausesFalsePositives) {
    ScenarioConfig cfg = benign_config(Addressing::kDhcp);
    cfg.churn.dhcp_recycles = 2;
    ArpwatchScheme scheme;
    const auto r = ScenarioRunner::run_scheme(cfg, scheme);
    // The recycled IP shows up with a new MAC: indistinguishable from an
    // attack for a passive database detector.
    EXPECT_GE(r.alerts.false_positives, 1u);
    EXPECT_EQ(r.alerts.true_positives, 0u);
}

TEST(ArpwatchTest, NicSwapCausesFalsePositive) {
    ScenarioConfig cfg = benign_config();
    cfg.churn.nic_swap = true;
    ArpwatchScheme scheme;
    const auto r = ScenarioRunner::run_scheme(cfg, scheme);
    EXPECT_GE(r.alerts.false_positives, 1u);
}

// ---------------------------------------------------------------------------
// Snort arpspoof preprocessor
// ---------------------------------------------------------------------------

TEST(SnortTest, TableMismatchFiresOnPoison) {
    SnortPreprocessorScheme scheme;
    const auto r = ScenarioRunner::run_scheme(mitm_config(), scheme);
    EXPECT_TRUE(r.attack_succeeded);  // detection-only
    EXPECT_GE(r.alerts.true_positives, 1u);
    EXPECT_EQ(r.alerts.false_positives, 0u);
    bool table_violation = false;
    for (const auto& a : r.raw_alerts) {
        if (a.kind == AlertKind::kBindingViolation) table_violation = true;
    }
    EXPECT_TRUE(table_violation);
}

TEST(SnortTest, StaleTableFalsePositivesAfterNicSwap) {
    ScenarioConfig cfg = benign_config();
    cfg.churn.nic_swap = true;
    SnortPreprocessorScheme scheme;
    const auto r = ScenarioRunner::run_scheme(cfg, scheme);
    // The swapped NIC contradicts the (now stale) configured table forever.
    EXPECT_GE(r.alerts.false_positives, 1u);
}

// ---------------------------------------------------------------------------
// Active probe
// ---------------------------------------------------------------------------

TEST(ActiveProbeTest, ConfirmsAttackWhenBothStationsAnswer) {
    ActiveProbeScheme scheme;
    const auto r = ScenarioRunner::run_scheme(mitm_config(), scheme);
    EXPECT_TRUE(r.attack_succeeded);  // detection-only
    EXPECT_GE(r.alerts.true_positives, 1u);
    EXPECT_EQ(r.alerts.false_positives, 0u);
}

TEST(ActiveProbeTest, NicSwapAbsorbedWithoutAlert) {
    ScenarioConfig cfg = benign_config();
    cfg.churn.nic_swap = true;
    ActiveProbeScheme scheme;
    const auto r = ScenarioRunner::run_scheme(cfg, scheme);
    // The old NIC is gone, the probe times out, the change is absorbed —
    // exactly the false positive arpwatch cannot avoid.
    EXPECT_EQ(r.alerts.false_positives, 0u);
}

TEST(ActiveProbeTest, DhcpRecyclingAbsorbedWithoutAlert) {
    ScenarioConfig cfg = benign_config(Addressing::kDhcp);
    cfg.churn.dhcp_recycles = 2;
    ActiveProbeScheme scheme;
    const auto r = ScenarioRunner::run_scheme(cfg, scheme);
    EXPECT_EQ(r.alerts.false_positives, 0u);
}

// ---------------------------------------------------------------------------
// Anticap
// ---------------------------------------------------------------------------

TEST(AnticapTest, BlocksOverwritePoisoning) {
    AnticapScheme scheme;
    const auto r = ScenarioRunner::run_scheme(mitm_config(), scheme);
    EXPECT_FALSE(r.attack_succeeded);
    EXPECT_FALSE(r.victim_poisoned_at_end);
    EXPECT_GE(r.alerts.true_positives, 1u);
}

TEST(AnticapTest, RejectsLegitimateRebindToo) {
    // The documented downside: a NIC swap is refused like an attack until
    // the stale entry expires, producing false alarms.
    ScenarioConfig cfg = benign_config();
    cfg.churn.nic_swap = true;
    AnticapScheme scheme;
    const auto r = ScenarioRunner::run_scheme(cfg, scheme);
    EXPECT_GE(r.alerts.false_positives, 1u);
}

// ---------------------------------------------------------------------------
// Antidote
// ---------------------------------------------------------------------------

TEST(AntidoteTest, BlocksPoisoningWhileOwnerIsUp) {
    AntidoteScheme scheme;
    const auto r = ScenarioRunner::run_scheme(mitm_config(), scheme);
    EXPECT_FALSE(r.attack_succeeded);
    EXPECT_FALSE(r.victim_poisoned_at_end);
    EXPECT_GE(r.alerts.true_positives, 1u);
}

TEST(AntidoteTest, AcceptsLegitimateRebindAfterProbeTimeout) {
    ScenarioConfig cfg = benign_config();
    cfg.churn.nic_swap = true;
    AntidoteScheme scheme;
    const auto r = ScenarioRunner::run_scheme(cfg, scheme);
    // No alert: the old station is silent, so the change is accepted.
    EXPECT_EQ(r.alerts.false_positives, 0u);
    EXPECT_GT(r.attack_window.delivery_ratio(), 0.9);  // connectivity intact
}

TEST(AntidoteTest, DefeatedWhenVictimIsOffline) {
    // The known weakness: impersonating a powered-off station passes the
    // probe check (nobody answers for the old MAC).
    ScenarioConfig cfg = mitm_config();
    cfg.attack = AttackKind::kHijackOffline;
    AntidoteScheme scheme;
    const auto r = ScenarioRunner::run_scheme(cfg, scheme);
    EXPECT_TRUE(r.attack_succeeded);
    EXPECT_TRUE(r.victim_poisoned_at_end);
}

// ---------------------------------------------------------------------------
// Middleware
// ---------------------------------------------------------------------------

TEST(MiddlewareTest, BlocksPoisoningIncludingCreations) {
    MiddlewareScheme scheme;
    const auto r = ScenarioRunner::run_scheme(mitm_config(), scheme);
    EXPECT_FALSE(r.attack_succeeded);
    EXPECT_FALSE(r.victim_poisoned_at_end);
    EXPECT_GE(r.alerts.true_positives, 1u);
}

TEST(MiddlewareTest, FirstContactPaysVerificationWindow) {
    MiddlewareScheme scheme;  // 300 ms verification window
    const auto r = ScenarioRunner::run_scheme(benign_config(), scheme);
    // Cold resolutions now include at least one verification window.
    EXPECT_GT(r.resolution_latency_us.median(), 100'000.0);  // > 100 ms
    EXPECT_GT(r.attack_window.delivery_ratio(), 0.9);        // then traffic flows
}

TEST(MiddlewareTest, NicSwapAdmittedQuietly) {
    ScenarioConfig cfg = benign_config();
    cfg.churn.nic_swap = true;
    MiddlewareScheme scheme;
    const auto r = ScenarioRunner::run_scheme(cfg, scheme);
    EXPECT_EQ(r.alerts.false_positives, 0u);
}

// ---------------------------------------------------------------------------
// Switch-based schemes
// ---------------------------------------------------------------------------

TEST(PortSecurityTest, DoesNotStopArpPoisoning) {
    PortSecurityScheme scheme;
    const auto r = ScenarioRunner::run_scheme(mitm_config(), scheme);
    // The attacker used its own NIC address: port security sees nothing.
    EXPECT_TRUE(r.attack_succeeded);
    EXPECT_EQ(r.alerts.true_positives, 0u);
}

TEST(DaiTest, DhcpSnoopingModePreventsPoisoning) {
    DaiScheme scheme;
    const auto r = ScenarioRunner::run_scheme(mitm_config(Addressing::kDhcp), scheme);
    EXPECT_FALSE(r.attack_succeeded);
    EXPECT_FALSE(r.victim_poisoned_at_end);
    EXPECT_GE(r.alerts.true_positives, 1u);
    // Legitimate hosts keep working off their snooped leases.
    EXPECT_GT(r.attack_window.delivery_ratio(), 0.9);
}

TEST(DaiTest, StaticBindingModePreventsWithoutDhcp) {
    DaiScheme::Options opt;
    opt.use_dhcp_snooping = false;
    DaiScheme scheme(opt);
    const auto r = ScenarioRunner::run_scheme(mitm_config(Addressing::kStatic), scheme);
    EXPECT_FALSE(r.attack_succeeded);
    EXPECT_GE(r.alerts.true_positives, 1u);
}

TEST(DaiTest, BenignDhcpLanRunsClean) {
    DaiScheme scheme;
    const auto r = ScenarioRunner::run_scheme(benign_config(Addressing::kDhcp), scheme);
    EXPECT_GT(r.benign_window.delivery_ratio(), 0.9);
    EXPECT_EQ(r.alerts.true_positives, 0u);
    EXPECT_EQ(r.alerts.false_positives, 0u);
}

// ---------------------------------------------------------------------------
// Cryptographic schemes
// ---------------------------------------------------------------------------

TEST(SArpTest, PreventsPoisoningAndFlagsUnsignedArp) {
    SArpScheme scheme;
    const auto r = ScenarioRunner::run_scheme(mitm_config(), scheme);
    EXPECT_FALSE(r.attack_succeeded);
    EXPECT_FALSE(r.victim_poisoned_at_end);
    EXPECT_GE(r.alerts.true_positives, 1u);
    bool unsigned_alert = false;
    for (const auto& a : r.raw_alerts) {
        if (a.kind == AlertKind::kUnsignedArp) unsigned_alert = true;
    }
    EXPECT_TRUE(unsigned_alert);
    EXPECT_GT(r.crypto_ops.signs, 0u);
    EXPECT_GT(r.crypto_ops.verifies, 0u);
}

TEST(SArpTest, ResolutionLatencyPaysCryptoAndKeyFetch) {
    SArpScheme scheme;
    const auto r = ScenarioRunner::run_scheme(benign_config(), scheme);
    NullScheme baseline;
    const auto base = ScenarioRunner::run_scheme(benign_config(), baseline);
    ASSERT_GT(r.resolution_latency_us.count(), 0u);
    // Orders of magnitude above plain ARP (sign 2ms + verify 2.5ms + AKD).
    EXPECT_GT(r.resolution_latency_us.median(), 50.0 * base.resolution_latency_us.median());
    EXPECT_GT(r.resolution_latency_us.median(), 4000.0);  // > 4 ms
}

TEST(SArpTest, TrafficStillFlowsEndToEnd) {
    SArpScheme scheme;
    const auto r = ScenarioRunner::run_scheme(benign_config(), scheme);
    EXPECT_GT(r.benign_window.delivery_ratio(), 0.9);
    EXPECT_GT(r.attack_window.delivery_ratio(), 0.9);
}

TEST(TarpTest, PreventsPoisoning) {
    TarpScheme scheme;
    const auto r = ScenarioRunner::run_scheme(mitm_config(), scheme);
    EXPECT_FALSE(r.attack_succeeded);
    EXPECT_FALSE(r.victim_poisoned_at_end);
    EXPECT_GE(r.alerts.true_positives, 1u);
}

TEST(TarpTest, CheaperThanSArp) {
    TarpScheme tarp;
    const auto rt = ScenarioRunner::run_scheme(benign_config(), tarp);
    SArpScheme sarp;
    const auto rs = ScenarioRunner::run_scheme(benign_config(), sarp);
    ASSERT_GT(rt.resolution_latency_us.count(), 0u);
    ASSERT_GT(rs.resolution_latency_us.count(), 0u);
    // TARP: one verify, no signing on the fast path, no key server RTT.
    EXPECT_LT(rt.resolution_latency_us.median(), rs.resolution_latency_us.median());
    // TARP signs only at ticket issuance (deploy + one reissue per address
    // acquisition), far fewer private-key operations than per-message S-ARP.
    EXPECT_LT(rt.crypto_ops.signs, rs.crypto_ops.signs / 2);
}

TEST(TarpTest, TicketMismatchRejected) {
    // Directly exercise ticket validation: a ticket for (ip, macA) cannot
    // authenticate a claim for macB.
    TarpScheme scheme;
    DeploymentContext ctx;
    crypto::OpCounters ops;
    ctx.ops = &ops;
    ctx.directory.push_back(
        {"a", wire::Ipv4Address{10, 0, 0, 1}, wire::MacAddress::local(1)});
    scheme.deploy(ctx);
    const auto ticket = scheme.issue_ticket(wire::Ipv4Address{10, 0, 0, 1},
                                            wire::MacAddress::local(1), common::SimTime::zero());
    EXPECT_TRUE(scheme.lta_public_key().verify(ticket.signed_region(), ticket.sig));
    auto tampered = ticket;
    tampered.mac = wire::MacAddress::local(2);
    EXPECT_FALSE(scheme.lta_public_key().verify(tampered.signed_region(), tampered.sig));
}

TEST(SArpTest, WorksUnderDhcpAddressingViaEnrollment) {
    // Address acquisition triggers AKD (re-)enrollment, so S-ARP also
    // protects DHCP-managed LANs in this framework.
    SArpScheme scheme;
    const auto r = ScenarioRunner::run_scheme(mitm_config(Addressing::kDhcp), scheme);
    EXPECT_FALSE(r.attack_succeeded);
    EXPECT_GT(r.benign_window.delivery_ratio(), 0.9);
    EXPECT_GE(r.alerts.true_positives, 1u);
}

TEST(SArpTest, NicSwapAbsorbedViaReEnrollmentAndKeyRefetch) {
    ScenarioConfig cfg = benign_config();
    cfg.churn.nic_swap = true;
    SArpScheme scheme;
    const auto r = ScenarioRunner::run_scheme(cfg, scheme);
    // The replaced NIC re-enrolls at the AKD; verifiers refetch the stale
    // key once and accept. No standing false alarms.
    EXPECT_LE(r.alerts.false_positives, 1u);
}

TEST(TarpTest, WorksUnderDhcpAddressingViaTicketReissue) {
    TarpScheme scheme;
    const auto r = ScenarioRunner::run_scheme(mitm_config(Addressing::kDhcp), scheme);
    EXPECT_FALSE(r.attack_succeeded);
    EXPECT_GT(r.benign_window.delivery_ratio(), 0.9);
}

TEST(TarpTest, NicSwapGetsFreshTicket) {
    ScenarioConfig cfg = benign_config();
    cfg.churn.nic_swap = true;
    TarpScheme scheme;
    const auto r = ScenarioRunner::run_scheme(cfg, scheme);
    EXPECT_EQ(r.alerts.false_positives, 0u);
}

TEST(TarpTest, ShortTicketsAutoRenewWithoutBreakingTraffic) {
    // Ticket lifetime far below the scenario duration: stations must renew
    // at the LTA; connectivity is preserved at the price of more signing.
    TarpScheme::Options opt;
    opt.ticket_lifetime = Duration::seconds(5);
    TarpScheme scheme(opt);
    ScenarioConfig cfg = benign_config();
    // Short ARP TTL forces re-resolutions throughout the run, so ARP
    // traffic (and hence ticket renewal) actually happens after expiry.
    cfg.host_policy.entry_ttl = Duration::seconds(8);
    const auto r = ScenarioRunner::run_scheme(cfg, scheme);
    EXPECT_GT(r.benign_window.delivery_ratio(), 0.9);
    EXPECT_GT(r.attack_window.delivery_ratio(), 0.9);
    EXPECT_EQ(r.alerts.false_positives, 0u);
    // Renewals happened: more signs than the one-time enrollment count.
    EXPECT_GT(r.crypto_ops.signs, (r.config.host_count + 1) * 2);
}

// ---------------------------------------------------------------------------
// Gossip (cooperative host detection)
// ---------------------------------------------------------------------------

TEST(GossipTest, PoisonedVictimStandsOutToPeers) {
    GossipScheme scheme;
    const auto r = ScenarioRunner::run_scheme(mitm_config(), scheme);
    // Detection (and some mitigation through eviction), but the persistent
    // attacker re-poisons between gossip rounds: no prevention claim.
    EXPECT_GE(r.alerts.true_positives, 1u);
    EXPECT_EQ(r.alerts.false_positives, 0u);
    ASSERT_TRUE(r.alerts.detection_latency.has_value());
    // Bounded by the gossip period (5 s), not by packet observation.
    EXPECT_LT(r.alerts.detection_latency->to_seconds(), 6.0);
}

TEST(GossipTest, QuietOnStableBenignLan) {
    GossipScheme scheme;
    const auto r = ScenarioRunner::run_scheme(benign_config(), scheme);
    EXPECT_EQ(r.alerts.false_positives, 0u);
    EXPECT_EQ(r.alerts.true_positives, 0u);
}

TEST(GossipTest, NicSwapCausesTransientDisagreement) {
    // The scheme's documented weakness: peers with stale caches disagree
    // with peers that already saw the new NIC.
    ScenarioConfig cfg = benign_config();
    cfg.churn.nic_swap = true;
    GossipScheme scheme;
    const auto r = ScenarioRunner::run_scheme(cfg, scheme);
    EXPECT_GE(r.alerts.false_positives, 1u);
}

// ---------------------------------------------------------------------------
// Lease monitor (software DAI, detection only)
// ---------------------------------------------------------------------------

TEST(LeaseMonitorTest, DetectsPoisonAgainstLeasedAddresses) {
    LeaseMonitorScheme scheme;
    const auto r = ScenarioRunner::run_scheme(mitm_config(Addressing::kDhcp), scheme);
    EXPECT_TRUE(r.attack_succeeded);  // no enforcement from the mirror port
    EXPECT_GE(r.alerts.true_positives, 1u);
    EXPECT_EQ(r.alerts.false_positives, 0u);
}

TEST(LeaseMonitorTest, LeaseTableFollowsChurnWithoutFalsePositives) {
    ScenarioConfig cfg = benign_config(Addressing::kDhcp);
    cfg.churn.dhcp_recycles = 2;
    LeaseMonitorScheme scheme;
    const auto r = ScenarioRunner::run_scheme(cfg, scheme);
    // The snooped ACK for the recycled address replaces the old lease
    // before the new station's first ARP: no alarm.
    EXPECT_EQ(r.alerts.false_positives, 0u);
}

TEST(LeaseMonitorTest, BlindToStaticStations) {
    // Static addressing: no DHCP to snoop, hence nothing to validate.
    LeaseMonitorScheme scheme;
    const auto r = ScenarioRunner::run_scheme(mitm_config(Addressing::kStatic), scheme);
    EXPECT_TRUE(r.attack_succeeded);
    EXPECT_EQ(r.alerts.true_positives, 0u);
}

TEST(SArpTest, PermissiveModeInteroperatesButLosesPrevention) {
    // strict=false: unsigned ARP is tolerated (mixed legacy deployment).
    // Interoperability returns — and so does the attack.
    SArpScheme::Options opt;
    opt.strict = false;
    SArpScheme scheme(opt);
    const auto r = ScenarioRunner::run_scheme(mitm_config(), scheme);
    EXPECT_TRUE(r.attack_succeeded);
    EXPECT_GT(r.benign_window.delivery_ratio(), 0.9);
}

TEST(SnortTest, RuleTogglesControlAlertClasses) {
    // Disable the table rule: only header/unicast signatures remain, and a
    // frame-consistent unsolicited-reply MITM produces no alerts at all.
    SnortPreprocessorScheme::Options opt;
    opt.check_table = false;
    opt.check_unicast_requests = false;
    opt.check_header_consistency = true;
    SnortPreprocessorScheme scheme(opt);
    const auto r = ScenarioRunner::run_scheme(mitm_config(), scheme);
    EXPECT_EQ(r.alerts.true_positives, 0u);
    EXPECT_EQ(r.alerts.false_positives, 0u);
}

TEST(ArpwatchTest, OscillationClassifiedAsFlipFlop) {
    // A short re-poison period against refreshing legitimate traffic makes
    // the binding oscillate: arpwatch should emit flip-flop alerts.
    ScenarioConfig cfg = mitm_config();
    cfg.repoison_period = Duration::millis(500);
    cfg.host_policy.entry_ttl = Duration::seconds(5);  // frequent re-resolution
    ArpwatchScheme scheme;
    const auto r = ScenarioRunner::run_scheme(cfg, scheme);
    bool flipflop = false;
    for (const auto& a : r.raw_alerts) {
        if (a.kind == AlertKind::kFlipFlop) flipflop = true;
    }
    EXPECT_TRUE(flipflop);
    EXPECT_GE(r.alerts.true_positives, 2u);
}

TEST(SArpTest, AkdOutageBlocksColdResolutions) {
    // Availability caveat: with the key server down, hosts cannot verify
    // stations whose keys are not yet cached — cold resolutions fail.
    // (Warm caches keep working: the dependence is on *new* bindings.)
    Lan lan(5, 8);
    sim::Network& net = lan.net();
    const wire::Ipv4Address a_ip{192, 168, 1, 10};
    const wire::Ipv4Address b_ip{192, 168, 1, 20};
    host::HostConfig acfg;
    acfg.name = "a";
    acfg.mac = wire::MacAddress::local(1);
    acfg.static_ip = a_ip;
    // Announcements suppressed so no key is cached before the outage.
    acfg.gratuitous_announce = false;
    auto& a = net.emplace_node<host::Host>(acfg);
    lan.attach(a.id());
    host::HostConfig bcfg;
    bcfg.name = "b";
    bcfg.mac = wire::MacAddress::local(2);
    bcfg.static_ip = b_ip;
    bcfg.gratuitous_announce = false;
    auto& b = net.emplace_node<host::Host>(bcfg);
    lan.attach(b.id());

    SArpScheme scheme;
    AlertSink alerts;
    crypto::OpCounters ops;
    DeploymentContext ctx;
    ctx.alerts = &alerts;
    ctx.ops = &ops;
    ctx.directory = {{"a", a_ip, a.mac()}, {"b", b_ip, b.mac()}};
    host::Host* const protect[] = {&a, &b};
    lan.deploy(scheme, std::move(ctx), protect);

    net.start_all();
    net.scheduler().run_until(common::SimTime::zero() + Duration::seconds(1));

    // Take the key server down, then try a cold resolution.
    ASSERT_NE(scheme.akd_host(), nullptr);
    scheme.akd_host()->power_off();
    std::optional<std::optional<wire::MacAddress>> outcome;
    a.resolve(b_ip, [&](auto mac) { outcome = mac; });
    net.scheduler().run_until(common::SimTime::zero() + Duration::seconds(10));
    ASSERT_TRUE(outcome.has_value());
    EXPECT_FALSE(outcome->has_value());  // verification starved: resolution failed

    // Service restores with the AKD.
    scheme.akd_host()->power_on();
    net.scheduler().run_until(common::SimTime::zero() + Duration::seconds(11));
    std::optional<wire::MacAddress> again;
    a.resolve(b_ip, [&](auto mac) { again = mac.value_or(wire::MacAddress{}); });
    net.scheduler().run_until(common::SimTime::zero() + Duration::seconds(20));
    EXPECT_EQ(again, b.mac());
}

// ---------------------------------------------------------------------------
// Lan: the shared LAN-and-deploy builder
// ---------------------------------------------------------------------------

host::Host& lan_host(Lan& lan, const std::string& name, std::uint64_t mac) {
    host::HostConfig cfg;
    cfg.name = name;
    cfg.mac = wire::MacAddress::local(mac);
    return lan.net().emplace_node<host::Host>(cfg);
}

/// Records every lifecycle hook in call order.
class RecordingScheme final : public Scheme {
public:
    [[nodiscard]] SchemeTraits traits() const override {
        SchemeTraits t;
        t.name = "recording";
        return t;
    }
    void deploy(const DeploymentContext& ctx) override {
        Scheme::deploy(ctx);
        calls.push_back("deploy");
        seen = ctx;
    }
    void configure_switch(l2::Switch&) override { calls.push_back("configure_switch"); }
    void protect_host(host::Host& h) override { calls.push_back("protect_host " + h.name()); }
    void attach_monitor(MonitorNode&) override { calls.push_back("attach_monitor"); }

    std::vector<std::string> calls;
    DeploymentContext seen;
};

TEST(LanTest, PortsFollowAttachOrder) {
    Lan lan(1, 8);
    EXPECT_EQ(lan.fabric().name(), "switch");
    EXPECT_EQ(lan.fabric().id(), 0u);
    EXPECT_EQ(lan.attach(lan_host(lan, "h0", 10).id()), sim::PortId{0});
    EXPECT_EQ(lan.attach_infra(lan_host(lan, "infra", 11).id()), sim::PortId{1});
    EXPECT_EQ(lan.attach(lan_host(lan, "h1", 12).id()), sim::PortId{2});
    EXPECT_FALSE(lan.fabric().trusted(0));
    EXPECT_TRUE(lan.fabric().trusted(1));  // attach_infra marks its port trusted
    EXPECT_FALSE(lan.fabric().trusted(2));
    EXPECT_EQ(lan.monitor(), nullptr);
    EXPECT_FALSE(lan.fabric().mirror_port().has_value());
}

TEST(LanTest, MonitorTakesTheNextPortAsTrustedMirror) {
    Lan lan(1, 8);
    lan.attach(lan_host(lan, "h0", 10).id());
    MonitorNode& monitor = lan.add_monitor();
    EXPECT_EQ(lan.monitor(), &monitor);
    EXPECT_EQ(monitor.name(), "monitor");
    EXPECT_EQ(monitor.mac(), wire::MacAddress::local(0x999));
    EXPECT_EQ(lan.fabric().mirror_port(), std::optional<sim::PortId>{1});
    EXPECT_TRUE(lan.fabric().trusted(1));
    EXPECT_EQ(lan.attach(lan_host(lan, "h1", 11).id()), sim::PortId{2});
}

TEST(LanTest, InfraAddressesCountUpFrom240) {
    Lan lan(1, 4);
    EXPECT_EQ(lan.alloc_infra_ip(), (wire::Ipv4Address{192, 168, 1, 240}));
    EXPECT_EQ(lan.alloc_infra_ip(), (wire::Ipv4Address{192, 168, 1, 241}));
    EXPECT_EQ(lan.alloc_infra_ip(), (wire::Ipv4Address{192, 168, 1, 242}));
}

TEST(LanTest, DeployRunsTheLifecycleInOrder) {
    Lan lan(1, 8);
    host::Host& h0 = lan_host(lan, "h0", 10);
    host::Host& h1 = lan_host(lan, "h1", 11);
    lan.attach(h0.id());
    lan.attach(h1.id());
    lan.add_monitor();

    RecordingScheme scheme;
    AlertSink alerts;
    DeploymentContext ctx;
    ctx.alerts = &alerts;
    ctx.directory = {{"h0", wire::Ipv4Address{192, 168, 1, 10}, h0.mac()}};
    host::Host* const protect[] = {&h1, &h0};
    lan.deploy(scheme, std::move(ctx), protect);

    EXPECT_EQ(scheme.calls,
              (std::vector<std::string>{"deploy", "configure_switch", "protect_host h1",
                                        "protect_host h0", "attach_monitor"}));
    EXPECT_EQ(scheme.seen.net, &lan.net());
    EXPECT_EQ(scheme.seen.lan, &lan);
    EXPECT_EQ(scheme.seen.alerts, &alerts);  // caller fields pass through
    EXPECT_EQ(scheme.seen.directory.size(), 1u);
}

TEST(LanTest, DeployWithoutMonitorSkipsAttachMonitor) {
    Lan lan(1, 4);
    host::Host& h0 = lan_host(lan, "h0", 10);
    lan.attach(h0.id());
    RecordingScheme scheme;
    host::Host* const protect[] = {&h0};
    lan.deploy(scheme, {}, protect);
    EXPECT_EQ(scheme.calls,
              (std::vector<std::string>{"deploy", "configure_switch", "protect_host h0"}));

    RecordingScheme bare;
    lan.deploy(bare, {});
    EXPECT_EQ(bare.calls, (std::vector<std::string>{"deploy", "configure_switch"}));
}

// ---------------------------------------------------------------------------
// Registry / traits
// ---------------------------------------------------------------------------

TEST(RegistryTest, AllSchemesConstructibleWithDistinctTraits) {
    const auto schemes = all_schemes();
    EXPECT_GE(schemes.size(), 12u);
    std::set<std::string> names;
    for (const auto& reg : schemes) {
        auto scheme = reg.make();
        ASSERT_NE(scheme, nullptr);
        const auto t = scheme->traits();
        EXPECT_FALSE(t.name.empty());
        names.insert(t.name);
    }
    EXPECT_EQ(names.size(), schemes.size());
}

TEST(RegistryTest, LookupByName) {
    EXPECT_NE(make_scheme("arpwatch"), nullptr);
    EXPECT_NE(make_scheme("s-arp"), nullptr);
    EXPECT_EQ(make_scheme("definitely-not-a-scheme"), nullptr);
}

TEST(RegistryTest, BuiltinCatalogIsCompleteAndMakes) {
    const Registry registry;
    EXPECT_EQ(registry.entries().size(), all_schemes().size());
    for (const auto& entry : registry.entries()) {
        EXPECT_TRUE(registry.contains(entry.name));
        EXPECT_NE(registry.make(entry.name), nullptr) << entry.name;
    }
}

TEST(RegistryTest, UnknownSchemeReturnsNull) {
    const Registry registry;
    EXPECT_FALSE(registry.contains("no-such-scheme"));
    EXPECT_EQ(registry.make("no-such-scheme"), nullptr);
    EXPECT_EQ(registry.make(""), nullptr);
}

TEST(RegistryTest, DuplicateRegistrationFails) {
    Registry registry;
    const auto dup = registry.add({"arpwatch", [] { return std::make_unique<ArpwatchScheme>(); }});
    EXPECT_FALSE(dup.ok());
    EXPECT_NE(dup.error().find("arpwatch"), std::string::npos);
    // The original entry is untouched.
    EXPECT_NE(registry.make("arpwatch"), nullptr);
}

TEST(RegistryTest, RejectsEmptyNameAndNullFactory) {
    Registry registry(Registry::Empty{});
    EXPECT_TRUE(registry.entries().empty());
    EXPECT_FALSE(registry.add({"", [] { return std::make_unique<ArpwatchScheme>(); }}).ok());
    EXPECT_FALSE(registry.add({"null-factory", nullptr}).ok());
    EXPECT_FALSE(registry.contains("null-factory"));

    const auto ok = registry.add({"only", [] { return std::make_unique<ArpwatchScheme>(); }});
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(registry.entries().size(), 1u);
    EXPECT_NE(registry.make("only"), nullptr);
    // Same name again fails even in a custom catalog.
    EXPECT_FALSE(registry.add({"only", [] { return std::make_unique<ArpwatchScheme>(); }}).ok());
}

// ---------------------------------------------------------------------------
// Traits conformance — the paper's comparison-matrix columns, pinned per
// scheme. The DST checker and replay scoring scope their invariants by
// these flags (vantage, best_effort, depends_on_dhcp, ...), so a silently
// edited trait used to only *reroute* checker eligibility; now it fails a
// named row here first.
// ---------------------------------------------------------------------------

struct TraitsRow {
    const char* registry_name;  // key in detect::Registry
    const char* traits_name;    // SchemeTraits::name (may differ, e.g. dai)
    const char* vantage;
    bool detects;
    bool prevents_poisoning;
    bool prevents_flooding;
    bool requires_protocol_change;
    bool requires_infrastructure;
    bool requires_per_host_deploy;
    bool uses_cryptography;
    bool depends_on_dhcp;
    bool best_effort;
    bool handles_dynamic_ips;
    CostBand deployment_cost;
    CostBand runtime_cost;
};

TEST(RegistryTest, TraitsConformanceTable) {
    // One row per registered scheme, in registry order.
    const TraitsRow kExpected[] = {
        // reg name          traits name           vantage       det    prevP  prevF  proto  infra  host   crypt  dhcp   best   dyn
        {"none", "none (classic ARP)", "",
         false, false, false, false, false, false, false, false, false, true,
         CostBand::kLow, CostBand::kNone},
        {"static-entries", "static-entries", "host",
         false, true, false, false, false, true, false, false, false, false,
         CostBand::kHigh, CostBand::kNone},
        {"arpwatch", "arpwatch", "monitor",
         true, false, false, false, true, false, false, false, false, false,
         CostBand::kLow, CostBand::kNone},
        {"snort-arpspoof", "snort-arpspoof", "monitor",
         true, false, false, false, true, false, false, false, false, false,
         CostBand::kMedium, CostBand::kNone},
        {"active-probe", "active-probe", "monitor",
         true, false, false, false, true, false, false, false, false, true,
         CostBand::kLow, CostBand::kLow},
        {"anticap", "anticap", "host",
         true, true, false, false, false, true, false, false, false, false,
         CostBand::kMedium, CostBand::kNone},
        {"antidote", "antidote", "host",
         true, true, false, false, false, true, false, false, true, true,
         CostBand::kMedium, CostBand::kLow},
        {"middleware", "middleware", "host",
         true, true, false, false, false, true, false, false, true, true,
         CostBand::kMedium, CostBand::kLow},
        {"port-security", "port-security", "switch",
         true, false, true, false, true, false, false, false, false, true,
         CostBand::kMedium, CostBand::kNone},
        {"dai", "dai+dhcp-snooping", "switch",
         true, true, false, false, true, false, false, true, false, true,
         CostBand::kMedium, CostBand::kLow},
        {"dai-static", "dai-static", "switch",
         true, true, false, false, true, false, false, false, false, false,
         CostBand::kMedium, CostBand::kLow},
        {"gossip", "gossip", "host (cooperative)",
         true, false, false, false, false, true, false, false, true, false,
         CostBand::kMedium, CostBand::kLow},
        {"lease-monitor", "lease-monitor", "monitor",
         true, false, false, false, true, false, false, true, false, true,
         CostBand::kLow, CostBand::kNone},
        {"s-arp", "s-arp", "host+server",
         true, true, false, true, true, true, true, false, false, true,
         CostBand::kHigh, CostBand::kHigh},
        {"tarp", "tarp", "host+server",
         true, true, false, true, true, true, true, false, false, true,
         CostBand::kHigh, CostBand::kMedium},
    };

    const Registry registry;
    ASSERT_EQ(registry.entries().size(), std::size(kExpected))
        << "a scheme was added or removed: extend the conformance table";

    for (const TraitsRow& row : kExpected) {
        SCOPED_TRACE(row.registry_name);
        auto scheme = registry.make(row.registry_name);
        ASSERT_NE(scheme, nullptr);
        const SchemeTraits t = scheme->traits();
        EXPECT_EQ(t.name, row.traits_name);
        EXPECT_EQ(t.vantage, row.vantage);
        EXPECT_EQ(t.detects, row.detects);
        EXPECT_EQ(t.prevents_poisoning, row.prevents_poisoning);
        EXPECT_EQ(t.prevents_flooding, row.prevents_flooding);
        EXPECT_EQ(t.requires_protocol_change, row.requires_protocol_change);
        EXPECT_EQ(t.requires_infrastructure, row.requires_infrastructure);
        EXPECT_EQ(t.requires_per_host_deploy, row.requires_per_host_deploy);
        EXPECT_EQ(t.uses_cryptography, row.uses_cryptography);
        EXPECT_EQ(t.depends_on_dhcp, row.depends_on_dhcp);
        EXPECT_EQ(t.best_effort, row.best_effort);
        EXPECT_EQ(t.handles_dynamic_ips, row.handles_dynamic_ips);
        EXPECT_EQ(t.deployment_cost, row.deployment_cost);
        EXPECT_EQ(t.runtime_cost, row.runtime_cost);
    }

    // Cross-cutting sanity: every registered name appears in the table (the
    // size assert above plus uniqueness makes the mapping exhaustive).
    std::set<std::string> table_names;
    for (const TraitsRow& row : kExpected) table_names.insert(row.registry_name);
    for (const auto& entry : registry.entries()) {
        EXPECT_TRUE(table_names.count(entry.name) == 1) << entry.name;
    }
}

TEST(AlertTest, ToStringContainsFields) {
    Alert a;
    a.scheme = "test";
    a.kind = AlertKind::kSpoofSuspected;
    a.ip = wire::Ipv4Address{10, 0, 0, 1};
    a.claimed_mac = wire::MacAddress::local(1);
    a.detail = "hello";
    const std::string s = a.to_string();
    EXPECT_NE(s.find("test"), std::string::npos);
    EXPECT_NE(s.find("10.0.0.1"), std::string::npos);
    EXPECT_NE(s.find("hello"), std::string::npos);
}

}  // namespace
}  // namespace arpsec::detect
