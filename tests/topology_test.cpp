// Multi-switch topologies: two access switches joined by an uplink. These
// tests validate L2 forwarding across the fabric and reproduce the
// *partial deployment* caveats of the switch- and monitor-based schemes:
// protection on the core switch does not reach attacks that stay local to
// an unmanaged edge.

#include <gtest/gtest.h>

#include "attack/attacker.hpp"
#include "detect/arpwatch.hpp"
#include "detect/monitor.hpp"
#include "detect/switch_schemes.hpp"
#include "host/apps.hpp"
#include "host/host.hpp"
#include "l2/switch.hpp"
#include "sim/network.hpp"

namespace arpsec {
namespace {

using common::Duration;
using common::SimTime;
using host::Host;
using host::HostConfig;
using wire::Ipv4Address;
using wire::MacAddress;

/// Two switches: A (core, hosts a0/a1) -- uplink -- B (edge, hosts b0/b1
/// and the attacker).
struct TwoSwitchLan {
    explicit TwoSwitchLan(std::uint64_t seed = 1) : net(seed) {
        sw_a = &net.emplace_node<l2::Switch>("core", 6);
        sw_b = &net.emplace_node<l2::Switch>("edge", 6);
        // Uplink: port 5 on each side.
        net.connect({sw_a->id(), 5}, {sw_b->id(), 5});

        a0 = add_host(*sw_a, 0, "a0", 1, Ipv4Address{192, 168, 1, 10});
        a1 = add_host(*sw_a, 1, "a1", 2, Ipv4Address{192, 168, 1, 11});
        b0 = add_host(*sw_b, 0, "b0", 3, Ipv4Address{192, 168, 1, 20});
        b1 = add_host(*sw_b, 1, "b1", 4, Ipv4Address{192, 168, 1, 21});

        attack::Attacker::Config acfg;
        acfg.mac = MacAddress::local(0x666);
        attacker = &net.emplace_node<attack::Attacker>(acfg);
        net.connect({attacker->id(), 0}, {sw_b->id(), 2});
    }

    Host* add_host(l2::Switch& sw, sim::PortId port, const std::string& name,
                   std::uint64_t mac_id, Ipv4Address ip) {
        HostConfig cfg;
        cfg.name = name;
        cfg.mac = MacAddress::local(mac_id);
        cfg.static_ip = ip;
        Host& h = net.emplace_node<Host>(cfg);
        net.connect({h.id(), 0}, {sw.id(), port});
        return &h;
    }

    void run_to(std::int64_t seconds) {
        if (!started) {
            net.start_all();
            started = true;
        }
        net.scheduler().run_until(SimTime::zero() + Duration::seconds(seconds));
    }

    sim::Network net;
    l2::Switch* sw_a;
    l2::Switch* sw_b;
    Host* a0;
    Host* a1;
    Host* b0;
    Host* b1;
    attack::Attacker* attacker;
    bool started = false;
};

TEST(TwoSwitchTest, CrossSwitchResolutionAndTraffic) {
    TwoSwitchLan lan;
    lan.run_to(1);
    std::optional<MacAddress> resolved;
    lan.a0->resolve(Ipv4Address{192, 168, 1, 20}, [&](auto mac) { resolved = mac; });
    lan.run_to(2);
    EXPECT_EQ(resolved, lan.b0->mac());

    host::DeliveryLedger ledger;
    host::UdpSinkApp sink(*lan.b0, 7000, &ledger);
    host::TrafficApp traffic(*lan.a0, ledger,
                             {{1, Ipv4Address{192, 168, 1, 20}, 7000, Duration::millis(100)}});
    lan.run_to(10);
    EXPECT_GT(ledger.sent(), 50u);
    EXPECT_GT(ledger.delivery_ratio(), 0.95);
    // Both switches learned the remote stations through the uplink.
    EXPECT_TRUE(lan.sw_a->cam().size() >= 3);
    EXPECT_TRUE(lan.sw_b->cam().size() >= 3);
}

TEST(TwoSwitchTest, UnicastStaysOffOtherSegmentOnceLearned) {
    TwoSwitchLan lan;
    lan.run_to(1);
    // Prime CAM tables with bidirectional traffic.
    lan.a0->resolve(Ipv4Address{192, 168, 1, 11}, [](auto) {});
    lan.run_to(2);
    const auto edge_frames_before = lan.sw_b->forward_stats().received;
    // a0 -> a1 is local to the core switch now.
    lan.a0->send_udp(Ipv4Address{192, 168, 1, 11}, 1, 2, {1});
    lan.run_to(3);
    EXPECT_EQ(lan.sw_b->forward_stats().received, edge_frames_before);
}

TEST(TwoSwitchTest, PoisoningCrossesTheUplink) {
    // A victim on the core switch is reachable from an edge attacker: the
    // broadcast domain is the attack surface, not the switch.
    TwoSwitchLan lan;
    lan.run_to(1);
    lan.a0->resolve(Ipv4Address{192, 168, 1, 20}, [](auto) {});
    lan.run_to(2);
    lan.attacker->start_poison({Ipv4Address{192, 168, 1, 10}, lan.a0->mac(),
                                Ipv4Address{192, 168, 1, 20}, lan.attacker->mac(),
                                attack::PoisonVector::kUnsolicitedReply, Duration::zero()});
    lan.run_to(3);
    const auto entry = lan.a0->arp_cache().peek(Ipv4Address{192, 168, 1, 20});
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->mac, lan.attacker->mac());
}

TEST(TwoSwitchTest, DaiOnCoreOnlyMissesEdgeLocalPoisoning) {
    // Partial deployment: DAI protects the core switch, the edge switch is
    // unmanaged. Poisoning an edge host about another edge host never
    // crosses the core, so the protection never sees it.
    TwoSwitchLan lan;
    l2::ArpInspectionConfig dai;
    dai.enabled = true;
    dai.err_disable_on_rate = false;
    lan.sw_a->enable_dhcp_snooping({});
    lan.sw_a->enable_arp_inspection(dai);
    lan.sw_a->add_static_binding(Ipv4Address{192, 168, 1, 10}, lan.a0->mac(),
                                 l2::Switch::kAnyPort);
    lan.sw_a->add_static_binding(Ipv4Address{192, 168, 1, 11}, lan.a1->mac(),
                                 l2::Switch::kAnyPort);
    lan.sw_a->add_static_binding(Ipv4Address{192, 168, 1, 20}, lan.b0->mac(),
                                 l2::Switch::kAnyPort);
    lan.sw_a->add_static_binding(Ipv4Address{192, 168, 1, 21}, lan.b1->mac(),
                                 l2::Switch::kAnyPort);

    lan.run_to(1);
    // Prime b0's cache with the true binding of b1.
    lan.b0->resolve(Ipv4Address{192, 168, 1, 21}, [](auto) {});
    lan.run_to(2);

    // Edge-local poisoning (victim b0, spoofed b1) stays on the edge switch.
    lan.attacker->start_poison({Ipv4Address{192, 168, 1, 20}, lan.b0->mac(),
                                Ipv4Address{192, 168, 1, 21}, lan.attacker->mac(),
                                attack::PoisonVector::kUnsolicitedReply, Duration::zero()});
    lan.run_to(3);
    const auto entry = lan.b0->arp_cache().peek(Ipv4Address{192, 168, 1, 21});
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->mac, lan.attacker->mac());  // poisoned despite "deploying DAI"

    // The same forgery aimed at a *core* host is stopped at the core's
    // uplink port.
    lan.attacker->start_poison({Ipv4Address{192, 168, 1, 10}, lan.a0->mac(),
                                Ipv4Address{192, 168, 1, 21}, lan.attacker->mac(),
                                attack::PoisonVector::kUnsolicitedReply, Duration::zero()});
    lan.run_to(4);
    const auto core_entry = lan.a0->arp_cache().peek(Ipv4Address{192, 168, 1, 21});
    EXPECT_TRUE(!core_entry.has_value() || core_entry->mac != lan.attacker->mac());
    bool dai_dropped = false;
    for (const auto& ev : lan.sw_a->events()) {
        if (ev.kind == l2::SwitchEventKind::kDaiDrop) dai_dropped = true;
    }
    EXPECT_TRUE(dai_dropped);
}

TEST(TwoSwitchTest, CoreMirrorMonitorHasEdgeBlindSpot) {
    // A monitor on the core switch's SPAN port never sees edge-local
    // traffic: arpwatch deployed "centrally" misses edge-local poisoning.
    TwoSwitchLan lan;
    auto& monitor =
        lan.net.emplace_node<detect::MonitorNode>("monitor", MacAddress::local(0x999));
    lan.net.connect({monitor.id(), 0}, {lan.sw_a->id(), 4});
    lan.sw_a->set_mirror_port(4);

    detect::AlertSink alerts;
    detect::ArpwatchScheme arpwatch;
    detect::DeploymentContext ctx;
    ctx.net = &lan.net;
    ctx.alerts = &alerts;
    arpwatch.deploy(ctx);
    arpwatch.attach_monitor(monitor);

    lan.run_to(1);
    lan.b0->resolve(Ipv4Address{192, 168, 1, 21}, [](auto) {});
    lan.run_to(2);
    const auto alerts_before = alerts.count();

    // Edge-local poisoning: unicast to b0 stays on the edge switch once
    // CAM tables are warm, so the core monitor sees nothing.
    lan.attacker->start_poison({Ipv4Address{192, 168, 1, 20}, lan.b0->mac(),
                                Ipv4Address{192, 168, 1, 21}, lan.attacker->mac(),
                                attack::PoisonVector::kUnsolicitedReply, Duration::zero()});
    lan.run_to(3);
    EXPECT_EQ(alerts.count(), alerts_before);  // blind spot

    // Poisoning a core host crosses the uplink and is spotted.
    lan.attacker->start_poison({Ipv4Address{192, 168, 1, 10}, lan.a0->mac(),
                                Ipv4Address{192, 168, 1, 21}, lan.attacker->mac(),
                                attack::PoisonVector::kUnsolicitedReply, Duration::zero()});
    lan.run_to(4);
    EXPECT_GT(alerts.count(), alerts_before);
}

TEST(TwoSwitchTest, FloodingPropagatesThroughUplink) {
    TwoSwitchLan lan;
    lan.run_to(1);
    lan.attacker->start_mac_flood(3000, 20'000.0);
    lan.run_to(3);
    // The random sources are learned by both switches (flooded frames have
    // random unicast destinations, which are unknown and hence flooded
    // across the uplink too).
    EXPECT_TRUE(lan.sw_b->cam().full());
    EXPECT_TRUE(lan.sw_a->cam().full());
}

}  // namespace
}  // namespace arpsec
