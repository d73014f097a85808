#include "check/harness.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "attack/attacker.hpp"
#include "detect/lan.hpp"
#include "host/apps.hpp"
#include "host/dhcp_server.hpp"
#include "host/host.hpp"
#include "l2/switch.hpp"
#include "sim/network.hpp"
#include "telemetry/metrics.hpp"
#include "wire/arp_packet.hpp"
#include "wire/ethernet.hpp"

namespace arpsec::check {

using common::Duration;
using common::SimTime;
using wire::ArpPacket;
using wire::EthernetFrame;
using wire::Ipv4Address;
using wire::MacAddress;

namespace {

/// Global tap with two jobs: record legitimate ARP frames during the
/// settle phase (the replay-event pool) and track which (IP, MAC)
/// bindings were observable from the mirror port (the prior knowledge a
/// passive monitor could have accumulated).
class CheckTap final : public sim::CaptureTap {
public:
    CheckTap(MacAddress attacker_mac, sim::NodeId monitor, SimTime settle_end)
        : attacker_mac_(attacker_mac), monitor_(monitor), settle_end_(settle_end) {}

    void on_capture(SimTime at, sim::Endpoint from, sim::Endpoint to,
                    const wire::FrameView& view) override {
        (void)from;
        if (!view.ok()) return;
        if (view.ether_type() != wire::EtherType::kArp) return;
        if (view.src() == attacker_mac_) return;
        if (at < settle_end_ && legit_frames_.size() < kMaxLegitFrames) {
            // Shares the transmit buffer: the pool holds refcounts, and a
            // later kReplayLegit injection puts these exact bytes back on
            // the wire with zero copies.
            legit_frames_.push_back(view.buffer());
        }
        if (to.node == monitor_) {
            const ArpPacket* arp = view.arp();
            if (arp != nullptr && !arp->sender_ip.is_any()) {
                announced_.insert({arp->sender_ip.value(), arp->sender_mac.to_u64()});
            }
        }
    }

    [[nodiscard]] const std::vector<wire::FrameBuffer>& legit_frames() const {
        return legit_frames_;
    }
    [[nodiscard]] bool announced(Ipv4Address ip, MacAddress mac) const {
        return announced_.count({ip.value(), mac.to_u64()}) > 0;
    }

private:
    static constexpr std::size_t kMaxLegitFrames = 512;

    MacAddress attacker_mac_;
    sim::NodeId monitor_;
    SimTime settle_end_;
    std::vector<wire::FrameBuffer> legit_frames_;
    std::set<std::pair<std::uint32_t, std::uint64_t>> announced_;
};

/// Feeds the mirror-port frame stream to a FrameRecorder with ground
/// truth. Origin tracking is by byte identity: the tap remembers recent
/// attacker transmissions and labels a monitor delivery as an attack when
/// it matches one of them (the switch mirrors frames verbatim). Matched
/// entries are consumed so a replayed legit frame marks exactly one
/// delivery, and stale entries are pruned after a short window.
class RecorderTap final : public sim::CaptureTap {
public:
    RecorderTap(sim::NodeId attacker, sim::NodeId monitor, FrameRecorder* recorder)
        : attacker_(attacker), monitor_(monitor), recorder_(recorder) {}

    void on_capture(SimTime at, sim::Endpoint from, sim::Endpoint to,
                    const wire::FrameView& view) override {
        if (from.node == attacker_) {
            // A refcount on the attacker's transmit buffer, not a copy.
            pending_.push_back({at, view.buffer()});
        }
        if (to.node != monitor_) return;
        while (!pending_.empty() && at - pending_.front().at > kMatchWindow) {
            pending_.pop_front();
        }
        const auto raw = view.bytes();
        bool attack = false;
        for (auto it = pending_.begin(); it != pending_.end(); ++it) {
            // Mirrored frames share the ingress buffer, so identity catches
            // the common case; byte equality keeps the oracle exact.
            const auto pending_bytes = it->buffer.bytes();
            if (it->buffer.identity() == view.buffer().identity() ||
                (pending_bytes.size() == raw.size() &&
                 std::equal(pending_bytes.begin(), pending_bytes.end(), raw.begin()))) {
                attack = true;
                pending_.erase(it);
                break;
            }
        }
        recorder_->on_monitor_frame(at, attack, raw);
    }

private:
    struct Pending {
        SimTime at;
        wire::FrameBuffer buffer;
    };
    static constexpr Duration kMatchWindow = Duration::millis(100);

    sim::NodeId attacker_;
    sim::NodeId monitor_;
    FrameRecorder* recorder_;
    std::deque<Pending> pending_;
};

/// All live state of one checked run.
struct RunState {
    const CheckScenario* scenario = nullptr;
    telemetry::MetricsRegistry metrics;
    std::unique_ptr<detect::Lan> lan;
    host::Host* gateway = nullptr;
    std::vector<host::Host*> hosts;
    attack::Attacker* attacker = nullptr;
    std::unique_ptr<host::DhcpServer> dhcp_server;
    std::vector<std::unique_ptr<host::UdpSinkApp>> sinks;
    std::unique_ptr<detect::Scheme> scheme;
    detect::SchemeTraits traits;
    detect::AlertSink alerts;
    crypto::OpCounters crypto_ops;
    std::unique_ptr<CheckTap> tap;
    std::unique_ptr<RecorderTap> recorder_tap;
    MacAddress dos_mac = MacAddress::local(0xDEAD00);
    std::set<std::uint32_t> directory_ips;

    // Cache observation state, diffed at every check step.
    enum class Binding : std::uint8_t { kAbsent, kCorrect, kWrong };
    struct Observed {
        Binding binding = Binding::kAbsent;
        MacAddress mac;  // only meaningful for kWrong
    };
    std::map<std::pair<std::size_t, std::uint32_t>, Observed> observed;
    std::vector<PoisonObservation> new_poisons;
    std::vector<PoisonObservation> all_poisons;
    std::vector<Violation> violations;
    std::set<std::string> violated_oracles;

    [[nodiscard]] std::size_t host_count() const { return hosts.size(); }
    /// Station indexing: 0..host_count-1 are hosts, host_count the gateway.
    [[nodiscard]] host::Host* station(std::size_t idx) {
        return idx < hosts.size() ? hosts[idx] : gateway;
    }
    [[nodiscard]] std::size_t station_count() const { return hosts.size() + 1; }
};

Ipv4Address gateway_ip() { return Ipv4Address{192, 168, 1, 1}; }
Ipv4Address static_host_ip(std::size_t i) {
    return Ipv4Address{192, 168, 1, static_cast<std::uint8_t>(10 + i)};
}

void build_lan(RunState& rs) {
    const CheckScenario& s = *rs.scenario;
    const std::size_t ports = s.host_count + 12;  // stations + infra headroom
    rs.lan = std::make_unique<detect::Lan>(s.seed, ports);
    sim::Network& net = rs.lan->net();
    net.attach_metrics(rs.metrics);

    sim::LinkConfig lossy;
    lossy.loss_probability = s.link_loss;

    // Gateway + DHCP server. Infrastructure links are lossless: the
    // detection oracle's soundness argument needs the mirror copy of every
    // switched frame to actually reach the monitor.
    host::HostConfig gw_cfg;
    gw_cfg.name = "gateway";
    gw_cfg.mac = MacAddress::local(1);
    gw_cfg.static_ip = gateway_ip();
    gw_cfg.gateway = gateway_ip();
    rs.gateway = &net.emplace_node<host::Host>(gw_cfg);
    rs.lan->fabric().set_trusted_port(rs.lan->attach(rs.gateway->id()), true);

    host::DhcpServer::Config dhcp_cfg;
    dhcp_cfg.pool_start = Ipv4Address{192, 168, 1, 100};
    dhcp_cfg.pool_size = static_cast<std::uint32_t>(s.host_count + 2);
    dhcp_cfg.router = gateway_ip();
    rs.dhcp_server = std::make_unique<host::DhcpServer>(*rs.gateway, dhcp_cfg);
    rs.sinks.push_back(std::make_unique<host::UdpSinkApp>(*rs.gateway, 7000, nullptr));

    for (std::size_t i = 0; i < s.host_count; ++i) {
        host::HostConfig cfg;
        cfg.name = "host" + std::to_string(i);
        cfg.mac = MacAddress::local(10 + i);
        if (!s.dhcp) cfg.static_ip = static_host_ip(i);
        cfg.gateway = gateway_ip();
        host::Host& h = net.emplace_node<host::Host>(cfg);
        rs.lan->attach(h.id(), lossy);
        rs.hosts.push_back(&h);
        rs.sinks.push_back(std::make_unique<host::UdpSinkApp>(h, 7000, nullptr));
    }

    attack::Attacker::Config atk;
    atk.mac = MacAddress::local(0x666);
    atk.ip = Ipv4Address{192, 168, 1, 250};
    rs.attacker = &net.emplace_node<attack::Attacker>(atk);
    rs.lan->attach(rs.attacker->id(), lossy);

    rs.lan->add_monitor();
}

void deploy_scheme(RunState& rs) {
    const CheckScenario& s = *rs.scenario;
    detect::DeploymentContext ctx;
    ctx.alerts = &rs.alerts;
    ctx.ops = &rs.crypto_ops;
    ctx.directory.push_back({"gateway", gateway_ip(), rs.gateway->mac()});
    if (!s.dhcp) {
        for (std::size_t i = 0; i < rs.hosts.size(); ++i) {
            ctx.directory.push_back(
                {rs.hosts[i]->name(), static_host_ip(i), rs.hosts[i]->mac()});
        }
    }
    for (const detect::HostRecord& r : ctx.directory) rs.directory_ips.insert(r.ip.value());

    std::vector<host::Host*> protect{rs.gateway};
    protect.insert(protect.end(), rs.hosts.begin(),
                   rs.hosts.begin() + static_cast<std::ptrdiff_t>(
                                          std::min(s.protected_hosts, rs.hosts.size())));
    rs.lan->deploy(*rs.scheme, std::move(ctx), protect);
}

/// Settle-phase stimulus: every host talks to the gateway in both
/// directions and to one peer, so caches (and the monitor's view) hold the
/// true bindings before the adversarial schedule starts.
void schedule_settle_traffic(RunState& rs) {
    const CheckScenario& s = *rs.scenario;
    auto& sched = rs.lan->net().scheduler();
    const Duration base = s.dhcp ? Duration::millis(1500) : Duration::millis(500);
    const wire::Bytes ping{0xA5, 0x5A};
    for (std::size_t i = 0; i < rs.hosts.size(); ++i) {
        host::Host* h = rs.hosts[i];
        const auto step = Duration::millis(150) * static_cast<std::int64_t>(i);
        sched.schedule_at(SimTime::zero() + base + step, [h, ping] {
            if (h->has_ip()) h->send_udp(gateway_ip(), 40000, 7000, ping);
        });
        sched.schedule_at(SimTime::zero() + base + Duration::millis(700) + step,
                          [&rs, h, ping] {
                              if (h->has_ip()) rs.gateway->send_udp(h->ip(), 40000, 7000, ping);
                          });
        host::Host* peer = rs.hosts[(i + 1) % rs.hosts.size()];
        if (peer != h) {
            sched.schedule_at(SimTime::zero() + base + Duration::millis(1400) + step,
                              [h, peer, ping] {
                                  if (h->has_ip() && peer->has_ip()) {
                                      h->send_udp(peer->ip(), 40001, 7000, ping);
                                  }
                              });
        }
    }
}

void inject_event(RunState& rs, const InjectedEvent& e) {
    const std::size_t n = rs.host_count();
    const std::size_t victim_idx = e.target % n;
    host::Host* victim = rs.hosts[victim_idx];

    if (e.kind == InjectKind::kReplayLegit) {
        const auto& pool = rs.tap->legit_frames();
        if (pool.empty()) return;
        // The pool holds the original transmit buffers: the replayed frame
        // is the captured allocation itself, bytes and auth trailers intact.
        rs.attacker->inject_raw(wire::FrameView{pool[e.aux % pool.size()]});
        return;
    }
    if (e.kind == InjectKind::kBenignTraffic) {
        std::size_t peer_idx = e.aux % (n + 1);
        if (peer_idx == victim_idx) peer_idx = n;  // fall back to the gateway
        host::Host* peer = rs.station(peer_idx);
        if (victim->has_ip() && peer->has_ip()) {
            victim->send_udp(peer->ip(), 40002, 7000, wire::Bytes{0x42});
        }
        return;
    }

    // Forgery kinds: claim that `spoofed`'s IP lives at the claimed MAC.
    std::size_t spoofed_idx = e.spoofed % (n + 1);
    if (spoofed_idx == victim_idx) spoofed_idx = n;
    host::Host* spoofed = rs.station(spoofed_idx);
    if (!victim->has_ip() || !spoofed->has_ip()) return;
    const Ipv4Address victim_ip = victim->ip();
    const Ipv4Address spoofed_ip = spoofed->ip();
    const MacAddress claimed = e.claim_attacker_mac ? rs.attacker->mac() : rs.dos_mac;

    EthernetFrame f;
    f.ether_type = wire::EtherType::kArp;
    // consistent_l2 keeps the Ethernet source equal to the claimed sender
    // MAC (stealthier); otherwise the frame betrays a different source.
    f.src = e.consistent_l2 ? claimed
                            : (claimed == rs.attacker->mac() ? rs.dos_mac : rs.attacker->mac());
    ArpPacket pkt;
    switch (e.kind) {
        case InjectKind::kForgedReply:
            pkt = ArpPacket::reply(claimed, spoofed_ip, victim->mac(), victim_ip);
            f.dst = victim->mac();
            break;
        case InjectKind::kForgedRequest:
            pkt = ArpPacket::request(claimed, spoofed_ip, victim_ip);
            f.dst = MacAddress::broadcast();
            break;
        case InjectKind::kGratuitousRequest:
            pkt = ArpPacket::gratuitous(claimed, spoofed_ip, /*as_reply=*/false);
            f.dst = MacAddress::broadcast();
            break;
        case InjectKind::kGratuitousReply:
            pkt = ArpPacket::gratuitous(claimed, spoofed_ip, /*as_reply=*/true);
            f.dst = MacAddress::broadcast();
            break;
        case InjectKind::kReplayLegit:
        case InjectKind::kBenignTraffic:
            return;  // handled above
    }
    f.payload = pkt.serialize();
    rs.attacker->inject_raw(f);
}

/// Diffs every station's ARP cache against ground truth and records
/// wrong-MAC transitions as PoisonObservations.
void observe_caches(RunState& rs) {
    rs.new_poisons.clear();
    struct Truth {
        std::size_t owner;
        Ipv4Address ip;
        MacAddress mac;
    };
    std::vector<Truth> truth;
    for (std::size_t o = 0; o < rs.station_count(); ++o) {
        host::Host* st = rs.station(o);
        if (st->has_ip()) truth.push_back({o, st->ip(), st->mac()});
    }
    for (std::size_t si = 0; si < rs.station_count(); ++si) {
        host::Host* st = rs.station(si);
        for (const Truth& t : truth) {
            if (t.owner == si) continue;
            const auto key = std::make_pair(si, t.ip.value());
            RunState::Observed cur;
            if (const auto entry = st->arp_cache().peek(t.ip)) {
                cur.binding = entry->mac == t.mac ? RunState::Binding::kCorrect
                                                  : RunState::Binding::kWrong;
                cur.mac = entry->mac;
            }
            const RunState::Observed prev = rs.observed[key];
            const bool newly_wrong =
                cur.binding == RunState::Binding::kWrong &&
                (prev.binding != RunState::Binding::kWrong || prev.mac != cur.mac);
            if (newly_wrong) {
                PoisonObservation p;
                p.station = si;
                p.owner = t.owner;
                p.ip = t.ip;
                p.mac = cur.mac;
                p.at = rs.lan->net().now();
                p.overwrite = prev.binding == RunState::Binding::kCorrect;
                p.directory_ip = rs.directory_ips.count(t.ip.value()) > 0;
                p.announced = rs.tap->announced(t.ip, t.mac);
                rs.new_poisons.push_back(p);
                rs.all_poisons.push_back(p);
            }
            rs.observed[key] = cur;
        }
    }
}

void check_step(RunState& rs, const std::vector<std::unique_ptr<Oracle>>& oracles,
                bool final_check, std::size_t last_event) {
    observe_caches(rs);
    CheckContext ctx;
    ctx.scenario = rs.scenario;
    ctx.traits = &rs.traits;
    ctx.net = &rs.lan->net();
    ctx.alerts = &rs.alerts;
    ctx.metrics = &rs.metrics;
    ctx.host_count = rs.host_count();
    ctx.protected_hosts = std::min(rs.scenario->protected_hosts, rs.host_count());
    ctx.new_poisons = &rs.new_poisons;
    ctx.all_poisons = &rs.all_poisons;
    ctx.final_check = final_check;
    ctx.last_event = last_event;
    for (const auto& oracle : oracles) {
        // Report each oracle's first finding only: a broken invariant
        // usually stays broken, and one witness is all the shrinker needs.
        if (rs.violated_oracles.count(oracle->name()) > 0) continue;
        std::vector<Violation> out;
        oracle->check(ctx, out);
        if (!out.empty()) {
            rs.violated_oracles.insert(oracle->name());
            rs.violations.insert(rs.violations.end(), out.begin(), out.end());
        }
    }
}

}  // namespace

std::vector<detect::HostRecord> lan_directory(const CheckScenario& scenario) {
    std::vector<detect::HostRecord> dir;
    dir.push_back({"gateway", gateway_ip(), MacAddress::local(1)});
    if (!scenario.dhcp) {
        for (std::size_t i = 0; i < scenario.host_count; ++i) {
            dir.push_back({"host" + std::to_string(i), static_host_ip(i),
                           MacAddress::local(10 + i)});
        }
    }
    return dir;
}

RunOutcome Harness::run(const CheckScenario& scenario) const {
    RunState rs;
    rs.scenario = &scenario;
    rs.scheme = registry_->make(scenario.scheme);
    if (rs.scheme == nullptr) {
        throw std::runtime_error("check: unknown scheme '" + scenario.scheme + "'");
    }
    rs.traits = rs.scheme->traits();

    build_lan(rs);
    deploy_scheme(rs);

    sim::Network& net = rs.lan->net();
    const sim::NodeId monitor = rs.lan->monitor()->id();
    const SimTime t0 = SimTime::zero() + scenario.settle;
    rs.tap = std::make_unique<CheckTap>(rs.attacker->mac(), monitor, t0);
    net.add_tap(rs.tap.get());
    if (recorder_ != nullptr) {
        rs.recorder_tap = std::make_unique<RecorderTap>(rs.attacker->id(), monitor, recorder_);
        net.add_tap(rs.recorder_tap.get());
    }

    net.start_all();
    schedule_settle_traffic(rs);

    std::vector<InjectedEvent> events = scenario.events;
    std::stable_sort(events.begin(), events.end(),
                     [](const InjectedEvent& a, const InjectedEvent& b) { return a.at < b.at; });

    auto& sched = net.scheduler();
    sched.run_until(t0);
    check_step(rs, *oracles_, /*final_check=*/false, Violation::kNoEvent);

    std::size_t last = Violation::kNoEvent;
    for (std::size_t i = 0; i < events.size(); ++i) {
        sched.run_until(t0 + events[i].at);
        check_step(rs, *oracles_, /*final_check=*/false, last);
        inject_event(rs, events[i]);
        last = i;
    }
    const Duration tail = events.empty() ? Duration::zero() : events.back().at;
    sched.run_until(t0 + tail + scenario.grace);
    check_step(rs, *oracles_, /*final_check=*/true, last);

    RunOutcome out;
    out.violations = std::move(rs.violations);
    out.alerts = rs.alerts.count();
    out.poisons = rs.all_poisons.size();
    out.frames = net.counters().frames;
    out.events_executed = net.scheduler().executed();
    return out;
}

}  // namespace arpsec::check
