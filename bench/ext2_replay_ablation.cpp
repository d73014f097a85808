// EXT2 — Replay ablation for the cryptographic schemes: the adversary
// captures a legitimately authenticated ARP reply off the wire and
// re-injects it verbatim after a delay. S-ARP bounds the replay window by
// its timestamp tolerance (default 30 s); TARP tickets stay replayable
// until expiry (default 1 h) — the freshness-vs-cost trade the two designs
// make. The victim runs a permissive cache policy so the crypto layer is
// the only thing standing between the replay and the cache.

#include <cstdio>
#include <memory>

#include "attack/attacker.hpp"
#include "core/report.hpp"
#include "exp/bench_main.hpp"
#include "detect/lan.hpp"
#include "detect/sarp.hpp"
#include "detect/tarp.hpp"
#include "host/host.hpp"

using namespace arpsec;
using common::Duration;
using common::SimTime;
using wire::EthernetFrame;
using wire::Ipv4Address;
using wire::MacAddress;

namespace {

/// Captures the first authenticated ARP reply `from_mac` sends to the
/// victim (bootstrap replies toward the key server are skipped).
class ReplyCapture final : public sim::CaptureTap {
public:
    ReplyCapture(MacAddress from_mac, Ipv4Address to_ip) : from_(from_mac), to_ip_(to_ip) {}

    void on_capture(common::SimTime, sim::Endpoint, sim::Endpoint,
                    const wire::FrameView& view) override {
        if (captured_) return;
        if (!view.ok() || view.src() != from_ || view.ether_type() != wire::EtherType::kArp) {
            return;
        }
        const wire::ArpPacket* arp = view.arp();
        if (arp == nullptr || arp->op != wire::ArpOp::kReply || arp->auth.empty() ||
            arp->target_ip != to_ip_) {
            return;
        }
        captured_ = view;
    }

    [[nodiscard]] const std::optional<wire::FrameView>& frame() const { return captured_; }

private:
    MacAddress from_;
    Ipv4Address to_ip_;
    std::optional<wire::FrameView> captured_;
};

struct ReplayResult {
    bool captured = false;
    bool accepted = false;  // replay landed in the victim's cache
};

ReplayResult run_replay(detect::Scheme& scheme, Duration replay_after) {
    detect::Lan lan(6, 8);
    sim::Network& net = lan.net();

    const Ipv4Address victim_ip{192, 168, 1, 10};
    const Ipv4Address owner_ip{192, 168, 1, 20};

    host::HostConfig vcfg;
    vcfg.name = "victim";
    vcfg.mac = MacAddress::local(10);
    vcfg.static_ip = victim_ip;
    vcfg.arp_policy = arp::CachePolicy::windows_xp();  // crypto is the only guard
    auto& victim = net.emplace_node<host::Host>(vcfg);
    lan.attach(victim.id());

    host::HostConfig ocfg;
    ocfg.name = "owner";
    ocfg.mac = MacAddress::local(20);
    ocfg.static_ip = owner_ip;
    ocfg.arp_policy = arp::CachePolicy::windows_xp();
    auto& owner = net.emplace_node<host::Host>(ocfg);
    lan.attach(owner.id());

    attack::Attacker::Config acfg;
    acfg.mac = MacAddress::local(0x666);
    auto& attacker = net.emplace_node<attack::Attacker>(acfg);
    lan.attach(attacker.id());

    // Deploy the scheme (S-ARP adds its AKD as a real node).
    crypto::OpCounters ops;
    detect::AlertSink alerts;
    detect::DeploymentContext ctx;
    ctx.alerts = &alerts;
    ctx.ops = &ops;
    ctx.directory = {{"victim", victim_ip, victim.mac()}, {"owner", owner_ip, owner.mac()}};
    host::Host* const protect[] = {&victim, &owner};
    lan.deploy(scheme, std::move(ctx), protect);

    ReplyCapture capture(owner.mac(), victim_ip);
    net.add_tap(&capture);

    net.start_all();
    auto& sched = net.scheduler();

    // Legitimate exchange at t=1 s: victim resolves the owner; the owner's
    // authenticated reply is captured off the wire.
    sched.schedule_at(SimTime::zero() + Duration::seconds(1), [&] {
        // The owner's boot announcement may have pre-filled the cache
        // (windows policy accepts gratuitous creates); force a real
        // request/reply exchange so there is a reply to capture.
        victim.arp_cache().evict(owner_ip);
        victim.resolve(owner_ip, [](auto) {});
    });
    sched.run_until(SimTime::zero() + Duration::seconds(3));

    ReplayResult result;
    result.captured = capture.frame().has_value();
    if (!result.captured) return result;

    // Replay after the chosen delay against an emptied cache.
    const SimTime replay_at = SimTime::zero() + Duration::seconds(1) + replay_after;
    sched.schedule_at(replay_at, [&] {
        victim.arp_cache().evict(owner_ip);
        attacker.inject_raw(*capture.frame());
    });
    sched.run_until(replay_at + Duration::seconds(5));

    result.accepted = victim.arp_cache().peek(owner_ip).has_value();
    return result;
}

}  // namespace

int main(int argc, char** argv) {
    const auto opt = exp::parse_bench_args(argc, argv);
    const std::vector<Duration> delays = {Duration::seconds(5), Duration::seconds(20),
                                          Duration::seconds(60), Duration::seconds(600),
                                          Duration::seconds(4000)};

    struct Variant {
        std::string label;
        std::string bound;
        std::function<std::unique_ptr<detect::Scheme>()> make;
    };
    // Short-lived tickets close most of TARP's window at the price of
    // frequent reissue traffic.
    detect::TarpScheme::Options short_tickets;
    short_tickets.ticket_lifetime = Duration::seconds(60);
    const std::vector<Variant> variants = {
        {"s-arp", "timestamp tolerance 30s",
         [] { return std::make_unique<detect::SArpScheme>(); }},
        {"tarp", "ticket lifetime 3600s",
         [] { return std::make_unique<detect::TarpScheme>(); }},
        {"tarp (60s tickets)", "ticket lifetime 60s",
         [short_tickets] { return std::make_unique<detect::TarpScheme>(short_tickets); }},
    };

    std::vector<std::size_t> variant_ids;
    for (std::size_t v = 0; v < variants.size(); ++v) variant_ids.push_back(v);
    const auto cases = exp::cross(variant_ids, delays);
    const auto replays =
        exp::map_cases<ReplayResult>(cases, opt.jobs, [&](const auto& c) {
            auto scheme = variants[c.first].make();
            return run_replay(*scheme, c.second);
        });
    const std::size_t failures = exp::report_case_failures("ext2_replay", replays);

    core::TextTable table(
        "EXT2 — Replay of a captured authenticated ARP reply (accepted by victim?)");
    std::vector<std::string> headers{"scheme", "freshness bound"};
    for (const auto d : delays) headers.push_back("replay +" + d.to_string());
    table.set_headers(headers);
    for (std::size_t v = 0; v < variants.size(); ++v) {
        std::vector<std::string> row{variants[v].label, variants[v].bound};
        for (std::size_t d = 0; d < delays.size(); ++d) {
            const auto& r = replays[v * delays.size() + d].value;
            row.push_back(!r.captured ? "n/a" : (r.accepted ? "ACCEPTED" : "rejected"));
        }
        table.add_row(std::move(row));
    }
    table.print();

    std::puts("");
    std::puts("Reading: both schemes accept replays inside their freshness bound —");
    std::puts("S-ARP's is its clock-skew tolerance (seconds), TARP's is the ticket");
    std::puts("lifetime (an hour by default). A replayed packet only re-asserts the");
    std::puts("binding it legitimately attested, so the practical exposure is");
    std::puts("re-pinning a *stale* binding after the station moved — shorter");
    std::puts("tickets shrink that window in exchange for reissue load.");
    return exp::finish_bench(failures);
}
