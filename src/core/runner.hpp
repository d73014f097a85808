#pragma once

#include <memory>
#include <set>
#include <vector>

#include "attack/attacker.hpp"
#include "core/scenario.hpp"
#include "detect/lan.hpp"
#include "detect/scheme.hpp"
#include "host/apps.hpp"
#include "host/dhcp_server.hpp"
#include "host/host.hpp"
#include "host/ledger.hpp"
#include "l2/switch.hpp"
#include "sim/network.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace arpsec::core {

/// Builds the standard single-switch LAN testbed (gateway + DHCP server,
/// n hosts, attacker, mirror-port monitor), deploys one scheme, runs the
/// scenario timeline, and computes the metrics. This harness is the
/// executable form of the paper's analysis: every table and figure is a
/// sweep over ScenarioRunner runs.
class ScenarioRunner {
public:
    explicit ScenarioRunner(ScenarioConfig config);
    ~ScenarioRunner();

    ScenarioRunner(const ScenarioRunner&) = delete;
    ScenarioRunner& operator=(const ScenarioRunner&) = delete;

    /// Runs the full scenario under `scheme` and returns the metrics.
    ScenarioResult run(detect::Scheme& scheme);

    /// Like run(), but attaches a capture tap (e.g. a PcapTap) to the
    /// network before traffic starts, recording every frame on the wire.
    ScenarioResult run_with_tap(detect::Scheme& scheme, sim::CaptureTap* tap);

    /// Convenience: construct + run a registered scheme in one call.
    static ScenarioResult run_scheme(const ScenarioConfig& config, detect::Scheme& scheme);

    // ---- Accessors (valid after run(); used by tests and examples) --------
    [[nodiscard]] sim::Network& network() { return lan_->net(); }
    [[nodiscard]] l2::Switch& fabric() { return lan_->fabric(); }
    [[nodiscard]] host::Host& gateway() { return *gateway_; }
    [[nodiscard]] host::Host& victim() { return *hosts_.front(); }
    [[nodiscard]] std::vector<host::Host*>& hosts() { return hosts_; }
    [[nodiscard]] attack::Attacker& attacker() { return *attacker_; }
    [[nodiscard]] detect::MonitorNode& monitor() { return *lan_->monitor(); }
    [[nodiscard]] detect::AlertSink& alerts() { return alert_sink_; }
    [[nodiscard]] host::DeliveryLedger& ledger() { return ledger_; }

    [[nodiscard]] const ScenarioConfig& config() const { return config_; }

    /// Per-run metric store. Live `sim.*` series accumulate during the run;
    /// the `l2.*`, `arp.*`, `detect.*` and `crypto.*` aggregates are
    /// published when run() collects. Feed this to core::run_json() for the
    /// machine-readable artifact.
    [[nodiscard]] telemetry::MetricsRegistry& metrics() { return metrics_; }

    /// Optional structured tracer (not owned; may be null). Records the
    /// scenario timeline — window spans, attack launch/halt, churn, alerts —
    /// in simulated time. Set before run().
    void set_tracer(telemetry::EventTracer* tracer) { tracer_ = tracer; }

    /// Flow id used by the designated victim's traffic toward the gateway.
    static constexpr std::uint32_t kVictimFlowId = 1;

    /// Subnet/addressing plan used by the harness (shared with benches).
    static wire::Ipv4Subnet subnet() { return {wire::Ipv4Address{192, 168, 1, 0}, 24}; }
    static wire::Ipv4Address gateway_ip() { return {192, 168, 1, 1}; }
    static wire::Ipv4Address static_host_ip(std::size_t index) {
        return {192, 168, 1, static_cast<std::uint8_t>(10 + index)};
    }

private:
    void build();
    void deploy(detect::Scheme& scheme);
    void schedule_timeline();
    void launch_attack();
    void halt_attack();
    ScenarioResult collect(detect::Scheme& scheme);
    void publish_metrics(const ScenarioResult& r);
    void trace_timeline(const ScenarioResult& r);
    [[nodiscard]] bool is_attacker_alert(const detect::Alert& a) const;

    ScenarioConfig config_;
    std::unique_ptr<detect::Lan> lan_;
    host::Host* gateway_ = nullptr;
    std::unique_ptr<host::DhcpServer> dhcp_server_;
    std::vector<host::Host*> hosts_;
    std::vector<std::unique_ptr<host::TrafficApp>> traffic_apps_;
    std::vector<std::unique_ptr<host::UdpSinkApp>> sink_apps_;
    attack::Attacker* attacker_ = nullptr;
    detect::AlertSink alert_sink_;
    host::DeliveryLedger ledger_;

    std::set<wire::MacAddress> attacker_macs_;
    wire::MacAddress dos_mac_;
    wire::Ipv4Address victim_ip_at_attack_;
    wire::Ipv4Address gateway_ip_at_attack_;

    WindowStats snapshot_at_attack_start_;
    WindowStats snapshot_at_attack_stop_;
    host::DeliveryLedger::FlowStats victim_flow_at_start_;
    host::DeliveryLedger::FlowStats victim_flow_at_stop_;
    crypto::OpCounters crypto_ops_;
    bool victim_poisoned_at_end_ = false;
    detect::Scheme* active_scheme_ = nullptr;  // for churn-joiner protection

    telemetry::MetricsRegistry metrics_;
    telemetry::EventTracer* tracer_ = nullptr;
};

}  // namespace arpsec::core
