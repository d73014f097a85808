#pragma once

#include <functional>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "l2/cam_table.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "telemetry/metrics.hpp"
#include "wire/arp_packet.hpp"
#include "wire/dhcp_message.hpp"

namespace arpsec::l2 {

/// Per-port MAC limiting (Cisco "switchport port-security").
struct PortSecurityConfig {
    bool enabled = false;
    std::size_t max_macs_per_port = 1;
    bool shutdown_on_violation = true;  // err-disable the port
    /// Sticky mode: once a MAC is seen on one untrusted port, its
    /// appearance on a different untrusted port is a violation (stops
    /// MAC cloning / port stealing).
    bool sticky = false;
};

/// Dynamic ARP Inspection (Cisco DAI): validate the sender binding of every
/// ARP packet received on an untrusted port against the DHCP snooping table
/// (plus static bindings); drop and log violations; rate-limit ARP.
struct ArpInspectionConfig {
    bool enabled = false;
    bool validate_src_mac = true;       // ARP sender MAC must equal frame source MAC
    std::uint32_t rate_limit_pps = 15;  // Cisco default for untrusted ports
    bool err_disable_on_rate = true;
};

enum class SwitchEventKind {
    kPortSecurityViolation,
    kPortShutdown,
    kDaiDrop,
    kDaiRateLimited,
    kDhcpSnoopDrop,       // rogue DHCP server message on untrusted port
    kBindingAdded,
    kCamFull,
};

[[nodiscard]] std::string to_string(SwitchEventKind k);

struct SwitchEvent {
    common::SimTime at;
    SwitchEventKind kind;
    sim::PortId port = 0;
    wire::MacAddress mac;
    wire::Ipv4Address ip;
    std::string detail;
};

/// DHCP-snooping binding: what the switch believes about (IP, MAC, port).
struct SnoopBinding {
    wire::MacAddress mac;
    sim::PortId port = 0;
    common::SimTime expires;
};

/// A managed learning switch. Baseline behaviour is a plain store-and-
/// forward L2 switch with a bounded CAM; the managed features (mirroring,
/// port security, DHCP snooping, DAI) are enabled by the switch-based
/// prevention schemes.
class Switch final : public sim::Node {
public:
    /// Binding port wildcard: the binding is valid on any port (static
    /// bindings configured without port pinning).
    static constexpr sim::PortId kAnyPort = 0xFFFF;

    Switch(std::string name, std::size_t port_count, CamConfig cam = {});

    void start() override;
    void on_frame(sim::PortId in_port, const wire::FrameView& view) override;

    // ---- Managed features -------------------------------------------------
    /// Mirrors every received frame to `port` (SPAN). The detector node
    /// plugs into this port, like the Raspberry Pi in a lab testbed.
    void set_mirror_port(std::optional<sim::PortId> port) { mirror_port_ = port; }

    void set_port_security(PortSecurityConfig cfg) { port_security_ = cfg; }

    /// Enables DHCP snooping; `trusted_ports` are where legitimate DHCP
    /// servers live (server replies on other ports are dropped as rogue).
    void enable_dhcp_snooping(std::set<sim::PortId> trusted_ports);
    [[nodiscard]] bool dhcp_snooping_enabled() const { return snooping_enabled_; }

    void enable_arp_inspection(ArpInspectionConfig cfg) { dai_ = cfg; }

    /// Ports DAI/port-security treat as trusted (uplinks, servers).
    void set_trusted_port(sim::PortId port, bool trusted);

    /// Adds a static (IP, MAC, port) binding usable by DAI without DHCP.
    void add_static_binding(wire::Ipv4Address ip, wire::MacAddress mac, sim::PortId port);

    /// Assigns an access-port VLAN (default: every port in VLAN 1).
    /// Frames never cross VLANs: broadcast/flooding is confined to the
    /// ingress VLAN, and a CAM hit on a port in another VLAN is treated as
    /// unknown. Segmentation confines the blast radius of every L2 attack
    /// to the attacker's own VLAN. The mirror port sees all VLANs (SPAN).
    void set_port_vlan(sim::PortId port, std::uint16_t vlan);
    [[nodiscard]] std::uint16_t port_vlan(sim::PortId port) const;

    /// Administratively re-enables an err-disabled port.
    void reenable_port(sim::PortId port);
    [[nodiscard]] bool port_shut(sim::PortId port) const { return shut_ports_.count(port) != 0; }

    // ---- Introspection ----------------------------------------------------
    [[nodiscard]] const CamTable& cam() const { return cam_; }
    [[nodiscard]] const std::vector<SwitchEvent>& events() const { return events_; }
    [[nodiscard]] const std::unordered_map<wire::Ipv4Address, SnoopBinding>& bindings() const {
        return bindings_;
    }
    void set_event_listener(std::function<void(const SwitchEvent&)> fn) {
        listener_ = std::move(fn);
    }
    [[nodiscard]] std::size_t port_count() const { return port_count_; }
    [[nodiscard]] bool trusted(sim::PortId port) const { return trusted_ports_.count(port) != 0; }
    [[nodiscard]] std::optional<sim::PortId> mirror_port() const { return mirror_port_; }

    struct ForwardStats {
        std::uint64_t received = 0;
        std::uint64_t unicast_forwarded = 0;
        std::uint64_t flooded = 0;
        std::uint64_t dropped = 0;
        std::uint64_t mirrored = 0;
    };
    [[nodiscard]] const ForwardStats& forward_stats() const { return stats_; }

    /// Publishes the switch's forwarding and CAM statistics into `registry`
    /// under `l2.switch.*` / `l2.cam.*` (snapshot at call time).
    void export_metrics(telemetry::MetricsRegistry& registry) const;

private:
    void schedule_cam_sweep();
    void emit(SwitchEventKind kind, sim::PortId port, wire::MacAddress mac, wire::Ipv4Address ip,
              std::string detail);
    void shutdown_port(sim::PortId port, const std::string& why);
    void forward(sim::PortId in_port, const wire::FrameView& view);
    /// Returns true when the frame must be dropped.
    bool apply_port_security(sim::PortId in_port, const wire::FrameView& view);
    bool apply_dhcp_snooping(sim::PortId in_port, const wire::FrameView& view);
    bool apply_arp_inspection(sim::PortId in_port, const wire::FrameView& view);

    std::size_t port_count_;
    CamTable cam_;
    std::optional<sim::PortId> mirror_port_;
    PortSecurityConfig port_security_;
    ArpInspectionConfig dai_;
    bool snooping_enabled_ = false;
    std::set<sim::PortId> trusted_ports_;
    std::set<sim::PortId> shut_ports_;
    std::unordered_map<wire::Ipv4Address, SnoopBinding> bindings_;
    std::unordered_map<std::uint64_t, sim::PortId> last_dhcp_client_port_;  // keyed by MAC
    std::unordered_map<sim::PortId, std::set<std::uint64_t>> port_macs_;    // port security
    std::unordered_map<std::uint64_t, sim::PortId> sticky_owner_;           // sticky mode
    std::unordered_map<sim::PortId, std::uint16_t> port_vlans_;             // default VLAN 1
    struct RateBucket {
        double tokens = 0;
        common::SimTime last;
        bool initialized = false;
    };
    std::unordered_map<sim::PortId, RateBucket> arp_buckets_;
    std::vector<SwitchEvent> events_;
    std::function<void(const SwitchEvent&)> listener_;
    ForwardStats stats_;
};

}  // namespace arpsec::l2
