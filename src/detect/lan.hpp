#pragma once

#include <cstdint>
#include <span>

#include "detect/monitor.hpp"
#include "detect/scheme.hpp"
#include "host/host.hpp"
#include "l2/switch.hpp"
#include "sim/network.hpp"

namespace arpsec::detect {

/// The single-switch LAN every harness deploys schemes into: one seeded
/// network, one switch named "switch" (node 0), fabric ports handed out in
/// attach order, and an optional mirror-port monitor. Population (hosts,
/// gateway, attacker, traffic) stays with the caller; the LAN owns the
/// wiring and the one definition of the scheme lifecycle (deploy()).
class Lan {
public:
    Lan(std::uint64_t seed, std::size_t ports);

    Lan(const Lan&) = delete;
    Lan& operator=(const Lan&) = delete;

    [[nodiscard]] sim::Network& net() { return net_; }
    [[nodiscard]] l2::Switch& fabric() { return *fabric_; }
    /// The mirror-port monitor, or null before add_monitor().
    [[nodiscard]] MonitorNode* monitor() { return monitor_; }

    /// Connects `node`'s port 0 to the next free fabric port.
    sim::PortId attach(sim::NodeId node, sim::LinkConfig link = {});
    /// attach() over a lossless link, with the fabric port marked trusted:
    /// how schemes plug in infrastructure (S-ARP's key server).
    sim::PortId attach_infra(sim::NodeId node);
    /// Unused addresses for infrastructure nodes: 192.168.1.240, .241, ...
    wire::Ipv4Address alloc_infra_ip();

    /// Adds the "monitor" station (MAC local(0x999)) on the next fabric
    /// port and makes that port the switch's trusted mirror (SPAN) port.
    MonitorNode& add_monitor(sim::LinkConfig link = {});

    /// The scheme lifecycle: deploy(ctx) with the network and this LAN
    /// filled in, configure_switch(), protect_host() for each of `protect`
    /// in order, then attach_monitor() if a monitor was added.
    void deploy(Scheme& scheme, DeploymentContext ctx,
                std::span<host::Host* const> protect = {});

private:
    sim::Network net_;
    l2::Switch* fabric_;
    MonitorNode* monitor_ = nullptr;
    sim::PortId next_port_ = 0;
    std::uint8_t infra_ips_ = 0;
};

}  // namespace arpsec::detect
