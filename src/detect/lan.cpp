#include "detect/lan.hpp"

namespace arpsec::detect {

Lan::Lan(std::uint64_t seed, std::size_t ports)
    : net_(seed), fabric_(&net_.emplace_node<l2::Switch>("switch", ports)) {}

sim::PortId Lan::attach(sim::NodeId node, sim::LinkConfig link) {
    const sim::PortId port = next_port_++;
    net_.connect(sim::Endpoint{node, 0}, sim::Endpoint{fabric_->id(), port}, link);
    return port;
}

sim::PortId Lan::attach_infra(sim::NodeId node) {
    const sim::PortId port = attach(node);
    fabric_->set_trusted_port(port, true);
    return port;
}

wire::Ipv4Address Lan::alloc_infra_ip() {
    return wire::Ipv4Address{192, 168, 1, static_cast<std::uint8_t>(240 + infra_ips_++)};
}

MonitorNode& Lan::add_monitor(sim::LinkConfig link) {
    monitor_ = &net_.emplace_node<MonitorNode>("monitor", wire::MacAddress::local(0x999));
    const sim::PortId port = attach(monitor_->id(), link);
    fabric_->set_mirror_port(port);
    fabric_->set_trusted_port(port, true);
    return *monitor_;
}

void Lan::deploy(Scheme& scheme, DeploymentContext ctx, std::span<host::Host* const> protect) {
    ctx.net = &net_;
    ctx.lan = this;
    scheme.deploy(ctx);
    scheme.configure_switch(*fabric_);
    for (host::Host* h : protect) scheme.protect_host(*h);
    if (monitor_ != nullptr) scheme.attach_monitor(*monitor_);
}

}  // namespace arpsec::detect
