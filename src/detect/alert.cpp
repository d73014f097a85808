#include "detect/alert.hpp"

namespace arpsec::detect {

std::string_view kind_name(AlertKind k) {
    switch (k) {
        case AlertKind::kSpoofSuspected: return "spoof-suspected";
        case AlertKind::kIpMacChange: return "ip-mac-change";
        case AlertKind::kFlipFlop: return "flip-flop";
        case AlertKind::kUnsignedArp: return "unsigned-arp";
        case AlertKind::kBindingViolation: return "binding-violation";
        case AlertKind::kInconsistentHeader: return "inconsistent-header";
        case AlertKind::kUnicastRequest: return "unicast-request";
        case AlertKind::kPortSecurity: return "port-security";
        case AlertKind::kRogueDhcp: return "rogue-dhcp";
        case AlertKind::kRateAnomaly: return "rate-anomaly";
    }
    return "?";
}

std::string to_string(AlertKind k) { return std::string{kind_name(k)}; }

void AlertSink::export_metrics(telemetry::MetricsRegistry& registry) const {
    registry.counter("detect.alerts.total").inc(alerts_.size());
    telemetry::Gauge& first = registry.gauge("detect.first_alert_us");
    first.set(-1);
    if (!alerts_.empty()) {
        first.set(static_cast<std::int64_t>(alerts_.front().at.nanos() / 1000));
    }
    for (const Alert& a : alerts_) {
        registry.counter("detect.alerts.kind." + detect::to_string(a.kind)).inc();
        registry.counter("detect.alerts.scheme." + a.scheme).inc();
    }
}

std::string Alert::to_string() const {
    return "[" + at.to_string() + "] " + scheme + ": " + detect::to_string(kind) + " ip=" +
           ip.to_string() + " claimed=" + claimed_mac.to_string() +
           (previous_mac.is_zero() ? "" : " was=" + previous_mac.to_string()) +
           (detail.empty() ? "" : " (" + detail + ")");
}

}  // namespace arpsec::detect
