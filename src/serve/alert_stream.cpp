#include "serve/alert_stream.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <fstream>
#include <string_view>
#include <tuple>

#include "telemetry/json.hpp"
#include "wire/stream_codec.hpp"

namespace arpsec::serve {

std::string alert_stream_header() {
    std::string line = "{\"schema\":";
    telemetry::append_json_string(line, kAlertStreamSchema);
    line += '}';
    return line;
}

namespace {

template <class Out>
void put(Out& out, std::string_view text) {
    out.insert(out.end(), text.begin(), text.end());
}

template <class Out>
void put_mac(Out& out, const wire::MacAddress& mac) {
    std::array<char, wire::MacAddress::kTextSize> text{};
    mac.format(text);
    put(out, std::string_view{text.data(), text.size()});
}

template <class Out>
void put_ip(Out& out, const wire::Ipv4Address& ip) {
    std::array<char, wire::Ipv4Address::kMaxTextSize> text{};
    put(out, std::string_view{text.data(), ip.format(text)});
}

/// The alert line's one layout. Every string is escaped by
/// telemetry::append_json_string, the escaper Json::dump uses.
template <class Out>
void put_alert_line(Out& out, const detect::Alert& alert) {
    char at[24];
    const char* at_end = std::to_chars(at, at + sizeof at, alert.at.nanos()).ptr;
    put(out, "{\"at_ns\":");
    put(out, std::string_view{at, static_cast<std::size_t>(at_end - at)});
    put(out, ",\"scheme\":");
    telemetry::append_json_string(out, alert.scheme);
    put(out, ",\"kind\":");
    telemetry::append_json_string(out, detect::kind_name(alert.kind));
    put(out, ",\"ip\":\"");
    put_ip(out, alert.ip);
    put(out, "\",\"claimed_mac\":\"");
    put_mac(out, alert.claimed_mac);
    put(out, "\",\"previous_mac\":\"");
    put_mac(out, alert.previous_mac);
    put(out, "\",\"detail\":");
    telemetry::append_json_string(out, alert.detail);
    out.push_back('}');
}

}  // namespace

std::string alert_line(const detect::Alert& alert) {
    std::string line;
    line.reserve(192);
    put_alert_line(line, alert);
    return line;
}

void append_alert_record(wire::Bytes& out, const detect::Alert& alert) {
    const std::size_t start = wire::begin_record(out, wire::StreamRecordType::kAlert);
    put_alert_line(out, alert);
    wire::finish_record(out, start);
}

void sort_canonical(std::vector<detect::Alert>& alerts) {
    // MacAddress compares its octets in order, which is the order of its
    // fixed-width lowercase hex text; strings compare as views. No key
    // allocates.
    const auto key = [](const detect::Alert& a) {
        return std::make_tuple(a.at.nanos(), std::string_view{a.scheme},
                               static_cast<int>(a.kind), a.ip.value(), a.claimed_mac,
                               a.previous_mac, std::string_view{a.detail});
    };
    std::sort(alerts.begin(), alerts.end(),
              [&key](const detect::Alert& a, const detect::Alert& b) { return key(a) < key(b); });
}

bool write_alert_file(const std::string& path, std::vector<detect::Alert> alerts) {
    sort_canonical(alerts);
    std::ofstream out{path, std::ios::trunc};
    if (!out) return false;
    std::string line = alert_stream_header();
    line += '\n';
    out << line;
    for (const detect::Alert& a : alerts) {
        line.clear();
        put_alert_line(line, a);
        line += '\n';
        out << line;
    }
    return static_cast<bool>(out);
}

}  // namespace arpsec::serve
