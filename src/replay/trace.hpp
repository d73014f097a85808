#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "common/time.hpp"
#include "detect/scheme.hpp"
#include "telemetry/json.hpp"
#include "wire/buffer.hpp"
#include "wire/pcap_reader.hpp"

namespace arpsec::replay {

/// One frame of a replayable trace: capture timestamp, raw bytes, and the
/// ground-truth label (true when the frame is a poisoning attempt). The
/// bytes are a span, normally into the owning LabeledTrace's `storage`.
struct TraceFrame {
    TraceFrame() = default;
    TraceFrame(common::SimTime time, std::span<const std::uint8_t> data, bool poisoning)
        : at(time), bytes(data), attack(poisoning) {}
    /// A span over a temporary would dangle as soon as the statement ends.
    TraceFrame(common::SimTime, wire::Bytes&&, bool) = delete;

    common::SimTime at;
    std::span<const std::uint8_t> bytes;
    bool attack = false;
};

/// A trace plus everything the scoring side needs: ground-truth labels and
/// the (IP, MAC) directory the recorded LAN actually used, so schemes that
/// require a priori bindings (static entries, S-ARP enrollment, DAI) can be
/// deployed against the capture.
///
/// `storage` is the one buffer every frame's bytes point into (the pcap
/// file, or the rendered epochs); copies of a trace share it. Every
/// producer in this module fills it. A hand-built trace may leave it null
/// and point its frames elsewhere — it then keeps those bytes alive itself,
/// and Engine::make_views copies them instead of aliasing.
struct LabeledTrace {
    std::vector<TraceFrame> frames;
    std::vector<detect::HostRecord> directory;
    std::uint64_t seed = 0;
    std::string origin;  // "scenario-gen" or the source pcap path
    std::shared_ptr<const wire::Bytes> storage;

    [[nodiscard]] std::size_t attack_count() const;
    [[nodiscard]] common::SimTime last_at() const;
};

/// The ground-truth sidecar of a pcap (`arpsec.trace-labels.v1`): which
/// record indices are poisoning attempts, plus the LAN directory.
struct TraceLabels {
    static constexpr const char* kSchema = "arpsec.trace-labels.v1";

    std::uint64_t seed = 0;
    std::size_t frame_count = 0;
    std::vector<std::size_t> attack_frames;  // ascending pcap record indices
    std::vector<detect::HostRecord> directory;

    [[nodiscard]] telemetry::Json to_json(const std::string& producer) const;
    static common::Expected<TraceLabels> parse(const std::string& text);
};

/// Extracts the sidecar view of an in-memory labeled trace.
[[nodiscard]] TraceLabels labels_of(const LabeledTrace& trace);

/// Joins a parsed pcap with its sidecar; fails when the label document
/// disagrees with the capture (frame count mismatch, index out of range).
/// The result shares `pcap.storage`: frames borrow the record spans, and
/// no byte is copied.
[[nodiscard]] common::Expected<LabeledTrace> join_labels(const wire::PcapTrace& pcap,
                                                         const TraceLabels& labels,
                                                         std::string origin);

}  // namespace arpsec::replay
