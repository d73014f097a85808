#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/expected.hpp"
#include "common/time.hpp"
#include "wire/buffer.hpp"

namespace arpsec::wire {

/// One captured frame: timestamp, the captured bytes (caplen), and the
/// original on-wire length (orig_len >= bytes.size() when the capture was
/// snapped). `bytes` borrows from the owning PcapTrace's `storage`.
struct PcapRecord {
    common::SimTime at;
    std::uint32_t orig_len = 0;
    std::span<const std::uint8_t> bytes;
};

/// A fully parsed classic-pcap capture file. The whole file sits in one
/// immutable buffer, `storage`; every record's bytes are a span into it, so
/// parsing copies no frame. Copies of a PcapTrace share the buffer.
struct PcapTrace {
    std::uint32_t link_type = 1;  // LINKTYPE_ETHERNET
    std::uint32_t snaplen = 65535;
    bool nanosecond = false;      // nanosecond-resolution magic variant
    bool big_endian = false;      // file written on a big-endian capturer
    std::vector<PcapRecord> records;
    std::shared_ptr<const Bytes> storage;
};

/// Reads classic libpcap captures (the input half of PcapWriter): both byte
/// orders (magic 0xa1b2c3d4 and its swap) and both timestamp resolutions
/// (microsecond 0xa1b2c3d4, nanosecond 0xa1b23c4d). Every read is bounds
/// checked; malformed or truncated input is surfaced as a typed
/// common::Expected failure naming the offending record — parsers in
/// src/wire/ never assert on attacker-controlled bytes.
class PcapReader {
public:
    static constexpr std::size_t kGlobalHeaderSize = 24;
    static constexpr std::size_t kRecordHeaderSize = 16;

    /// Parses a whole capture from memory. `data` is copied once into the
    /// trace's storage, so the result does not borrow from the caller.
    static common::Expected<PcapTrace> parse(std::span<const std::uint8_t> data);

    /// Reads `path` with one sized read into the trace's storage and parses
    /// it in place; I/O problems are failures too.
    static common::Expected<PcapTrace> read_file(const std::string& path);
};

}  // namespace arpsec::wire
