#include "wire/pcap_reader.hpp"

#include <fstream>
#include <iterator>
#include <sstream>

#include "wire/huge_pages.hpp"

namespace arpsec::wire {

namespace {

constexpr std::uint32_t kMagicMicroLe = 0xa1b2c3d4u;
constexpr std::uint32_t kMagicMicroBe = 0xd4c3b2a1u;
constexpr std::uint32_t kMagicNanoLe = 0xa1b23c4du;
constexpr std::uint32_t kMagicNanoBe = 0x4d3cb2a1u;

// pcap headers use the capturer's native byte order, announced by the magic;
// ByteReader is fixed network order, so decode with an order flag instead.
std::uint32_t read_u32(std::span<const std::uint8_t> data, std::size_t off, bool swapped) {
    if (off + 4 > data.size()) return 0;  // callers bound off; keep the read total anyway
    const auto b0 = static_cast<std::uint32_t>(data[off]);
    const auto b1 = static_cast<std::uint32_t>(data[off + 1]);
    const auto b2 = static_cast<std::uint32_t>(data[off + 2]);
    const auto b3 = static_cast<std::uint32_t>(data[off + 3]);
    if (swapped) return (b0 << 24) | (b1 << 16) | (b2 << 8) | b3;
    return (b3 << 24) | (b2 << 16) | (b1 << 8) | b0;
}

std::string fmt_error(const std::string& what, std::size_t offset) {
    std::ostringstream os;
    os << "pcap: " << what << " at offset " << offset;
    return os.str();
}

/// The parser proper: `storage` becomes the trace's buffer and every record
/// borrows a span of it.
common::Expected<PcapTrace> parse_storage(std::shared_ptr<const Bytes> storage) {
    using Result = common::Expected<PcapTrace>;
    const std::span<const std::uint8_t> data{*storage};
    if (data.size() < PcapReader::kGlobalHeaderSize) {
        return Result::failure("pcap: file too short for the 24-byte global header (" +
                               std::to_string(data.size()) + " bytes)");
    }

    const std::uint32_t magic = read_u32(data, 0, /*swapped=*/false);
    PcapTrace trace;
    switch (magic) {
        case kMagicMicroLe:
            break;
        case kMagicNanoLe:
            trace.nanosecond = true;
            break;
        case kMagicMicroBe:
            trace.big_endian = true;
            break;
        case kMagicNanoBe:
            trace.big_endian = true;
            trace.nanosecond = true;
            break;
        default: {
            std::ostringstream os;
            os << "pcap: unrecognized magic 0x" << std::hex << magic;
            return Result::failure(os.str());
        }
    }

    // On a little-endian host the byte-swapped magics mean "decode big-endian".
    const bool swapped = trace.big_endian;
    trace.snaplen = read_u32(data, 16, swapped);
    trace.link_type = read_u32(data, 20, swapped);

    // Size the record vector once: a first hop over the record headers
    // counts the records that fit, so no reallocation copies them.
    std::size_t count = 0;
    for (std::size_t at = PcapReader::kGlobalHeaderSize;
         data.size() - at >= PcapReader::kRecordHeaderSize; ++count) {
        const std::uint32_t incl_len = read_u32(data, at + 8, swapped);
        if (data.size() - at - PcapReader::kRecordHeaderSize < incl_len) break;
        at += PcapReader::kRecordHeaderSize + incl_len;
    }
    trace.records.reserve(count);

    std::size_t off = PcapReader::kGlobalHeaderSize;
    while (off < data.size()) {
        if (data.size() - off < PcapReader::kRecordHeaderSize) {
            return Result::failure(fmt_error(
                "truncated record header in record #" + std::to_string(trace.records.size()),
                off));
        }
        const std::uint32_t ts_sec = read_u32(data, off, swapped);
        const std::uint32_t ts_frac = read_u32(data, off + 4, swapped);
        const std::uint32_t incl_len = read_u32(data, off + 8, swapped);
        const std::uint32_t orig_len = read_u32(data, off + 12, swapped);
        off += PcapReader::kRecordHeaderSize;

        if (incl_len > trace.snaplen && incl_len > 0x0004'0000u) {
            // Far beyond any plausible snap length: a corrupt length field
            // would otherwise drag the cursor past unrelated bytes.
            return Result::failure(fmt_error(
                "implausible captured length " + std::to_string(incl_len) + " in record #" +
                    std::to_string(trace.records.size()),
                off - PcapReader::kRecordHeaderSize));
        }
        if (data.size() - off < incl_len) {
            return Result::failure(fmt_error(
                "truncated record body in record #" + std::to_string(trace.records.size()) +
                    " (want " + std::to_string(incl_len) + " bytes, have " +
                    std::to_string(data.size() - off) + ")",
                off));
        }

        PcapRecord rec;
        const std::int64_t frac_nanos =
            trace.nanosecond ? static_cast<std::int64_t>(ts_frac)
                             : static_cast<std::int64_t>(ts_frac) * 1000;
        rec.at = common::SimTime{static_cast<std::int64_t>(ts_sec) * 1'000'000'000 + frac_nanos};
        rec.orig_len = orig_len;
        rec.bytes = data.subspan(off, incl_len);
        trace.records.push_back(std::move(rec));
        off += incl_len;
    }
    trace.storage = std::move(storage);
    return Result{std::move(trace)};
}

}  // namespace

common::Expected<PcapTrace> PcapReader::parse(std::span<const std::uint8_t> data) {
    // lint:allow(untrusted-read-bounds): a full-range copy is bounded by the span itself
    return parse_storage(std::make_shared<const Bytes>(data.begin(), data.end()));
}

common::Expected<PcapTrace> PcapReader::read_file(const std::string& path) {
    using Result = common::Expected<PcapTrace>;
    std::ifstream in{path, std::ios::binary};
    if (!in) return Result::failure("pcap: cannot open '" + path + "'");
    auto storage = std::make_shared<Bytes>();
    in.seekg(0, std::ios::end);
    const std::streamoff size = in.tellg();
    if (size >= 0 && in.seekg(0)) {
        // One sized read straight into the buffer the records will borrow.
        // reserve() allocates without writing, so the advice lands first.
        storage->reserve(static_cast<std::size_t>(size));
        advise_huge_pages(storage->data(), storage->capacity());
        storage->resize(static_cast<std::size_t>(size));
        in.read(reinterpret_cast<char*>(storage->data()), size);
        storage->resize(static_cast<std::size_t>(in.gcount()));  // the file shrank meanwhile
    } else {
        // Not seekable (a pipe): take whatever the stream yields.
        in.clear();
        storage->assign(std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{});
    }
    if (in.bad()) return Result::failure("pcap: cannot read '" + path + "'");
    return parse_storage(std::move(storage));
}

}  // namespace arpsec::wire
