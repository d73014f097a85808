#include "wire/stream_codec.hpp"

#include <utility>

namespace arpsec::wire {

namespace {

constexpr std::uint32_t kHelloMagic = 0x41535631;  // "ASV1"
constexpr std::uint32_t kStreamVersion = 1;

// A directory entry is at least ip(4) + mac(6) + name_len(2) bytes; used
// to reject a hostile count before any allocation happens.
constexpr std::size_t kMinDirectoryEntryBytes = 12;

constexpr std::size_t kPrefixBytes = 4;

std::span<const std::uint8_t> as_bytes(const std::string& text) {
    return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

}  // namespace

std::string to_string(StreamRecordType type) {
    switch (type) {
        case StreamRecordType::kHello: return "hello";
        case StreamRecordType::kDirectory: return "directory";
        case StreamRecordType::kFrame: return "frame";
        case StreamRecordType::kEnd: return "end";
        case StreamRecordType::kAlert: return "alert";
        case StreamRecordType::kSummary: return "summary";
    }
    return "unknown";
}

std::size_t begin_record(Bytes& out, StreamRecordType type) {
    const std::size_t start = out.size();
    ByteWriter w{out};
    w.u32(0);  // patched by finish_record
    w.u8(static_cast<std::uint8_t>(type));
    return start;
}

void finish_record(Bytes& out, std::size_t start) {
    const auto len = static_cast<std::uint32_t>(out.size() - start - kPrefixBytes);
    out[start] = static_cast<std::uint8_t>(len >> 24);
    out[start + 1] = static_cast<std::uint8_t>(len >> 16);
    out[start + 2] = static_cast<std::uint8_t>(len >> 8);
    out[start + 3] = static_cast<std::uint8_t>(len);
}

void encode_hello(Bytes& out, const StreamHello& hello) {
    const std::size_t start = begin_record(out, StreamRecordType::kHello);
    ByteWriter w{out};
    w.u32(kHelloMagic);
    w.u32(hello.version);
    w.u64(hello.seed);
    finish_record(out, start);
}

void encode_directory(Bytes& out, std::span<const StreamHostEntry> entries) {
    const std::size_t start = begin_record(out, StreamRecordType::kDirectory);
    ByteWriter w{out};
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (const StreamHostEntry& e : entries) {
        w.ipv4(e.ip);
        w.mac(e.mac);
        w.u16(static_cast<std::uint16_t>(e.name.size()));
        w.bytes(as_bytes(e.name));
    }
    finish_record(out, start);
}

void encode_frame(Bytes& out, std::uint64_t at_nanos, std::span<const std::uint8_t> frame) {
    const std::size_t start = begin_record(out, StreamRecordType::kFrame);
    ByteWriter w{out};
    w.u64(at_nanos);
    w.u32(static_cast<std::uint32_t>(frame.size()));
    w.bytes(frame);
    finish_record(out, start);
}

void encode_end(Bytes& out) { finish_record(out, begin_record(out, StreamRecordType::kEnd)); }

void encode_alert(Bytes& out, const std::string& json_line) {
    const std::size_t start = begin_record(out, StreamRecordType::kAlert);
    ByteWriter{out}.bytes(as_bytes(json_line));
    finish_record(out, start);
}

void encode_summary(Bytes& out, const std::string& json) {
    const std::size_t start = begin_record(out, StreamRecordType::kSummary);
    ByteWriter{out}.bytes(as_bytes(json));
    finish_record(out, start);
}

namespace {

/// The one record-body parser behind both polls. On success a kFrame record
/// fills `frame` and sets only `out.type`; any other record replaces the
/// member of `out` that its type names. On failure `out` and `frame` are
/// untouched and `error` says why.
bool parse_body(std::span<const std::uint8_t> body, StreamRecord& out, StreamFrameRef& frame,
                std::string& error) {
    const auto fail = [&error](std::string why) {
        error = std::move(why);
        return false;
    };
    ByteReader r{body};
    const std::uint8_t raw_type = r.u8();
    if (!r.ok()) return fail("stream: empty record body");

    switch (static_cast<StreamRecordType>(raw_type)) {
        case StreamRecordType::kFrame: {
            const std::uint64_t at_nanos = r.u64();
            const std::uint32_t len = r.u32();
            if (!r.ok()) return fail("stream: truncated frame header");
            if (len != r.remaining()) {
                return fail("stream: frame length " + std::to_string(len) +
                            " disagrees with record body (" + std::to_string(r.remaining()) +
                            " bytes left)");
            }
            frame.at_nanos = at_nanos;
            frame.bytes = body.subspan(r.position());
            out.type = StreamRecordType::kFrame;
            return true;
        }
        case StreamRecordType::kHello: {
            StreamHello hello;
            const std::uint32_t magic = r.u32();
            hello.version = r.u32();
            hello.seed = r.u64();
            if (!r.ok()) return fail("stream: truncated hello record");
            if (magic != kHelloMagic) return fail("stream: bad hello magic");
            if (hello.version != kStreamVersion) {
                return fail("stream: unsupported version " + std::to_string(hello.version));
            }
            out.type = StreamRecordType::kHello;
            out.hello = hello;
            return true;
        }
        case StreamRecordType::kDirectory: {
            const std::uint32_t count = r.u32();
            if (!r.ok()) return fail("stream: truncated directory record");
            if (count > r.remaining() / kMinDirectoryEntryBytes) {
                return fail("stream: directory count " + std::to_string(count) +
                            " exceeds record size");
            }
            std::vector<StreamHostEntry> directory;
            directory.reserve(count);
            for (std::uint32_t i = 0; i < count; ++i) {
                StreamHostEntry e;
                e.ip = r.ipv4();
                e.mac = r.mac();
                const std::uint16_t name_len = r.u16();
                const Bytes name = r.bytes(name_len);
                if (!r.ok()) return fail("stream: truncated directory entry " + std::to_string(i));
                e.name.assign(name.begin(), name.end());
                directory.push_back(std::move(e));
            }
            if (r.remaining() != 0) {
                return fail("stream: trailing bytes after directory entries");
            }
            out.type = StreamRecordType::kDirectory;
            out.directory = std::move(directory);
            return true;
        }
        case StreamRecordType::kEnd: {
            if (r.remaining() != 0) return fail("stream: end record has payload");
            out.type = StreamRecordType::kEnd;
            return true;
        }
        case StreamRecordType::kAlert:
        case StreamRecordType::kSummary: {
            const std::span<const std::uint8_t> text = body.subspan(r.position());
            out.type = static_cast<StreamRecordType>(raw_type);
            out.text.assign(text.begin(), text.end());
            return true;
        }
        default:
            return fail("stream: unknown record type " + std::to_string(raw_type));
    }
}

}  // namespace

void StreamDecoder::make_writable(std::size_t extra) {
    if (shared_) {
        // A FrameSlab holds spans into buf_: leave it whole and carry only
        // the unconsumed tail (at most one partial record) forward.
        auto fresh = std::make_shared<Bytes>();
        fresh->reserve(buffered() + extra);
        fresh->insert(fresh->end(), buf_->begin() + static_cast<std::ptrdiff_t>(pos_),
                      buf_->end());
        buf_ = std::move(fresh);
        pos_ = 0;
        shared_ = false;
    } else if (pos_ == buf_->size()) {
        buf_->clear();
        pos_ = 0;
    } else if (pos_ > 4096 && pos_ > buf_->size() / 2) {
        // Reclaim the consumed prefix before it dominates the buffer;
        // amortized O(1) per byte because the threshold doubles the copy
        // distance.
        buf_->erase(buf_->begin(), buf_->begin() + static_cast<std::ptrdiff_t>(pos_));
        pos_ = 0;
    }
}

void StreamDecoder::feed(std::span<const std::uint8_t> data) {
    bytes_fed_ += data.size();
    make_writable(data.size());
    buf_->insert(buf_->end(), data.begin(), data.end());
}

std::shared_ptr<const Bytes> StreamDecoder::share_buffer() {
    shared_ = true;
    return buf_;
}

StreamDecoder::Status StreamDecoder::poll(StreamRecord& out, StreamFrameRef& frame) {
    if (fatal_) return Status::kFatal;
    const std::size_t available = buf_->size() - pos_;
    if (available < kPrefixBytes) return Status::kNeedMore;

    const std::span<const std::uint8_t> rest{buf_->data() + pos_, available};
    ByteReader header{rest};
    const std::uint32_t body_len = header.u32();
    if (body_len == 0 || body_len > kMaxRecordBytes) {
        // The prefix itself is garbage, so the next record boundary is
        // unknowable — skipping would desynchronize every later record.
        fatal_ = true;
        error_ = "stream: length prefix " + std::to_string(body_len) +
                 " out of range (max " + std::to_string(kMaxRecordBytes) + ")";
        return Status::kFatal;
    }
    if (available < kPrefixBytes + body_len) return Status::kNeedMore;

    pos_ += kPrefixBytes + body_len;
    if (!parse_body(rest.subspan(kPrefixBytes, body_len), out, frame, error_)) {
        ++bad_records_;
        return Status::kBadRecord;
    }
    ++records_;
    return Status::kRecord;
}

StreamDecoder::Status StreamDecoder::poll(StreamRecord& out) {
    StreamRecord rec;
    StreamFrameRef frame;
    const Status status = poll(rec, frame);
    if (status != Status::kRecord) return status;
    if (rec.type == StreamRecordType::kFrame) {
        rec.frame.at_nanos = frame.at_nanos;
        rec.frame.bytes.assign(frame.bytes.begin(), frame.bytes.end());
    }
    out = std::move(rec);
    return status;
}

}  // namespace arpsec::wire
