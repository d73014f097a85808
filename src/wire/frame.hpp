#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <variant>
#include <vector>

#include "wire/arp_packet.hpp"
#include "wire/buffer.hpp"
#include "wire/ethernet.hpp"
#include "wire/ipv4_packet.hpp"

namespace arpsec::wire {

/// Process-wide FrameView memo statistics. `parse_misses` counts real
/// header parses (one per captured buffer — origin buffers are pre-memoized
/// from the frame they serialized); `parse_hits` counts deliveries that
/// reused an existing memo. The ARP and IPv4 pairs count the same for the
/// lazy payload parses. Miss counters are relaxed atomics (they fire once
/// per buffer); hit counters accumulate in a thread-local batch flushed
/// into the atomics when frameview_stats() runs or a thread exits, keeping
/// the hot path free of atomic RMWs. They are observability-only and never
/// feed per-run artifacts (which must be byte-identical across --jobs
/// values).
struct FrameViewStats {
    std::uint64_t parse_hits = 0;
    std::uint64_t parse_misses = 0;
    std::uint64_t arp_hits = 0;
    std::uint64_t arp_misses = 0;
    std::uint64_t ipv4_hits = 0;
    std::uint64_t ipv4_misses = 0;
};

[[nodiscard]] FrameViewStats frameview_stats();
void reset_frameview_stats();

/// Drains the calling thread's batched hit counts into the process-wide
/// totals. Call before a worker thread that touched FrameViews exits (the
/// replay engine does); frameview_stats() flushes its own caller.
void flush_frameview_hits();

namespace frame_detail {

inline std::atomic<std::uint64_t> g_parse_hits{0};
inline std::atomic<std::uint64_t> g_parse_misses{0};
inline std::atomic<std::uint64_t> g_arp_hits{0};
inline std::atomic<std::uint64_t> g_arp_misses{0};
inline std::atomic<std::uint64_t> g_ipv4_hits{0};
inline std::atomic<std::uint64_t> g_ipv4_misses{0};

/// Per-thread hit tally: the hot path pays one plain increment; the batch
/// drains into the atomics via flush_frameview_hits() (the replay engine
/// flushes its worker threads; frameview_stats() flushes its caller).
/// Deliberately trivially destructible — a destructor would force every
/// TLS access through an init-guard wrapper call, which is exactly the
/// per-frame overhead this batch exists to avoid. The cost: hits tallied
/// on a thread that exits without flushing are dropped — fine for
/// observability counters.
struct HitBatch {
    std::uint64_t parse = 0;
    std::uint64_t arp = 0;
    std::uint64_t ipv4 = 0;

    void flush() {
        if (parse != 0) g_parse_hits.fetch_add(parse, std::memory_order_relaxed);
        if (arp != 0) g_arp_hits.fetch_add(arp, std::memory_order_relaxed);
        if (ipv4 != 0) g_ipv4_hits.fetch_add(ipv4, std::memory_order_relaxed);
        parse = arp = ipv4 = 0;
    }
};

inline thread_local constinit HitBatch t_hits;

inline constexpr std::size_t kUnknownLen = std::numeric_limits<std::size_t>::max();

}  // namespace frame_detail

class FrameView;

/// Immutable, refcounted wire bytes plus a lazily populated parse memo.
/// A frame is serialized exactly once, at origin (`serialize()`), ingested
/// verbatim from a capture (`capture()`), or aliased in place inside a
/// capture file's buffer (`FrameSlab`); everything downstream — taps, the
/// switch flood/mirror path, scheme monitors, replay — shares the same
/// allocation by value. Copying a FrameBuffer bumps a refcount; the bytes
/// themselves are never copied or mutated after construction.
///
/// The memo (Ethernet header, ARP/IPv4 payload) is populated on first
/// access and is NOT synchronized: buffers that cross threads (replay
/// run_all) must be primed via FrameView::prime() on the owning thread
/// first, after which concurrent access is read-only.
class FrameBuffer {
public:
    FrameBuffer() = default;

    /// Origin path: serialize `frame` (padding to the Ethernet minimum) and
    /// pre-memoize its header and unpadded payload length — origin buffers
    /// never pay a header parse.
    [[nodiscard]] static FrameBuffer serialize(const EthernetFrame& frame);

    /// Capture path (stream intake, raw injection): adopt raw bytes
    /// verbatim; the span overload copies them once. The unpadded payload
    /// length is unknown, so views expose the padded payload exactly as it
    /// appeared on the wire.
    [[nodiscard]] static FrameBuffer capture(Bytes bytes);
    [[nodiscard]] static FrameBuffer capture(std::span<const std::uint8_t> bytes);

    [[nodiscard]] bool empty() const { return rep_ == nullptr; }
    [[nodiscard]] std::span<const std::uint8_t> bytes() const;
    [[nodiscard]] std::size_t size() const;

    /// Identity of the shared allocation: two FrameBuffers return the same
    /// pointer here iff they share bytes (the zero-copy forwarding oracle —
    /// a flooded frame must be identity-equal on every egress port).
    [[nodiscard]] const void* identity() const { return rep_.get(); }

    /// Shared state. Exposed (rather than pimpl'd) so the accessor fast
    /// paths inline into callers; treat as an implementation detail and go
    /// through FrameView instead.
    struct Rep {
        /// The wire bytes: a slice of a capture file that a FrameSlab keeps
        /// alive, or the bytes that serialize()/capture() store beside the
        /// Rep in the same allocation.
        std::span<const std::uint8_t> bytes;
        /// Unpadded payload size when origin-known, kUnknownLen for captures.
        std::size_t payload_len = frame_detail::kUnknownLen;

        bool eth_parsed = false;
        bool eth_ok = false;
        /// The payload memo below has been filled (header.ether_type says
        /// whether it was parsed as ARP or as IPv4).
        bool payload_parsed = false;
        EthernetHeader header;
        /// The parsed ARP or IPv4 payload, or monostate when it did not
        /// parse. A frame is one or the other, so they share the slot.
        std::variant<std::monostate, ArpPacket, Ipv4Packet> payload_memo;

        /// frame()'s materialized copy, built on first use.
        std::unique_ptr<EthernetFrame> frame;
    };

private:
    friend class FrameView;
    friend class FrameSlab;
    explicit FrameBuffer(std::shared_ptr<Rep> rep) : rep_(std::move(rep)) {}
    std::shared_ptr<Rep> rep_;
};

/// Batch capture path (replay ingest): the Reps of a whole trace in one
/// contiguous allocation that also holds the trace's byte buffer. A buffer
/// captured here is an aliasing shared_ptr into the slab whose bytes are a
/// span of `storage`, so capturing a frame allocates and copies nothing,
/// and every buffer keeps the slab and `storage` alive. Bytes that do not
/// lie inside `storage` (or any bytes, when `storage` is null) fall back to
/// an owning capture(), so no buffer ever borrows memory the slab does not
/// keep alive.
class FrameSlab {
public:
    FrameSlab(std::size_t frames, std::shared_ptr<const Bytes> storage);

    /// The buffer for slot `index` over `bytes`. Each slot is captured at
    /// most once; distinct slots may be captured concurrently. A slot past
    /// `frames` also falls back to an owning capture().
    [[nodiscard]] FrameBuffer capture(std::size_t index,
                                      std::span<const std::uint8_t> bytes) const;

private:
    struct Block;
    std::shared_ptr<Block> block_;
};

namespace frame_detail {

// Out-of-line slow paths (frame.cpp): first-touch parses that fill the memo.
void parse_header_slow(FrameBuffer::Rep& rep);
void parse_arp_slow(FrameBuffer::Rep& rep);
void parse_ipv4_slow(FrameBuffer::Rep& rep);

inline void ensure_header(FrameBuffer::Rep& rep) {
    if (!rep.eth_parsed) parse_header_slow(rep);
}

/// Precondition: rep.eth_ok (implies bytes.size() >= kHeaderSize).
inline std::span<const std::uint8_t> payload_span(const FrameBuffer::Rep& rep) {
    const std::span<const std::uint8_t> all{rep.bytes};
    const std::size_t wire_payload = all.size() - EthernetFrame::kHeaderSize;
    const std::size_t len =
        rep.payload_len == kUnknownLen ? wire_payload : std::min(rep.payload_len, wire_payload);
    return all.subspan(EthernetFrame::kHeaderSize, len);
}

}  // namespace frame_detail

/// Parse-once accessor over a FrameBuffer. Cheap to copy (one refcount);
/// all accessors are const and memoize into the shared buffer, so the
/// header and ARP/IPv4 payloads are decoded at most once no matter how many
/// nodes, taps, or schemes inspect the frame.
class FrameView {
public:
    FrameView() = default;
    explicit FrameView(FrameBuffer buffer) : buffer_(std::move(buffer)) {}

    /// True when the buffer carries a well-formed Ethernet II header with a
    /// supported EtherType. Every other accessor returns zero values until
    /// this holds.
    [[nodiscard]] bool ok() const {
        FrameBuffer::Rep* rep = buffer_.rep_.get();
        if (rep == nullptr) return false;
        if (rep->eth_parsed) {
            ++frame_detail::t_hits.parse;
        } else {
            frame_detail::parse_header_slow(*rep);
        }
        return rep->eth_ok;
    }

    [[nodiscard]] const FrameBuffer& buffer() const { return buffer_; }
    [[nodiscard]] std::span<const std::uint8_t> bytes() const { return buffer_.bytes(); }

    [[nodiscard]] MacAddress dst() const {
        FrameBuffer::Rep* rep = buffer_.rep_.get();
        if (rep == nullptr) return {};
        frame_detail::ensure_header(*rep);
        return rep->eth_ok ? rep->header.dst : MacAddress{};
    }

    [[nodiscard]] MacAddress src() const {
        FrameBuffer::Rep* rep = buffer_.rep_.get();
        if (rep == nullptr) return {};
        frame_detail::ensure_header(*rep);
        return rep->eth_ok ? rep->header.src : MacAddress{};
    }

    [[nodiscard]] EtherType ether_type() const {
        FrameBuffer::Rep* rep = buffer_.rep_.get();
        if (rep == nullptr) return EtherType::kIpv4;
        frame_detail::ensure_header(*rep);
        return rep->eth_ok ? rep->header.ether_type : EtherType::kIpv4;
    }

    /// The L2 payload. For origin buffers this is the *unpadded* payload
    /// the sender handed to serialize() (fixing the serialize→parse padding
    /// asymmetry); for captured buffers padding is indistinguishable from
    /// payload and is kept, as a pcap consumer would see it.
    [[nodiscard]] std::span<const std::uint8_t> payload() const {
        FrameBuffer::Rep* rep = buffer_.rep_.get();
        if (rep == nullptr) return {};
        frame_detail::ensure_header(*rep);
        if (!rep->eth_ok) return {};
        return frame_detail::payload_span(*rep);
    }

    /// Materialized EthernetFrame (memoized; allocates once per buffer).
    /// Prefer the field accessors — this exists for round-trip tests and
    /// legacy consumers that need an owning frame.
    [[nodiscard]] const EthernetFrame& frame() const;

    /// The memoized ARP payload, or nullptr when the frame is not ARP or
    /// the payload does not parse.
    [[nodiscard]] const ArpPacket* arp() const {
        FrameBuffer::Rep* rep = buffer_.rep_.get();
        if (rep == nullptr) return nullptr;
        frame_detail::ensure_header(*rep);
        if (!rep->eth_ok || rep->header.ether_type != EtherType::kArp) return nullptr;
        if (rep->payload_parsed) {
            ++frame_detail::t_hits.arp;
        } else {
            frame_detail::parse_arp_slow(*rep);
        }
        return std::get_if<ArpPacket>(&rep->payload_memo);
    }

    /// The memoized IPv4 payload, or nullptr when the frame is not IPv4 or
    /// the payload does not parse. Like arp(), the parse happens at most
    /// once per buffer no matter how many schemes inspect the packet.
    [[nodiscard]] const Ipv4Packet* ipv4() const {
        FrameBuffer::Rep* rep = buffer_.rep_.get();
        if (rep == nullptr) return nullptr;
        frame_detail::ensure_header(*rep);
        if (!rep->eth_ok || rep->header.ether_type != EtherType::kIpv4) return nullptr;
        if (rep->payload_parsed) {
            ++frame_detail::t_hits.ipv4;
        } else {
            frame_detail::parse_ipv4_slow(*rep);
        }
        return std::get_if<Ipv4Packet>(&rep->payload_memo);
    }

    /// Prefetch hint: pulls the shared memo's hot cache lines toward the
    /// CPU, for a caller that will visit heap-scattered buffers in a known
    /// order. Views from one FrameSlab sit back to back, where the hardware
    /// prefetcher already streams them, so replay does not call it.
    void prefetch() const {
#if defined(__GNUC__) || defined(__clang__)
        const FrameBuffer::Rep* rep = buffer_.rep_.get();
        if (rep != nullptr) {
            __builtin_prefetch(rep);
            __builtin_prefetch(reinterpret_cast<const char*>(rep) + 64);
        }
#endif
    }

    /// Eagerly populates the header and payload (ARP or IPv4) memos. Call
    /// on the owning thread before sharing a view across threads (replay
    /// fan-out); after priming, every accessor except frame() is read-only
    /// (frame() keeps its own lazy memo and stays single-thread only).
    void prime() const;

private:
    FrameBuffer buffer_;
};

/// The capture step of replay ingest and serve intake: one FrameSlab over
/// `storage` for every frame of `frames`, and one primed view per frame
/// appended to `out` in order. `bytes_of(frame)` is the frame's bytes, a
/// span into `storage` (anything else is copied; see FrameSlab). Priming
/// here, on the calling thread, is what lets the views cross to worker
/// threads as read-only.
template <class Frames, class BytesOf>
void capture_views(std::shared_ptr<const Bytes> storage, const Frames& frames, BytesOf bytes_of,
                   std::vector<FrameView>& out) {
    const FrameSlab slab{std::size(frames), std::move(storage)};
    out.reserve(out.size() + std::size(frames));
    std::size_t slot = 0;
    for (const auto& frame : frames) {
        FrameView view{slab.capture(slot++, bytes_of(frame))};
        view.prime();
        out.push_back(std::move(view));
    }
}

}  // namespace arpsec::wire
