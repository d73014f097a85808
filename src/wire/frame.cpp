#include "wire/frame.hpp"

#include <cstdint>
#include <memory>
#include <utility>

#include "wire/huge_pages.hpp"

namespace arpsec::wire {

void flush_frameview_hits() { frame_detail::t_hits.flush(); }

FrameViewStats frameview_stats() {
    frame_detail::t_hits.flush();
    FrameViewStats s;
    s.parse_hits = frame_detail::g_parse_hits.load(std::memory_order_relaxed);
    s.parse_misses = frame_detail::g_parse_misses.load(std::memory_order_relaxed);
    s.arp_hits = frame_detail::g_arp_hits.load(std::memory_order_relaxed);
    s.arp_misses = frame_detail::g_arp_misses.load(std::memory_order_relaxed);
    s.ipv4_hits = frame_detail::g_ipv4_hits.load(std::memory_order_relaxed);
    s.ipv4_misses = frame_detail::g_ipv4_misses.load(std::memory_order_relaxed);
    return s;
}

void reset_frameview_stats() {
    frame_detail::t_hits = frame_detail::HitBatch{};
    frame_detail::g_parse_hits.store(0, std::memory_order_relaxed);
    frame_detail::g_parse_misses.store(0, std::memory_order_relaxed);
    frame_detail::g_arp_hits.store(0, std::memory_order_relaxed);
    frame_detail::g_arp_misses.store(0, std::memory_order_relaxed);
    frame_detail::g_ipv4_hits.store(0, std::memory_order_relaxed);
    frame_detail::g_ipv4_misses.store(0, std::memory_order_relaxed);
}

namespace frame_detail {

void parse_header_slow(FrameBuffer::Rep& rep) {
    g_parse_misses.fetch_add(1, std::memory_order_relaxed);
    rep.eth_parsed = true;
    auto header = parse_ethernet_header(rep.bytes);
    rep.eth_ok = header.ok();
    if (rep.eth_ok) rep.header = header.value();
}

void parse_arp_slow(FrameBuffer::Rep& rep) {
    g_arp_misses.fetch_add(1, std::memory_order_relaxed);
    rep.payload_parsed = true;
    auto parsed = ArpPacket::parse(payload_span(rep));
    if (parsed.ok()) rep.payload_memo = std::move(parsed).value();
}

void parse_ipv4_slow(FrameBuffer::Rep& rep) {
    g_ipv4_misses.fetch_add(1, std::memory_order_relaxed);
    rep.payload_parsed = true;
    auto parsed = Ipv4Packet::parse(payload_span(rep));
    if (parsed.ok()) rep.payload_memo = std::move(parsed).value();
}

}  // namespace frame_detail

namespace {

/// A Rep that owns its bytes (serialize() and capture() origins); the Rep
/// and the byte vector share one allocation.
struct OwnedRep : FrameBuffer::Rep {
    Bytes owned;
};

}  // namespace

FrameBuffer FrameBuffer::serialize(const EthernetFrame& frame) {
    auto rep = std::make_shared<OwnedRep>();
    rep->owned = frame.serialize();
    rep->bytes = rep->owned;
    rep->payload_len = frame.payload.size();
    // The origin knows its own header — memoize it for free so origin
    // buffers never pay a parse, no matter how many hops read them.
    rep->eth_parsed = true;
    rep->eth_ok = true;
    rep->header = EthernetHeader{frame.dst, frame.src, frame.ether_type};
    return FrameBuffer{std::move(rep)};
}

FrameBuffer FrameBuffer::capture(Bytes bytes) {
    auto rep = std::make_shared<OwnedRep>();
    rep->owned = std::move(bytes);
    rep->bytes = rep->owned;
    return FrameBuffer{std::move(rep)};
}

FrameBuffer FrameBuffer::capture(std::span<const std::uint8_t> bytes) {
    // lint:allow(untrusted-read-bounds): a full-range copy is bounded by the span itself
    return capture(Bytes{bytes.begin(), bytes.end()});
}

struct FrameSlab::Block {
    Block() = default;
    Block(const Block&) = delete;
    Block& operator=(const Block&) = delete;
    ~Block() {
        if (reps == nullptr) return;
        std::destroy_n(reps, frames);
        std::allocator<FrameBuffer::Rep>{}.deallocate(reps, frames);
    }

    std::shared_ptr<const Bytes> storage;
    std::size_t frames = 0;
    FrameBuffer::Rep* reps = nullptr;  // `frames` constructed Reps
};

FrameSlab::FrameSlab(std::size_t frames, std::shared_ptr<const Bytes> storage)
    : block_(std::make_shared<Block>()) {
    block_->storage = std::move(storage);
    if (block_->storage == nullptr || frames == 0) return;
    // Allocate, advise, then construct: the advice must land before the
    // first write faults the pages in.
    FrameBuffer::Rep* reps = std::allocator<FrameBuffer::Rep>{}.allocate(frames);
    advise_huge_pages(reps, frames * sizeof(FrameBuffer::Rep));
    std::uninitialized_value_construct_n(reps, frames);
    block_->reps = reps;
    block_->frames = frames;
}

FrameBuffer FrameSlab::capture(std::size_t index, std::span<const std::uint8_t> bytes) const {
    const Bytes* storage = block_->storage.get();
    if (storage == nullptr || index >= block_->frames) return FrameBuffer::capture(bytes);
    // Compare addresses as integers: the bytes may come from any allocation.
    const auto base = reinterpret_cast<std::uintptr_t>(storage->data());
    const auto begin = reinterpret_cast<std::uintptr_t>(bytes.data());
    if (begin < base || begin - base > storage->size() ||
        bytes.size() > storage->size() - (begin - base)) {
        return FrameBuffer::capture(bytes);
    }
    FrameBuffer::Rep& rep = block_->reps[index];
    rep.bytes = bytes;
    return FrameBuffer{std::shared_ptr<FrameBuffer::Rep>(block_, &rep)};
}

std::span<const std::uint8_t> FrameBuffer::bytes() const {
    if (rep_ == nullptr) return {};
    return rep_->bytes;
}

std::size_t FrameBuffer::size() const { return rep_ == nullptr ? 0 : rep_->bytes.size(); }

const EthernetFrame& FrameView::frame() const {
    static const EthernetFrame kEmpty{};
    FrameBuffer::Rep* rep = buffer_.rep_.get();
    if (rep == nullptr) return kEmpty;
    frame_detail::ensure_header(*rep);
    if (!rep->eth_ok) return kEmpty;
    if (rep->frame == nullptr) {
        auto frame = std::make_unique<EthernetFrame>();
        frame->dst = rep->header.dst;
        frame->src = rep->header.src;
        frame->ether_type = rep->header.ether_type;
        const auto p = frame_detail::payload_span(*rep);
        frame->payload.assign(p.begin(), p.end());
        rep->frame = std::move(frame);
    }
    return *rep->frame;
}

void FrameView::prime() const {
    FrameBuffer::Rep* rep = buffer_.rep_.get();
    if (rep == nullptr) return;
    frame_detail::ensure_header(*rep);
    if (!rep->eth_ok) return;
    if (rep->payload_parsed) return;
    if (rep->header.ether_type == EtherType::kArp) frame_detail::parse_arp_slow(*rep);
    if (rep->header.ether_type == EtherType::kIpv4) frame_detail::parse_ipv4_slow(*rep);
}

}  // namespace arpsec::wire
