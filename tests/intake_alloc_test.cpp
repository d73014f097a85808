// Counts the serve intake's heap allocations. alloc_counter.cpp replaces the
// global allocation functions for this whole binary, so it is kept apart
// from wire_test, whose stream tests run under ASan's own new/delete checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "alloc_counter.hpp"
#include "wire/arp_packet.hpp"
#include "wire/ethernet.hpp"
#include "wire/frame.hpp"
#include "wire/stream_codec.hpp"

namespace arpsec::wire {
namespace {

/// `frames` ARP requests, one kFrame record each.
Bytes arp_stream(std::size_t frames) {
    Bytes stream;
    for (std::size_t i = 0; i < frames; ++i) {
        EthernetFrame f;
        f.dst = MacAddress::broadcast();
        f.src = MacAddress::local(1 + i % 7);
        f.ether_type = EtherType::kArp;
        f.payload = ArpPacket::request(f.src, Ipv4Address{192, 168, 1, 2},
                                       Ipv4Address{192, 168, 1, 1})
                        .serialize();
        encode_frame(stream, i, f.serialize());
    }
    return stream;
}

/// The serve intake's per-read work over `stream`, in reads of at most
/// `read_bytes`: feed the read, take frames with the borrowing poll, and
/// capture and prime them from one slab over the decoder's buffer. The
/// views are kept, as by the shards. Returns the number of reads.
std::size_t intake(const Bytes& stream, std::size_t read_bytes, std::vector<FrameView>& kept) {
    struct Pending {
        std::span<const std::uint8_t> bytes;
    };
    StreamDecoder d;
    std::vector<Pending> pending;
    std::vector<FrameView> views;
    std::size_t reads = 0;
    for (std::size_t pos = 0; pos < stream.size(); ++reads) {
        const std::size_t n = std::min(read_bytes, stream.size() - pos);
        d.feed(std::span<const std::uint8_t>{stream.data() + pos, n});
        pos += n;
        StreamRecord rec;
        StreamFrameRef frame;
        while (d.poll(rec, frame) == StreamDecoder::Status::kRecord) {
            pending.push_back({frame.bytes});
        }
        if (pending.empty()) continue;
        views.clear();
        capture_views(d.share_buffer(), pending, [](const Pending& p) { return p.bytes; }, views);
        for (FrameView& v : views) kept.push_back(std::move(v));
        pending.clear();
    }
    return reads;
}

TEST(IntakeAllocTest, AllocatesPerReadAndChunkNotPerFrame) {
    // ARP frames prime without allocating, so any per-frame allocation on
    // this path would show as >= one per frame. Large reads (a client
    // writing flat out) and small ones (a paced client, a few frames per
    // read) must both cost a bounded number per read.
    constexpr std::size_t kFrames = 20000;
    const Bytes stream = arp_stream(kFrames);
    for (const std::size_t read_bytes : {std::size_t{1} << 16, std::size_t{462}}) {
        std::vector<FrameView> kept;  // what the shards would hold
        kept.reserve(kFrames);
        std::size_t reads = 0;
        std::size_t allocated = 0;
        {
            const testing_support::AllocCounter allocs;
            reads = intake(stream, read_bytes, kept);
            allocated = allocs.count();
        }
        ASSERT_EQ(kept.size(), kFrames);
        for (const FrameView& v : kept) ASSERT_NE(v.arp(), nullptr);
        // Per read: the decoder's buffer and its shared_ptr; per chunk:
        // the slab's two blocks; plus the reused vectors growing during
        // the first chunks.
        EXPECT_LT(allocated, 4 * reads + 64) << reads << " reads of " << read_bytes;
    }
}

}  // namespace
}  // namespace arpsec::wire
