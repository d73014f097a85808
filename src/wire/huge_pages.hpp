#pragma once

#include <cstddef>

namespace arpsec::wire {

/// Asks the kernel to back the 2 MiB-aligned interior of [begin, begin +
/// bytes) with transparent huge pages. Call it on a fresh allocation before
/// anything writes to it: filling tens of MB costs one page fault per
/// 4 KiB page, a huge page one fault per 2 MiB. Replay ingest advises its
/// pcap buffer and its Rep slab. Only a hint: where transparent huge pages
/// are unsupported or disabled nothing changes.
void advise_huge_pages(const void* begin, std::size_t bytes);

}  // namespace arpsec::wire
