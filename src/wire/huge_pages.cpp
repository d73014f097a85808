#include "wire/huge_pages.hpp"

#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace arpsec::wire {

void advise_huge_pages(const void* begin, std::size_t bytes) {
#if defined(MADV_HUGEPAGE)
    constexpr std::uintptr_t kHuge = std::uintptr_t{2} << 20;
    const auto first = reinterpret_cast<std::uintptr_t>(begin);
    const std::uintptr_t lo = (first + kHuge - 1) & ~(kHuge - 1);
    const std::uintptr_t hi = (first + bytes) & ~(kHuge - 1);
    if (hi > lo) (void)::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
#else
    (void)begin;
    (void)bytes;
#endif
}

}  // namespace arpsec::wire
