// Counting global operator new, linked into the traced runner only. Every
// replaceable allocation form funnels through counted_alloc; deallocation
// is untouched apart from matching malloc with free.

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t size) {
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    }
    void* p = std::malloc(size == 0 ? 1 : size);
    if (p == nullptr) throw std::bad_alloc{};
    return p;
}

void* counted_alloc_aligned(std::size_t size, std::align_val_t align) {
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    }
    const auto a = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + a - 1) / a * a;
    void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded);
    if (p == nullptr) throw std::bad_alloc{};
    return p;
}

}  // namespace

namespace perfbench {

bool alloc_counting_supported() { return true; }
void set_alloc_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }
std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

}  // namespace perfbench

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
    try {
        return counted_alloc(size);
    } catch (...) {
        return nullptr;
    }
}
void* operator new(std::size_t size, std::align_val_t align) {
    return counted_alloc_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
    return counted_alloc_aligned(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
