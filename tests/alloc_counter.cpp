// Replaces the global allocation functions with malloc/free forwarders that
// tally the `new` calls of a thread holding an AllocCounter. Kept in its own
// translation unit so no caller inlines the pairing of new with free.

#include "alloc_counter.hpp"

#include <cstdlib>
// lint:allow(naked-new): std::bad_alloc for the replaced allocation functions
#include <new>

namespace {

thread_local bool t_counting = false;
thread_local std::size_t t_count = 0;

void* counted_alloc(std::size_t size) {
    if (t_counting) ++t_count;
    // lint:allow(naked-new): the replaceable global allocation functions
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc{};
}

}  // namespace

namespace arpsec::testing_support {

AllocCounter::AllocCounter() {
    t_count = 0;
    t_counting = true;
}

AllocCounter::~AllocCounter() { t_counting = false; }

std::size_t AllocCounter::count() const { return t_count; }

}  // namespace arpsec::testing_support

// lint:allow(naked-new): the replaceable global allocation functions
void* operator new(std::size_t size) { return counted_alloc(size); }
// lint:allow(naked-new): the replaceable global allocation functions
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
