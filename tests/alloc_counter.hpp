#pragma once

#include <cstddef>

namespace arpsec::testing_support {

/// Counts the global `operator new` calls the constructing thread makes
/// while the counter is alive. Linked only into tests that need it
/// (alloc_counter.cpp replaces the global allocation functions).
class AllocCounter {
public:
    AllocCounter();
    ~AllocCounter();
    AllocCounter(const AllocCounter&) = delete;
    AllocCounter& operator=(const AllocCounter&) = delete;

    [[nodiscard]] std::size_t count() const;
};

}  // namespace arpsec::testing_support
