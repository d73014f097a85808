#pragma once

#include <cstdint>
#include <limits>

#include "common/time.hpp"

namespace arpsec::common {

/// Parses a CLI flag's base-10 unsigned value. Empty, non-numeric,
/// trailing-junk, negative and out-of-[min, max] values print
/// "<prog>: bad count '<text>'" to stderr and exit with the usage code 2,
/// so a typo never silently becomes 0 (or a wrapped huge number).
[[nodiscard]] std::uint64_t parse_count(
    const char* prog, const char* text, std::uint64_t min = 1,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// A non-negative millisecond flag value, through parse_count, bounded so
/// its nanosecond Duration fits in int64.
[[nodiscard]] Duration parse_millis(const char* prog, const char* text);

}  // namespace arpsec::common
