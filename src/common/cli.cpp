#include "common/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace arpsec::common {

std::uint64_t parse_count(const char* prog, const char* text, std::uint64_t min,
                          std::uint64_t max) {
    // strtoull skips leading blanks and negates a '-' value into a huge
    // number, so require the first character to be a digit.
    char* end = nullptr;
    errno = 0;
    const bool digit_first = text[0] >= '0' && text[0] <= '9';
    const unsigned long long v = digit_first ? std::strtoull(text, &end, 10) : 0;
    if (!digit_first || *end != '\0' || errno == ERANGE || v < min || v > max) {
        std::fprintf(stderr, "%s: bad count '%s'\n", prog, text);
        std::exit(2);
    }
    return v;
}

}  // namespace arpsec::common
