#pragma once

// Shared plumbing of the perfbench runners: a CLOCK_MONOTONIC clock that
// lines up across processes, in-memory layer spans exported as Chrome trace
// JSON, the traced binary's allocation counter, and small CLI/result
// helpers. Nothing here reaches into the library's internals — every layer
// is observed by wrapping the public call that enters it.

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/json.hpp"

namespace perfbench {

/// Seconds on CLOCK_MONOTONIC (std::chrono::steady_clock on Linux) — the
/// clock Python's time.monotonic() reads, so the harness can subtract a
/// child's timestamps from its own spawn time.
[[nodiscard]] double mono_now();

/// The calling process's user+sys CPU and peak RSS so far (getrusage):
/// read where the measured command ends, so the gates' bookkeeping that
/// follows is not charged to it.
struct ProcessUsage {
    double cpu_s = 0.0;
    double peak_rss_mb = 0.0;
};
[[nodiscard]] ProcessUsage process_usage();

/// Global operator new calls counted since start. Only the traced binary
/// counts (alloc_count.cpp); the untraced one always reports 0.
[[nodiscard]] bool alloc_counting_supported();
void set_alloc_counting(bool on);
[[nodiscard]] std::uint64_t alloc_count();

/// In-memory span recorder. Disabled (every Span a no-op) unless a
/// `--trace-out` path was given. A span's parent is the innermost open
/// span on the same thread; spans are written out once, at exit.
class Tracer {
public:
    static Tracer& instance();

    void enable(std::string process_label);
    [[nodiscard]] bool enabled() const { return enabled_; }

    /// RAII span around one call into a layer.
    class Span {
    public:
        explicit Span(std::string_view name);
        ~Span();
        Span(const Span&) = delete;
        Span& operator=(const Span&) = delete;

        /// Count recorded at the span's boundary (frames, allocations...).
        void arg(const std::string& key, double value);

    private:
        std::string name_;
        double start_ = 0.0;
        int id_ = -1;
        int parent_ = -1;
        std::map<std::string, double> args_;
    };

    [[nodiscard]] bool write_chrome(const std::string& path) const;

private:
    struct Record {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int id = -1;
        int parent = -1;
        std::uint32_t tid = 0;
        std::map<std::string, double> args;
    };

    int next_id();
    void record(Record r);

    bool enabled_ = false;
    std::string label_;
    mutable std::mutex mutex_;
    std::vector<Record> records_;  // guards: mutex_
    int next_id_ = 0;              // guards: mutex_
};

/// `--key value` / `--flag` command line of one subcommand.
class Args {
public:
    Args(int argc, char** argv, int first);
    [[nodiscard]] bool has(const std::string& key) const;
    [[nodiscard]] std::string str(const std::string& key, const std::string& fallback = "") const;
    [[nodiscard]] std::uint64_t u64(const std::string& key, std::uint64_t fallback) const;
    [[nodiscard]] double num(const std::string& key, double fallback) const;
    /// Comma-separated list value.
    [[nodiscard]] std::vector<std::string> list(const std::string& key) const;

private:
    std::map<std::string, std::string> values_;
};

/// 64-bit FNV-1a, and its 16-hex-digit form (the gates' digest format).
[[nodiscard]] std::uint64_t fnv1a(const std::string& data);
[[nodiscard]] std::string hex64(std::uint64_t value);

/// Order-independent digest of a multiset of lines: the sum of their
/// FNV-1a hashes, in hex64 form. The serve gates compare alerts by it.
[[nodiscard]] std::string multiset_digest(const std::vector<std::string>& lines);

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 if empty.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Writes `j` to `path` (one line). Returns false on I/O error.
[[nodiscard]] bool write_json(const std::string& path, const arpsec::telemetry::Json& j);

/// The JSON document in `path`; nullopt on I/O or parse error.
[[nodiscard]] std::optional<arpsec::telemetry::Json> read_json(const std::string& path);

/// Build stamp: compiler, build type, alloc counting. The harness adds
/// host, CPU count and git describe at run time.
[[nodiscard]] arpsec::telemetry::Json build_info();

}  // namespace perfbench
