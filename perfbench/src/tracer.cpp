#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "bench.hpp"

namespace perfbench {

using arpsec::telemetry::Json;

double mono_now() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

ProcessUsage process_usage() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    const auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    ProcessUsage u;
    u.cpu_s = seconds(ru.ru_utime) + seconds(ru.ru_stime);
    u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
    return u;
}

#ifndef PERFBENCH_COUNT_ALLOCS
bool alloc_counting_supported() { return false; }
void set_alloc_counting(bool) {}
std::uint64_t alloc_count() { return 0; }
#endif

namespace {

thread_local int t_open_span = -1;

std::uint32_t thread_tag() {
    return static_cast<std::uint32_t>(std::hash<std::thread::id>{}(std::this_thread::get_id()) &
                                      0xffffu);
}

}  // namespace

Tracer& Tracer::instance() {
    static Tracer tracer;
    return tracer;
}

void Tracer::enable(std::string process_label) {
    label_ = std::move(process_label);
    enabled_ = true;
}

int Tracer::next_id() {
    std::lock_guard<std::mutex> lk(mutex_);
    return next_id_++;
}

void Tracer::record(Record r) {
    std::lock_guard<std::mutex> lk(mutex_);
    records_.push_back(std::move(r));
}

Tracer::Span::Span(std::string_view name) {
    Tracer& t = instance();
    if (!t.enabled()) return;
    name_ = std::string{name};
    id_ = t.next_id();
    parent_ = t_open_span;
    t_open_span = id_;
    start_ = mono_now();
}

Tracer::Span::~Span() {
    if (id_ < 0) return;
    Record r;
    r.end = mono_now();
    r.start = start_;
    r.name = std::move(name_);
    r.id = id_;
    r.parent = parent_;
    r.tid = thread_tag();
    r.args = std::move(args_);
    t_open_span = parent_;
    instance().record(std::move(r));
}

void Tracer::Span::arg(const std::string& key, double value) {
    if (id_ >= 0) args_[key] = value;
}

bool Tracer::write_chrome(const std::string& path) const {
    std::lock_guard<std::mutex> lk(mutex_);
    Json events = Json::array();
    for (const Record& r : records_) {
        Json e = Json::object();
        e["name"] = r.name;
        e["cat"] = label_;
        e["ph"] = "X";
        // Chrome trace time is in microseconds; keep the absolute monotonic
        // origin so spans of the daemon and the client share one axis.
        e["ts"] = r.start * 1e6;
        e["dur"] = (r.end - r.start) * 1e6;
        e["pid"] = label_;
        e["tid"] = static_cast<std::uint64_t>(r.tid);
        Json args = Json::object();
        args["id"] = static_cast<std::int64_t>(r.id);
        args["parent"] = static_cast<std::int64_t>(r.parent);
        for (const auto& [k, v] : r.args) args[k] = v;
        e["args"] = std::move(args);
        events.push_back(std::move(e));
    }
    Json doc = Json::object();
    doc["traceEvents"] = std::move(events);
    doc["displayTimeUnit"] = "ms";
    return write_json(path, doc);
}

Args::Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0) {
            std::fprintf(stderr, "perfbench: unexpected argument '%s'\n", argv[i]);
            std::exit(2);
        }
        key = key.substr(2);
        if (i + 1 < argc && std::string{argv[i + 1]}.rfind("--", 0) != 0) {
            values_[key] = argv[++i];
        } else {
            values_[key] = "";
        }
    }
}

bool Args::has(const std::string& key) const { return values_.count(key) != 0; }

std::string Args::str(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

std::uint64_t Args::u64(const std::string& key, std::uint64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtoull(it->second.c_str(), nullptr, 10);
}

double Args::num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

std::vector<std::string> Args::list(const std::string& key) const {
    std::vector<std::string> out;
    std::stringstream ss(str(key));
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty()) out.push_back(item);
    }
    return out;
}

std::uint64_t fnv1a(const std::string& data) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : data) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string hex64(std::uint64_t value) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
    return buf;
}

std::string multiset_digest(const std::vector<std::string>& lines) {
    std::uint64_t sum = 0;
    for (const std::string& line : lines) sum += fnv1a(line);
    return hex64(sum);
}

double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size());
    std::size_t idx = static_cast<std::size_t>(rank);
    if (static_cast<double>(idx) < rank) ++idx;  // ceil
    if (idx > 0) --idx;
    return values[std::min(idx, values.size() - 1)];
}

bool write_json(const std::string& path, const Json& j) {
    std::ofstream out{path, std::ios::trunc};
    if (!out) return false;
    out << j.dump() << '\n';
    return static_cast<bool>(out);
}

std::optional<Json> read_json(const std::string& path) {
    std::ifstream in{path};
    if (!in) return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    return Json::parse(buf.str());
}

Json build_info() {
    Json j = Json::object();
#if defined(__clang__)
    j["compiler"] = std::string{"clang "} + __clang_version__;
#elif defined(__GNUC__)
    j["compiler"] = std::string{"g++ "} + __VERSION__;
#else
    j["compiler"] = "unknown";
#endif
    j["build_type"] = PERFBENCH_BUILD_TYPE;
    j["alloc_counting"] = alloc_counting_supported();
    return j;
}

}  // namespace perfbench
