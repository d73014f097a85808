#include "exp/executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

namespace arpsec::exp {

std::vector<std::string> run_indexed(std::size_t n, std::size_t jobs,
                                     const std::function<void(std::size_t)>& body) {
    std::vector<std::string> errors(n);
    const auto run_one = [&](std::size_t i) {
        try {
            body(i);
        } catch (const std::exception& e) {
            errors[i] = e.what()[0] != '\0' ? e.what() : "exception";
        } catch (...) {
            errors[i] = "unknown exception";
        }
    };

    if (jobs <= 1 || n <= 1) {
        for (std::size_t i = 0; i < n; ++i) run_one(i);
        return errors;
    }

    std::atomic<std::size_t> next{0};
    const std::size_t workers = std::min(jobs, n);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
                run_one(i);
            }
        });
    }
    for (auto& t : pool) t.join();
    return errors;
}

void yield_thread() noexcept { std::this_thread::yield(); }

void sleep_millis(unsigned ms) {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

unsigned hardware_threads() { return std::thread::hardware_concurrency(); }

std::string run_pair(const std::function<void()>& peer,
                     const std::function<void()>& body) {
    std::string peer_error;
    std::thread t([&] {
        try {
            peer();
        } catch (const std::exception& e) {
            peer_error = e.what()[0] != '\0' ? e.what() : "exception";
        } catch (...) {
            peer_error = "unknown exception";
        }
    });
    try {
        body();
    } catch (...) {
        t.join();
        throw;
    }
    t.join();
    return peer_error;
}

}  // namespace arpsec::exp
