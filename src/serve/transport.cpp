#include "serve/transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <memory>
#include <utility>

namespace arpsec::serve {

namespace {

std::string errno_string(const std::string& what) {
    return what + ": " + std::strerror(errno);
}

/// Waits for readability with poll(); returns 0 on ready, 1 on timeout,
/// -1 on error. Interrupted waits retry.
int wait_readable(int fd, int timeout_ms) {
    for (;;) {
        pollfd pfd{};
        pfd.fd = fd;
        pfd.events = POLLIN;
        const int r = ::poll(&pfd, 1, timeout_ms);
        if (r > 0) return 0;
        if (r == 0) return 1;
        if (errno == EINTR) continue;
        return -1;
    }
}

/// Socket-backed Connection shared by the Unix and TCP transports: after
/// the handshake both are just stream fds.
class FdConnection final : public Connection {
public:
    FdConnection(int fd, std::string peer) : fd_(fd), peer_(std::move(peer)) {}
    ~FdConnection() override { close(); }

    IoResult read_some(std::span<std::uint8_t> buf, int timeout_ms) override {
        IoResult res;
        if (fd_ < 0) {
            res.kind = IoResult::Kind::kEof;
            return res;
        }
        if (timeout_ms >= 0) {
            const int w = wait_readable(fd_, timeout_ms);
            if (w == 1) {
                res.kind = IoResult::Kind::kTimeout;
                return res;
            }
            if (w < 0) {
                res.kind = IoResult::Kind::kError;
                res.error = errno_string("poll");
                return res;
            }
        }
        for (;;) {
            const ssize_t n = ::read(fd_, buf.data(), buf.size());
            if (n > 0) {
                res.kind = IoResult::Kind::kData;
                res.bytes = static_cast<std::size_t>(n);
                return res;
            }
            if (n == 0) {
                res.kind = IoResult::Kind::kEof;
                return res;
            }
            if (errno == EINTR) continue;
            res.kind = IoResult::Kind::kError;
            res.error = errno_string("read");
            return res;
        }
    }

    bool write_all(std::span<const std::uint8_t> data) override {
        if (fd_ < 0) return false;
        std::size_t off = 0;
        while (off < data.size()) {
            const ssize_t n = ::write(fd_, data.data() + off, data.size() - off);
            if (n > 0) {
                off += static_cast<std::size_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR) continue;
            return false;
        }
        return true;
    }

    void close() override {
        if (fd_ >= 0) {
            ::shutdown(fd_, SHUT_RDWR);
            ::close(fd_);
            fd_ = -1;
        }
    }

    [[nodiscard]] std::string peer() const override { return peer_; }

private:
    int fd_ = -1;
    std::string peer_;
};

class FdListener final : public Listener {
public:
    FdListener(int fd, std::string address, std::string unlink_path)
        : fd_(fd), address_(std::move(address)), unlink_path_(std::move(unlink_path)) {}
    ~FdListener() override { close(); }

    common::Expected<std::unique_ptr<Connection>> accept(int timeout_ms) override {
        using Result = common::Expected<std::unique_ptr<Connection>>;
        if (fd_ < 0) return Result::failure("listener closed");
        const int w = wait_readable(fd_, timeout_ms);
        if (w == 1) return Result::failure("accept: timed out");
        if (w < 0) return Result::failure(errno_string("poll"));
        for (;;) {
            const int client = ::accept(fd_, nullptr, nullptr);
            if (client >= 0) {
                return Result{std::unique_ptr<Connection>(
                    std::make_unique<FdConnection>(client, address_))};
            }
            if (errno == EINTR) continue;
            return Result::failure(errno_string("accept"));
        }
    }

    void close() override {
        if (fd_ >= 0) {
            ::close(fd_);
            fd_ = -1;
            if (!unlink_path_.empty()) ::unlink(unlink_path_.c_str());
        }
    }

    [[nodiscard]] std::string address() const override { return address_; }

private:
    int fd_ = -1;
    std::string address_;
    std::string unlink_path_;
};

// ---------------------------------------------------------------------------
// In-process pipe
// ---------------------------------------------------------------------------

/// One direction of the pipe: a bounded byte queue with blocking reads and
/// writes. Two of these, crossed over, make a full-duplex connection.
struct PipeChannel {
    explicit PipeChannel(std::size_t cap)
        : capacity(cap == 0 ? 1 : cap),
          buf(std::make_unique_for_overwrite<std::uint8_t[]>(capacity)) {}

    std::mutex m;
    std::condition_variable cv;
    // Circular byte buffer: `size` bytes starting at `head`, wrapping at
    // `capacity`. Writers and readers copy whole spans, at most two
    // memcpys per call.
    std::size_t capacity;
    std::unique_ptr<std::uint8_t[]> buf;
    std::size_t head = 0;
    std::size_t size = 0;
    bool closed = false;

    bool write_all(std::span<const std::uint8_t> data) {
        std::size_t off = 0;
        std::unique_lock<std::mutex> lk(m);
        while (off < data.size()) {
            cv.wait(lk, [&] { return closed || size < capacity; });
            if (closed) return false;
            const std::size_t n = std::min(data.size() - off, capacity - size);
            const std::size_t tail = (head + size) % capacity;
            const std::size_t first = std::min(n, capacity - tail);
            std::memcpy(buf.get() + tail, data.data() + off, first);
            std::memcpy(buf.get(), data.data() + off + first, n - first);
            size += n;
            off += n;
            cv.notify_all();
        }
        return true;
    }

    IoResult read_some(std::span<std::uint8_t> out, int timeout_ms) {
        IoResult res;
        std::unique_lock<std::mutex> lk(m);
        const auto ready = [&] { return closed || size != 0; };
        if (timeout_ms < 0) {
            cv.wait(lk, ready);
        } else if (!cv.wait_for(lk, std::chrono::milliseconds(timeout_ms), ready)) {
            res.kind = IoResult::Kind::kTimeout;
            return res;
        }
        if (size == 0) {
            res.kind = IoResult::Kind::kEof;  // closed and drained
            return res;
        }
        const std::size_t n = std::min(out.size(), size);
        const std::size_t first = std::min(n, capacity - head);
        std::memcpy(out.data(), buf.get() + head, first);
        std::memcpy(out.data() + first, buf.get(), n - first);
        head = (head + n) % capacity;
        size -= n;
        cv.notify_all();
        res.kind = IoResult::Kind::kData;
        res.bytes = n;
        return res;
    }

    void close() {
        {
            std::lock_guard<std::mutex> lk(m);
            closed = true;
        }
        cv.notify_all();
    }
};

struct PipeState {
    explicit PipeState(std::size_t cap) : client_to_server(cap), server_to_client(cap) {}
    PipeChannel client_to_server;
    PipeChannel server_to_client;
};

class PipeConnection final : public Connection {
public:
    PipeConnection(std::shared_ptr<PipeState> state, bool is_client)
        : state_(std::move(state)), is_client_(is_client) {}
    ~PipeConnection() override { close(); }

    IoResult read_some(std::span<std::uint8_t> buf, int timeout_ms) override {
        return inbound().read_some(buf, timeout_ms);
    }
    bool write_all(std::span<const std::uint8_t> data) override {
        return outbound().write_all(data);
    }
    void close() override {
        // Closing one endpoint tears down both directions: blocked peers
        // wake with kEof once they drain what was already written.
        state_->client_to_server.close();
        state_->server_to_client.close();
    }
    [[nodiscard]] std::string peer() const override { return "pipe"; }

private:
    PipeChannel& inbound() {
        return is_client_ ? state_->server_to_client : state_->client_to_server;
    }
    PipeChannel& outbound() {
        return is_client_ ? state_->client_to_server : state_->server_to_client;
    }

    std::shared_ptr<PipeState> state_;
    bool is_client_;
};

}  // namespace

common::Expected<std::unique_ptr<Listener>> listen_unix(const std::string& path) {
    using Result = common::Expected<std::unique_ptr<Listener>>;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        return Result::failure("unix socket path too long: " + path);
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Result::failure(errno_string("socket"));
    ::unlink(path.c_str());  // stale socket from a previous run
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        const std::string err = errno_string("bind " + path);
        ::close(fd);
        return Result::failure(err);
    }
    if (::listen(fd, 8) != 0) {
        const std::string err = errno_string("listen");
        ::close(fd);
        return Result::failure(err);
    }
    return Result{std::unique_ptr<Listener>(
        std::make_unique<FdListener>(fd, "unix:" + path, path))};
}

common::Expected<std::unique_ptr<Listener>> listen_tcp(std::uint16_t port) {
    using Result = common::Expected<std::unique_ptr<Listener>>;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Result::failure(errno_string("socket"));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        const std::string err = errno_string("bind");
        ::close(fd);
        return Result::failure(err);
    }
    if (::listen(fd, 8) != 0) {
        const std::string err = errno_string("listen");
        ::close(fd);
        return Result::failure(err);
    }
    // Recover the kernel-assigned port when the caller passed 0.
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
    return Result{std::unique_ptr<Listener>(std::make_unique<FdListener>(
        fd, "tcp:127.0.0.1:" + std::to_string(ntohs(bound.sin_port)), ""))};
}

common::Expected<std::unique_ptr<Connection>> connect_unix(const std::string& path) {
    using Result = common::Expected<std::unique_ptr<Connection>>;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        return Result::failure("unix socket path too long: " + path);
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return Result::failure(errno_string("socket"));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        const std::string err = errno_string("connect " + path);
        ::close(fd);
        return Result::failure(err);
    }
    return Result{std::unique_ptr<Connection>(
        std::make_unique<FdConnection>(fd, "unix:" + path))};
}

common::Expected<std::unique_ptr<Connection>> connect_tcp(const std::string& host,
                                                          std::uint16_t port) {
    using Result = common::Expected<std::unique_ptr<Connection>>;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        return Result::failure("connect: '" + host + "' is not a dotted-quad IPv4 address");
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Result::failure(errno_string("socket"));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        const std::string err = errno_string("connect " + host + ":" + std::to_string(port));
        ::close(fd);
        return Result::failure(err);
    }
    return Result{std::unique_ptr<Connection>(std::make_unique<FdConnection>(
        fd, "tcp:" + host + ":" + std::to_string(port)))};
}

PipePair make_pipe(std::size_t capacity) {
    auto state = std::make_shared<PipeState>(capacity);
    PipePair pair;
    pair.client = std::make_unique<PipeConnection>(state, /*is_client=*/true);
    pair.server = std::make_unique<PipeConnection>(std::move(state), /*is_client=*/false);
    return pair;
}

}  // namespace arpsec::serve
