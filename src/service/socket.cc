#include "service/socket.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "resilience/error.hh"
#include "resilience/fault.hh"
#include "util/names.hh"

namespace quest::service {

namespace {

using Clock = std::chrono::steady_clock;

/** A deadline for one frame's worth of I/O; unset blocks forever. */
struct IoDeadline
{
    bool armed = false;
    Clock::time_point at{};

    static IoDeadline
    in(int ms)
    {
        IoDeadline d;
        if (ms >= 0) {
            d.armed = true;
            d.at = Clock::now() + std::chrono::milliseconds(ms);
        }
        return d;
    }

    bool
    expired() const
    {
        return armed && Clock::now() >= at;
    }

    /** poll(2) timeout argument: remaining ms (≥1) or -1. */
    int
    pollMs() const
    {
        if (!armed)
            return -1;
        const auto left = std::chrono::duration_cast<
            std::chrono::milliseconds>(at - Clock::now());
        return std::max<int>(1, static_cast<int>(left.count()) + 1);
    }
};

/** How one bounded read attempt ended. */
enum class IoOutcome { Ok, Eof, Error, Stalled };

/**
 * Read exactly @p n bytes under @p deadline. Ok fills the buffer;
 * Eof is a clean close before the first byte *of this call*
 * (@p got says how many arrived); Stalled is the deadline firing
 * with the read incomplete.
 */
IoOutcome
readExact(int fd, uint8_t *buf, size_t n, const IoDeadline &deadline,
          size_t &got)
{
    got = 0;
    while (got < n) {
        if (deadline.expired())
            return IoOutcome::Stalled;
        pollfd pfd{fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, deadline.pollMs());
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return IoOutcome::Error;
        }
        if (ready == 0)
            continue; // poll timeout: loop re-checks the deadline
        const ssize_t r = ::recv(fd, buf + got, n - got, MSG_DONTWAIT);
        if (r > 0) {
            got += static_cast<size_t>(r);
            continue;
        }
        if (r == 0)
            return IoOutcome::Eof;
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
            continue;
        return IoOutcome::Error;
    }
    return IoOutcome::Ok;
}

RecvResult
fail(RecvStatus status, std::string error)
{
    RecvResult r;
    r.status = status;
    r.error = std::move(error);
    return r;
}

} // namespace

RecvResult
recvFrame(int fd, uint32_t maxPayloadBytes, SocketTimeouts timeouts)
{
    // The first header byte is the idle/active boundary: waiting for
    // it is bounded by the idle deadline (a silent connection is
    // reaped), everything after it by the per-frame I/O deadline (a
    // dribbling peer is a slowloris stall).
    uint8_t header[kFrameHeaderBytes];
    size_t got = 0;
    switch (readExact(fd, header, 1, IoDeadline::in(timeouts.idleMs),
                      got)) {
      case IoOutcome::Ok:
        break;
      case IoOutcome::Eof:
        return fail(RecvStatus::Eof, "connection closed");
      case IoOutcome::Stalled:
        return fail(RecvStatus::Idle,
                    "no frame started within the idle deadline");
      case IoOutcome::Error:
        return fail(RecvStatus::IoError,
                    std::string("read failed: ") +
                        std::strerror(errno));
    }

    const IoDeadline frameDeadline = IoDeadline::in(timeouts.ioMs);
    switch (readExact(fd, header + 1, sizeof header - 1,
                      frameDeadline, got)) {
      case IoOutcome::Ok:
        break;
      case IoOutcome::Eof:
        return fail(RecvStatus::Malformed, "truncated frame header");
      case IoOutcome::Stalled:
        return fail(RecvStatus::Stalled,
                    "frame header stalled past the I/O deadline");
      case IoOutcome::Error:
        return fail(RecvStatus::IoError,
                    std::string("read failed: ") +
                        std::strerror(errno));
    }

    if (QUEST_FAULT_POINT(names::kFaultServiceRecvStall)) {
        // Simulated slowloris: the peer framed a header, then went
        // quiet until the I/O deadline fired.
        return fail(RecvStatus::Stalled,
                    "injected mid-frame stall (service.recv.stall)");
    }

    FrameHeader h = decodeFrameHeader(header, maxPayloadBytes);
    switch (h.defect) {
      case FrameDefect::None:
        break;
      case FrameDefect::BadMagic:
        return fail(RecvStatus::Malformed, std::move(h.error));
      case FrameDefect::VersionMismatch:
        return fail(RecvStatus::VersionMismatch, std::move(h.error));
      case FrameDefect::Oversized:
        return fail(RecvStatus::Oversized, std::move(h.error));
    }

    // The payload and its checksum trailer land in the frame's own
    // buffer; the trailer is cut off once checked.
    RecvResult result;
    std::vector<uint8_t> &body = result.frame.payload;
    body.resize(size_t{h.length} + kFrameTrailerBytes);
    switch (readExact(fd, body.data(), body.size(), frameDeadline,
                      got)) {
      case IoOutcome::Ok:
        break;
      case IoOutcome::Eof:
        return fail(RecvStatus::Malformed,
                    "torn frame: payload cut short by connection "
                    "close");
      case IoOutcome::Stalled:
        return fail(RecvStatus::Stalled,
                    "frame payload stalled past the I/O deadline");
      case IoOutcome::Error:
        return fail(RecvStatus::IoError,
                    std::string("read failed: ") +
                        std::strerror(errno));
    }

    if (!frameChecksumMatches(body.data(), h.length))
        return fail(RecvStatus::Malformed,
                    "frame payload checksum mismatch");
    body.resize(h.length);
    result.status = RecvStatus::Ok;
    result.frame.type = h.type;
    return result;
}

SendStatus
sendExact(int fd, const uint8_t *data, size_t n, int ioTimeoutMs)
{
    const IoDeadline deadline = IoDeadline::in(ioTimeoutMs);
    size_t sent = 0;
    while (sent < n) {
        if (deadline.expired())
            return SendStatus::Stalled;
        pollfd pfd{fd, POLLOUT, 0};
        const int ready = ::poll(&pfd, 1, deadline.pollMs());
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return SendStatus::Error;
        }
        if (ready == 0)
            continue; // poll timeout: loop re-checks the deadline
        const ssize_t w = ::send(fd, data + sent, n - sent,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (w > 0) {
            sent += static_cast<size_t>(w);
            continue;
        }
        if (w < 0 && (errno == EINTR || errno == EAGAIN ||
                      errno == EWOULDBLOCK))
            continue;
        return SendStatus::Error;
    }
    return SendStatus::Ok;
}

SendStatus
sendFrame(int fd, MsgType type, const std::vector<uint8_t> &payload,
          int ioTimeoutMs)
{
    if (QUEST_FAULT_POINT(names::kFaultServiceWrite)) {
        // Simulated torn write: drop the connection.
        return SendStatus::Error;
    }
    const std::vector<uint8_t> frame = encodeFrame(type, payload);
    return sendExact(fd, frame.data(), frame.size(), ioTimeoutMs);
}

Listener::Listener(const std::string &path) : sockPath(path)
{
    using resilience::ErrorCategory;
    using resilience::QuestError;

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
        throw QuestError(ErrorCategory::InvalidInput,
                         "socket path too long (" +
                             std::to_string(path.size()) + " > " +
                             std::to_string(sizeof addr.sun_path - 1) +
                             "): " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        throw QuestError(ErrorCategory::Io,
                         std::string("socket: ") +
                             std::strerror(errno));
    }
    ::unlink(path.c_str()); // stale socket from a killed daemon
    if (::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(fd, 64) != 0) {
        const std::string what = std::strerror(errno);
        ::close(fd);
        fd = -1;
        throw QuestError(ErrorCategory::Io,
                         "cannot listen on '" + path + "': " + what);
    }
}

Listener::~Listener()
{
    close();
}

int
Listener::acceptConnection(int timeoutMs)
{
    if (fd < 0)
        return -1;
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeoutMs);
    if (ready <= 0)
        return -1; // timeout, EINTR, or poll error: caller re-polls
    const int conn = ::accept4(fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (conn < 0)
        return -1;
    if (QUEST_FAULT_POINT(names::kFaultServiceAccept)) {
        // Simulated accept failure: the client sees its fresh
        // connection drop and may retry; the daemon carries on.
        ::close(conn);
        return -1;
    }
    return conn;
}

void
Listener::close()
{
    if (fd < 0)
        return;
    ::close(fd);
    fd = -1;
    ::unlink(sockPath.c_str());
}

int
connectTo(const std::string &path, double timeoutSeconds)
{
    using resilience::ErrorCategory;
    using resilience::QuestError;

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
        throw QuestError(ErrorCategory::InvalidInput,
                         "socket path too long: " + path);
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

    const auto give_up =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(timeoutSeconds));
    std::string last_error = "timed out";
    for (;;) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0) {
            throw QuestError(ErrorCategory::Io,
                             std::string("socket: ") +
                                 std::strerror(errno));
        }
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof addr) == 0) {
            return fd;
        }
        last_error = std::strerror(errno);
        ::close(fd);
        if (std::chrono::steady_clock::now() >= give_up)
            break;
        // The daemon may still be binding; retry shortly.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    throw QuestError(ErrorCategory::Io, "cannot connect to '" + path +
                                            "': " + last_error);
}

} // namespace quest::service
