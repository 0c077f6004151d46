/**
 * @file
 * Local stream-socket transport for QSV1 frames: a unix-domain
 * listener, a connect helper, and blocking frame send/receive over a
 * connected fd.
 *
 * The receive path never throws on bad peer bytes — a daemon must
 * survive any garbage a client writes — so recvFrame() classifies the
 * defect (malformed, version mismatch, oversized, EOF, I/O error,
 * stalled, idle) and the server turns it into an Error reply plus a
 * counted rejection, or a counted drop. Both directions carry
 * deadlines: recvFrame() bounds the wait for a whole frame once its
 * first byte arrives (a slowloris peer that dribbles a header is
 * Stalled, not a hung thread) and separately bounds the wait for
 * that first byte (an idle connection is reaped); sendFrame() bounds
 * the write symmetrically, so a peer that stops reading until our
 * send buffer fills is a counted drop too. The failure-prone
 * syscalls carry fault points (`service.accept`, `service.write`,
 * `service.recv.stall`) so the resilience suite can prove a dropped
 * accept, a torn write or a stalled read degrades to one closed
 * connection, never a wedged daemon.
 */

#ifndef QUEST_SERVICE_SOCKET_HH
#define QUEST_SERVICE_SOCKET_HH

#include <string>

#include "service/protocol.hh"

namespace quest::service {

/** Why recvFrame() did not produce a frame. */
enum class RecvStatus {
    Ok,
    Eof,             //!< clean close at a frame boundary
    Malformed,       //!< bad magic, truncation, checksum, bad payload
    VersionMismatch, //!< well-framed but a different QSV version
    Oversized,       //!< length prefix exceeds the payload cap
    IoError,         //!< read(2) failed
    Stalled,         //!< frame started but the I/O deadline passed
    Idle,            //!< no first byte within the idle deadline
};

/** One receive attempt: the frame on Ok, a diagnostic otherwise. */
struct RecvResult
{
    RecvStatus status = RecvStatus::IoError;
    Frame frame;
    std::string error;
};

/** How a sendFrame()/sendExact() attempt ended. */
enum class SendStatus {
    Ok,
    Error,   //!< EPIPE, torn connection, injected `service.write`
    Stalled, //!< peer stopped reading past the I/O deadline
};

/**
 * Deadlines for one frame exchange, in milliseconds; -1 disables a
 * deadline (the seed's fully blocking behavior).
 */
struct SocketTimeouts
{
    /** Budget for a whole frame once its first byte arrived (and
     *  for a whole outgoing frame). Exceeding it is Stalled — the
     *  slowloris classification. */
    int ioMs = -1;

    /** Receive-only: how long to wait for a frame to *start*.
     *  Exceeding it is Idle — the reaper classification. */
    int idleMs = -1;
};

/**
 * Read exactly one frame from @p fd. Header and payload are checked
 * as in decodeFrame(), by the same decodeFrameHeader() and
 * frameChecksumMatches(); mid-frame EOF is Malformed (a torn
 * frame), EOF before any header byte is Eof. With deadlines set, a
 * frame that fails to complete within `ioMs` of its first byte is
 * Stalled and a connection with no traffic for `idleMs` is Idle;
 * either way no bytes past the failure are consumed and the
 * caller's contract is to drop the connection.
 */
RecvResult recvFrame(int fd,
                     uint32_t maxPayloadBytes = kDefaultMaxPayloadBytes,
                     SocketTimeouts timeouts = {});

/**
 * Write one whole frame to @p fd, bounded by @p ioTimeoutMs (-1 =
 * no deadline). Error means the connection is torn (EPIPE or an
 * injected `service.write` fault); Stalled means the peer stopped
 * draining its socket until our send buffer filled past the
 * deadline. Either non-Ok status obliges the caller to drop the
 * connection.
 */
SendStatus sendFrame(int fd, MsgType type,
                     const std::vector<uint8_t> &payload,
                     int ioTimeoutMs = -1);

/** sendFrame()'s byte-level core, exposed for the slowloris tests:
 *  write exactly @p n bytes within @p ioTimeoutMs. */
SendStatus sendExact(int fd, const uint8_t *data, size_t n,
                     int ioTimeoutMs = -1);

/**
 * A bound, listening unix-domain stream socket. The constructor
 * unlinks any stale socket file at @p path first; close() (and the
 * destructor) unlink it again.
 */
class Listener
{
  public:
    /** Throws QuestError(Io) when bind/listen fails (e.g. the path
     *  exceeds sockaddr_un limits or the directory is missing). */
    explicit Listener(const std::string &path);
    ~Listener();

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /**
     * Wait up to @p timeoutMs for one connection. Returns the
     * connected fd, or -1 on timeout, a transient accept failure, or
     * an injected `service.accept` fault (the connection, if any,
     * is closed — the client sees a drop and may retry).
     */
    int acceptConnection(int timeoutMs);

    /** Close the listening socket and unlink the path (idempotent). */
    void close();

    const std::string &path() const { return sockPath; }

  private:
    int fd = -1;
    std::string sockPath;
};

/**
 * Connect to the listener at @p path, retrying a missing or
 * not-yet-listening socket until @p timeoutSeconds elapses (a daemon
 * that was just spawned needs a moment to bind). Throws
 * QuestError(Io) when the deadline passes without a connection.
 */
int connectTo(const std::string &path, double timeoutSeconds);

} // namespace quest::service

#endif // QUEST_SERVICE_SOCKET_HH
