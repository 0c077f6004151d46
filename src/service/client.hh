/**
 * @file
 * Synchronous QSV1 client: one connection, one request in flight —
 * now self-healing.
 *
 * Each call sends one request frame and blocks for the matching
 * reply. A server-side Error frame is rethrown locally as the
 * QuestError its taxonomy code names, so `quest_client` exits with
 * the same code a local `quest_compile` of the job would have —
 * docs/REGISTRY.md "Job states" pins that mapping.
 *
 * A client built by connect() additionally heals transport failures
 * (torn sends, EOF or read errors mid-round-trip): it closes the
 * dead socket, sleeps per a deterministic exponential-backoff
 * schedule, reconnects and resends. Only *idempotent* requests are
 * resent — status/result/cancel/stats always are, and a submit is
 * iff it carries a submission key (the server dedups the retry onto
 * the original job). Server Error frames are definitive answers and
 * never retried. The backoff jitter comes from a seeded `Rng`
 * stream, so the schedule is a pure function of the policy — the
 * determinism the analyzer and the backoff test pin (wall-clock
 * sleeps are allowlisted in `src/service/`, like every service-side
 * clock; they pace I/O and never touch a compile result).
 *
 * Retry/Retry-frame handling rides the same loop: result() polls
 * again whenever the server's bounded wait returns a Retry frame,
 * so `result --wait` composes bounded server slices into the
 * unbounded wait callers see.
 */

#ifndef QUEST_SERVICE_CLIENT_HH
#define QUEST_SERVICE_CLIENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "service/protocol.hh"

namespace quest::service {

/** Reconnect-and-resend policy for transport failures. */
struct RetryPolicy
{
    /** Reconnect attempts per request after the first try fails;
     *  0 disables healing (every transport failure throws). */
    int retries = 3;

    double baseDelaySeconds = 0.05; //!< first backoff step
    double maxDelaySeconds = 2.0;   //!< exponential growth cap

    /** Jitter stream seed. Same seed → same schedule, always. */
    uint64_t seed = 0x51535631;
};

/**
 * The deterministic backoff schedule @p policy produces: attempt k
 * sleeps min(max, base·2^k) scaled into [50%, 100%] by the k-th
 * draw of a PCG32 stream seeded by policy.seed. Exposed so tests
 * (and operators debugging retry storms) can reproduce the exact
 * schedule a client will follow.
 */
std::vector<double> backoffSchedule(const RetryPolicy &policy,
                                    size_t attempts);

/** See the file comment. Move-only; owns its socket fd. */
class QuestClient
{
  public:
    /** Connect to a daemon's Unix socket, retrying until
     *  @p timeoutSeconds. Throws QuestError(Io) on failure. The
     *  returned client heals per @p policy. */
    static QuestClient connect(const std::string &path,
                               double timeoutSeconds = 5.0,
                               RetryPolicy policy = {});

    /** Adopt an already-connected stream fd (socketpair tests).
     *  No reconnect path exists, so such a client never heals. */
    static QuestClient fromFd(int fd);

    ~QuestClient();

    QuestClient(QuestClient &&other) noexcept;
    QuestClient &operator=(QuestClient &&other) noexcept;
    QuestClient(const QuestClient &) = delete;
    QuestClient &operator=(const QuestClient &) = delete;

    /** Resent on transport failure only when request.submissionKey
     *  is non-empty (the server's dedup makes that retry safe). */
    SubmitReply submit(const SubmitRequest &request);

    JobStatus status(uint64_t jobId);

    /** Blocks until the job is terminal (or @p timeoutSeconds runs
     *  out, 0 = unbounded), transparently re-polling through the
     *  server's bounded-wait Retry frames. */
    ResultReply result(uint64_t jobId, bool wait = true,
                       double timeoutSeconds = 0);

    CancelReply cancelJob(uint64_t jobId);
    StatsReply stats();

    /** Ask the daemon to stop (drain: finish queued jobs first).
     *  Returns once the daemon acknowledged. */
    void shutdown(bool drain = true);

  private:
    explicit QuestClient(int fd) : sock(fd) {}

    /**
     * Send @p type + @p payload, receive one frame, demand
     * @p expect (or @p alsoExpect when it differs). Error frames
     * and non-healable transport failures throw QuestError; with
     * @p idempotent and a reconnectable client, transport failures
     * reconnect + resend per the backoff schedule first.
     */
    Frame roundTrip(MsgType type, const std::vector<uint8_t> &payload,
                    MsgType expect, MsgType alsoExpect,
                    bool idempotent);

    /** One send + receive on the current socket. Returns false on
     *  a transport failure (socket closed, detail filled). */
    bool attemptRoundTrip(MsgType type,
                          const std::vector<uint8_t> &payload,
                          Frame &out, std::string &detail);

    int sock = -1;
    std::string path;          //!< empty: fromFd, cannot reconnect
    double connectTimeout = 5.0;
    RetryPolicy policy;
};

} // namespace quest::service

#endif // QUEST_SERVICE_CLIENT_HH
