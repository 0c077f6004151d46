/**
 * @file
 * quest_served's engine: a multi-tenant compile server over QSV1.
 *
 * One QuestServer owns exactly one of each expensive resource and
 * shares it across every job (docs/ARCHITECTURE.md "Compile service
 * layer"):
 *
 *   - one cooperative ThreadPool — injected into each job's pipeline
 *     run (QuestConfig::pool), so N concurrent jobs share one
 *     machine-wide thread budget instead of oversubscribing N-fold;
 *   - one persistent SynthesisCache — injected as the shared hook
 *     (QuestConfig::sharedCache), so identical block unitaries from
 *     *different* tenants' jobs synthesize once (cross-job dedup);
 *   - one QRJ1 service journal (stateDir/service.qrj) recording every
 *     submit and every terminal transition — a restarted daemon
 *     re-enqueues submits without a terminal record. Their finished
 *     blocks come back from the shared cache, which a daemon with a
 *     state directory always has (cacheDir, else stateDir/cache): a
 *     block's synthesis depends only on its unitary and the config,
 *     so the cache already is the durable copy of every block an
 *     interrupted job finished, and the re-run is byte-identical.
 *
 * Jobs flow submit → bounded priority queue → one of E executor
 * threads → terminal state. Admission control is the queue bound:
 * a full queue rejects the submit with the `resource` exit code
 * (load shedding), and per-job deadlines ride the job through
 * resilience::Budget with DeadlinePolicy::Fail. Cancelling a queued
 * job removes it from the queue directly — it never touches the pool
 * or polls a Budget. Delivery is at-most-once: a job whose terminal
 * record was written before a crash is not re-run, and its result
 * payload is not retained across the restart.
 */

#ifndef QUEST_SERVICE_SERVER_HH
#define QUEST_SERVICE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "quest/config.hh"
#include "resilience/budget.hh"
#include "resilience/journal.hh"
#include "resilience/thread_pool.hh"
#include "service/queue.hh"
#include "service/socket.hh"

namespace quest {
namespace cache {
class SynthesisCache;
} // namespace cache
} // namespace quest

namespace quest::service {

/** One job's full server-side record. The identity/request fields
 *  are immutable after admission; the lifecycle fields are guarded
 *  by QuestServer's state mutex. */
struct Job
{
    explicit Job(const resilience::CancelToken *parent)
        : cancel(parent)
    {}

    uint64_t id = 0;
    uint64_t seq = 0; //!< submission order (queue tiebreak)
    SubmitRequest request;
    resilience::CancelToken cancel;
    resilience::Deadline deadline; //!< armed at admission
    std::chrono::steady_clock::time_point admitted;

    // Guarded by QuestServer::stateMu.
    JobState state = JobState::Queued;
    int exitCode = -1;
    std::string detail;
    uint64_t completionSeq = 0;
    ResultReply result;
};

/** Everything a QuestServer needs to run. */
struct ServerConfig
{
    /** Unix-domain socket path; empty for an attach()-only server
     *  (tests drive it over socketpair fds). */
    std::string socketPath;

    /** Durable state root (the service journal); empty disables
     *  crash-safe replay. */
    std::string stateDir;

    /** Shared persistent synthesis cache; empty disables it, unless
     *  stateDir is set: then the cache is stateDir/cache. */
    std::string cacheDir;
    uint64_t cacheMaxBytes = uint64_t{1} << 30;

    /** Shared pool budget in threads (0 = all cores). */
    unsigned threads = 0;

    /** Executor threads = jobs compiled concurrently. */
    unsigned executors = 2;

    /** Queue bound: submits past it are Rejected (load shedding). */
    size_t queueCapacity = 64;

    /** Per-frame payload cap forwarded to recvFrame(). */
    uint32_t maxFrameBytes = kDefaultMaxPayloadBytes;

    /**
     * Per-frame socket I/O deadline in seconds (0 disables). A peer
     * that starts a frame but fails to finish it — or stops reading
     * our reply until the send buffer fills — past this deadline is
     * a counted drop (`service.recv.stalls`/`service.send.stalls`),
     * not a hung connection thread.
     */
    double ioTimeoutSeconds = 30;

    /** Idle-connection reaper: a connection with no traffic for this
     *  many seconds is closed and counted (`service.conns.reaped`;
     *  0 disables). */
    double idleTimeoutSeconds = 300;

    /** Concurrent-connection cap: a connection past it is refused
     *  with a `resource` Error frame and counted
     *  (`service.conns.rejected`; 0 = unlimited). */
    size_t maxConnections = 64;

    /**
     * Bound on one `result --wait` round trip, in seconds (0 =
     * unbounded, the seed behavior). A job still running when the
     * bound fires earns a Retry reply instead of pinning the
     * connection thread; QuestClient polls again transparently.
     */
    double maxResultWaitSeconds = 5;

    /** Per-tenant fair-share knobs, enforced by the queue: queued
     *  and running caps (0 = unlimited) and round-robin weights. */
    size_t tenantMaxQueued = 0;
    size_t tenantMaxRunning = 0;
    std::map<std::string, uint32_t> tenantWeights;

    /**
     * Base QuestConfig jobs start from before their CompileOptions
     * apply. Defaults to baseCompileConfig() — quest_compile's
     * config, the byte-identity anchor. Benches override it to run
     * under smoke budgets.
     */
    std::optional<QuestConfig> base;
};

/** The compile service (see the file comment). */
class QuestServer
{
  public:
    /** Opens state (journal replay happens here) and starts the
     *  executor threads. Throws QuestError(Io) on unusable state
     *  or cache directories. */
    explicit QuestServer(ServerConfig config);

    /** stop(true) unless already stopped. */
    ~QuestServer();

    QuestServer(const QuestServer &) = delete;
    QuestServer &operator=(const QuestServer &) = delete;

    /** Bind the socket and start accepting connections. Throws
     *  QuestError(Io) when the socket cannot be bound. */
    void start();

    /** Serve one already-connected stream fd (ownership passes to
     *  the server). Tests drive the full protocol over socketpair. */
    void attach(int fd);

    /**
     * Flag the server as stopping without joining anything —
     * callable from a connection thread (the Shutdown handler).
     * With @p drain, queued jobs still run to completion; without
     * it, queued and running jobs are cancelled.
     */
    void requestStop(bool drain);

    /** Full shutdown: requestStop(@p drain), then join the accept,
     *  executor and connection threads. Idempotent. */
    void stop(bool drain = true);

    /** Block until requestStop() has been called (daemon main). */
    void waitStopRequested();

    /** The externally visible state of one job. */
    JobStatus statusOf(uint64_t jobId) const;

    /** Block until @p jobId is terminal (or @p timeoutSeconds runs
     *  out, 0 = unbounded). Returns its final status. */
    JobStatus waitTerminal(uint64_t jobId, double timeoutSeconds = 0);

    /** Jobs re-enqueued from the service journal at startup. */
    uint64_t replayedJobs() const { return replayedCount; }

    const std::string &socketPath() const { return cfg.socketPath; }

  private:
    /** What handleResult() decided: a final ResultReply, or a
     *  bounded-wait Retry telling the client to poll again. */
    struct ResultDispatch
    {
        bool retry = false;
        ResultReply result;
        RetryReply retryHint;
    };

    void replayJournal();
    void acceptLoop();
    void serveConnection(int fd);
    bool dispatch(int fd, const Frame &frame);

    /** Send one reply frame under the I/O deadline; a stalled or
     *  torn write is counted and returns false (drop the
     *  connection). */
    bool sendReply(int fd, MsgType type,
                   const std::vector<uint8_t> &payload);

    SubmitReply handleSubmit(const SubmitRequest &request);
    ResultDispatch handleResult(const ResultRequest &request);
    CancelReply handleCancel(uint64_t jobId);
    StatsReply handleStats() const;

    /** Deterministic backoff hint for a shed submit: grows linearly
     *  with the tenant's standing (queued + running) load. */
    double retryHintSeconds(const std::string &tenant) const;

    void executorLoop();
    void runJob(const std::shared_ptr<Job> &job);

    /** Transition @p job to terminal state @p state (idempotent;
     *  returns false when it already was terminal). Appends the
     *  terminal journal record, bumps the per-state counter and
     *  wakes result waiters. */
    bool finalize(const std::shared_ptr<Job> &job, JobState state,
                  int exitCode, const std::string &detail);

    void setQueueDepthGauge();

    ServerConfig cfg;
    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<cache::SynthesisCache> diskCache;
    std::unique_ptr<resilience::Journal> journal; //!< under stateMu

    JobQueue queue;
    resilience::CancelToken serverCancel;

    mutable std::mutex stateMu;
    std::condition_variable stateCv;
    std::map<uint64_t, std::shared_ptr<Job>> jobs;

    /** Idempotency index: "tenant\nsubmissionKey" → the job that
     *  key admitted (under stateMu). Entries live as long as the
     *  job record, so a retried submit of a finished job returns
     *  its terminal state instead of re-running it. */
    std::map<std::string, std::shared_ptr<Job>> submissionIndex;

    uint64_t nextId = 1;
    uint64_t nextSeq = 1;
    uint64_t completionCounter = 0;
    uint64_t replayedCount = 0;

    std::atomic<bool> stopping{false};
    bool drainOnStop = true;   //!< under stateMu
    bool stopped = false;      //!< under stateMu (join-once latch)

    std::unique_ptr<Listener> listener;
    std::thread acceptThread;
    std::vector<std::thread> executorThreads;

    /** One connection thread's slot. `done` flips when the thread
     *  is about to exit, letting attach() join-and-reap finished
     *  slots instead of accumulating dead thread handles forever. */
    struct ConnSlot
    {
        std::thread thread;
        std::atomic<bool> done{false};
    };

    std::mutex connMu;
    std::list<ConnSlot> connSlots; //!< under connMu
    std::vector<int> connFds;      //!< under connMu, live only

    /** Join and erase finished connection slots (connMu held). */
    void reapConnSlotsLocked();
};

} // namespace quest::service

#endif // QUEST_SERVICE_SERVER_HH
