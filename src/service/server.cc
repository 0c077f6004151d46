#include "service/server.hh"

#include <algorithm>
#include <filesystem>

#include <sys/socket.h>
#include <unistd.h>

#include "cache/synthesis_cache.hh"
#include "ir/qasm.hh"
#include "obs/metrics.hh"
#include "quest/pipeline.hh"
#include "resilience/error.hh"
#include "resilience/fault.hh"
#include "util/annotations.hh"
#include "util/logging.hh"
#include "util/names.hh"

namespace quest::service {

namespace {

/** Service journal record types (payloads are QSV1 message bytes). */
constexpr uint32_t kRecSubmit = 1;   //!< u64 jobId + SubmitRequest
constexpr uint32_t kRecTerminal = 2; //!< u64 jobId + u8 state + i32 code

obs::Counter &
terminalCounter(JobState state)
{
    auto &registry = obs::MetricsRegistry::global();
    static auto &done = registry.counter(names::kMetricServiceJobsDone);
    static auto &failed =
        registry.counter(names::kMetricServiceJobsFailed);
    static auto &cancelled =
        registry.counter(names::kMetricServiceJobsCancelled);
    static auto &rejected =
        registry.counter(names::kMetricServiceJobsRejected);
    static auto &expired =
        registry.counter(names::kMetricServiceJobsExpired);
    switch (state) {
      case JobState::Done:
        return done;
      case JobState::Failed:
        return failed;
      case JobState::Cancelled:
        return cancelled;
      case JobState::Expired:
        return expired;
      case JobState::Rejected:
      default:
        return rejected;
    }
}

/** The registry's counters and gauges as (name, value) rows. */
std::vector<std::pair<std::string, uint64_t>>
metricsSnapshot()
{
    std::vector<std::pair<std::string, uint64_t>> kv;
    for (const obs::MetricSnapshot &m :
         obs::MetricsRegistry::global().snapshot()) {
        switch (m.kind) {
          case obs::MetricKind::Counter:
            kv.emplace_back(m.name, m.count);
            break;
          case obs::MetricKind::Gauge:
            kv.emplace_back(m.name,
                            static_cast<uint64_t>(m.gaugeValue));
            break;
          case obs::MetricKind::Histogram:
            break; // counters/gauges only (see StatsReply)
        }
    }
    return kv;
}

uint64_t
millisSince(std::chrono::steady_clock::time_point start)
{
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
            .count());
}

/** Seconds → poll milliseconds (0 and below disable: -1). */
int
timeoutMs(double seconds)
{
    if (seconds <= 0)
        return -1;
    return std::max(1, static_cast<int>(seconds * 1000.0));
}

/** The idempotency-index key: tenant and key cannot collide across
 *  tenants ('\n' never appears in either role's typical values, and
 *  a collision would only merge two jobs of the same tenant). */
std::string
submissionIndexKey(const SubmitRequest &request)
{
    return request.tenant + '\n' + request.submissionKey;
}

QueueLimits
queueLimits(const ServerConfig &cfg)
{
    QueueLimits lim;
    lim.capacity = cfg.queueCapacity;
    lim.tenantMaxQueued = cfg.tenantMaxQueued;
    lim.tenantMaxRunning = cfg.tenantMaxRunning;
    lim.tenantWeights = cfg.tenantWeights;
    return lim;
}

} // namespace

QuestServer::QuestServer(ServerConfig config)
    : cfg(std::move(config)), queue(queueLimits(cfg))
{
    const unsigned budget = std::max(
        1u, cfg.threads == 0 ? ThreadPool::hardwareConcurrency()
                             : cfg.threads);
    pool = std::make_unique<ThreadPool>(budget - 1);

    // A replayed job finds its finished blocks in the cache, so a
    // daemon with a state directory always has one.
    if (cfg.cacheDir.empty() && !cfg.stateDir.empty())
        cfg.cacheDir = cfg.stateDir + "/cache";
    if (!cfg.cacheDir.empty()) {
        cache::CacheConfig cc;
        cc.dir = cfg.cacheDir;
        cc.maxBytes = cfg.cacheMaxBytes;
        diskCache = std::make_unique<cache::SynthesisCache>(cc);
    }

    if (!cfg.stateDir.empty()) {
        std::filesystem::create_directories(cfg.stateDir);
        journal = std::make_unique<resilience::Journal>(
            cfg.stateDir + "/service.qrj");
        replayJournal();
    }

    const unsigned executors = std::max(1u, cfg.executors);
    executorThreads.reserve(executors);
    for (unsigned e = 0; e < executors; ++e)
        executorThreads.emplace_back([this] { executorLoop(); });
}

QuestServer::~QuestServer()
{
    stop(true);
}

void
QuestServer::replayJournal()
{
    // Submits without a terminal record were in flight when the
    // previous daemon died: re-enqueue them. The blocks they finished
    // are in the shared cache, so the re-run loads them instead of
    // recomputing and its output is byte-identical.
    static auto &replayed = obs::MetricsRegistry::global().counter(
        names::kMetricServiceJobsReplayed);

    std::map<uint64_t, SubmitRequest> pending;
    std::map<uint64_t, bool> terminal;
    uint64_t maxId = 0;
    for (const resilience::JournalRecord &rec : journal->records()) {
        try {
            ByteReader r(rec.payload);
            const uint64_t id = r.u64();
            maxId = std::max(maxId, id);
            if (rec.type == kRecSubmit)
                pending[id] = SubmitRequest::decode(r);
            else if (rec.type == kRecTerminal)
                terminal[id] = true;
        } catch (const SerializeError &e) {
            warn("service journal: skipping undecodable record: ",
                 e.what());
        }
    }
    nextId = maxId + 1;

    for (auto &[id, request] : pending) {
        if (terminal.count(id))
            continue;
        auto job = std::make_shared<Job>(&serverCancel);
        job->id = id;
        job->seq = nextSeq++;
        job->request = std::move(request);
        job->admitted = std::chrono::steady_clock::now();
        if (job->request.deadlineSeconds > 0) {
            // The original admission time is gone with the old
            // process; the deadline re-arms from the restart.
            job->deadline = resilience::Deadline::after(
                job->request.deadlineSeconds);
        }
        jobs[job->id] = job;
        if (!job->request.submissionKey.empty())
            submissionIndex[submissionIndexKey(job->request)] = job;
        if (queue.tryPush(job) == PushOutcome::Ok) {
            replayed.increment();
            ++replayedCount;
            inform("service: replaying in-flight job ", job->id);
        } else {
            job->state = JobState::Rejected;
            job->exitCode = names::kExitResource;
            job->detail = "queue full during journal replay";
            job->completionSeq = ++completionCounter;
            ByteWriter w;
            w.u64(job->id);
            w.u8(static_cast<uint8_t>(JobState::Rejected));
            w.i32(job->exitCode);
            journal->append(kRecTerminal, w.take());
            terminalCounter(JobState::Rejected).increment();
        }
    }
    setQueueDepthGauge();
}

void
QuestServer::start()
{
    listener = std::make_unique<Listener>(cfg.socketPath);
    acceptThread = std::thread([this] { acceptLoop(); });
}

void
QuestServer::reapConnSlotsLocked()
{
    for (auto it = connSlots.begin(); it != connSlots.end();) {
        if (it->done.load()) {
            it->thread.join();
            it = connSlots.erase(it);
        } else {
            ++it;
        }
    }
}

void
QuestServer::attach(int fd)
{
    auto &registry = obs::MetricsRegistry::global();
    static auto &active =
        registry.gauge(names::kMetricServiceConnsActive);
    static auto &rejectedConns =
        registry.counter(names::kMetricServiceConnsRejected);

    std::lock_guard<std::mutex> lock(connMu);
    reapConnSlotsLocked();
    if (cfg.maxConnections > 0 &&
        connFds.size() >= cfg.maxConnections) {
        // Over the cap: tell the peer why, then hang up. The Error
        // frame carries the resource code, so quest_client exits
        // like any other shed and its retry policy backs off.
        rejectedConns.increment();
        ErrorReply err;
        err.exitCode = names::kExitResource;
        err.message = "connection limit reached (max " +
                      std::to_string(cfg.maxConnections) + ")";
        sendFrame(fd, MsgType::Error, encodePayload(err),
                  timeoutMs(cfg.ioTimeoutSeconds));
        ::close(fd);
        return;
    }
    connFds.push_back(fd);
    active.set(static_cast<int64_t>(connFds.size()));
    ConnSlot &slot = connSlots.emplace_back();
    slot.thread = std::thread([this, fd, &slot] {
        serveConnection(fd);
        slot.done.store(true);
    });
}

void
QuestServer::requestStop(bool drain)
{
    std::lock_guard<std::mutex> lock(stateMu);
    if (!stopping.exchange(true))
        drainOnStop = drain;
    stateCv.notify_all();
}

void
QuestServer::stop(bool drain)
{
    requestStop(drain);
    {
        std::lock_guard<std::mutex> lock(stateMu);
        if (stopped)
            return;
        stopped = true;
        drain = drainOnStop;
    }

    if (acceptThread.joinable())
        acceptThread.join();
    if (listener)
        listener->close();

    if (!drain) {
        // Cancel queued *and* running jobs: every job token is a
        // child of the server token, executors see the cancellation
        // at their next safe point and finalize as Cancelled.
        serverCancel.cancel();
    }
    queue.close();
    for (std::thread &t : executorThreads)
        t.join();
    executorThreads.clear();

    std::list<ConnSlot> slots;
    {
        std::lock_guard<std::mutex> lock(connMu);
        slots.splice(slots.begin(), connSlots);
        for (int fd : connFds)
            ::shutdown(fd, SHUT_RDWR);
    }
    for (ConnSlot &slot : slots) {
        if (slot.thread.joinable())
            slot.thread.join();
    }
}

void
QuestServer::waitStopRequested()
{
    std::unique_lock<std::mutex> lock(stateMu);
    stateCv.wait(lock, [&] { return stopping.load(); });
}

void
QuestServer::acceptLoop()
{
    while (!stopping.load()) {
        const int fd = listener->acceptConnection(50);
        if (fd < 0)
            continue; // timeout or (injected) accept failure
        if (stopping.load()) {
            ::close(fd);
            break;
        }
        attach(fd);
    }
}

void
QuestServer::serveConnection(int fd)
{
    auto &registry = obs::MetricsRegistry::global();
    static auto &connections =
        registry.counter(names::kMetricServiceConnections);
    static auto &rejectedFrames =
        registry.counter(names::kMetricServiceFramesRejected);
    static auto &recvStalls =
        registry.counter(names::kMetricServiceRecvStalls);
    static auto &reaped =
        registry.counter(names::kMetricServiceConnsReaped);
    static auto &active =
        registry.gauge(names::kMetricServiceConnsActive);
    connections.increment();

    SocketTimeouts timeouts;
    timeouts.ioMs = timeoutMs(cfg.ioTimeoutSeconds);
    timeouts.idleMs = timeoutMs(cfg.idleTimeoutSeconds);

    bool keep = true;
    while (keep) {
        RecvResult r = recvFrame(fd, cfg.maxFrameBytes, timeouts);
        if (r.status == RecvStatus::Eof ||
            r.status == RecvStatus::IoError) {
            break;
        }
        if (r.status == RecvStatus::Stalled) {
            // Slowloris: the peer started a frame and went quiet
            // past the I/O deadline. Count the drop; the frame is
            // unrecoverable, so there is nothing to reply to.
            recvStalls.increment();
            break;
        }
        if (r.status == RecvStatus::Idle) {
            // The reaper: nothing arrived within the idle deadline.
            reaped.increment();
            break;
        }
        if (r.status != RecvStatus::Ok) {
            // Malformed, oversized or version-mismatched framing:
            // reply with a taxonomy-coded error, then drop the
            // connection (resynchronizing a byte stream after a bad
            // length prefix is guesswork).
            rejectedFrames.increment();
            ErrorReply err;
            err.exitCode = names::kExitInvalidInput;
            err.message = r.error;
            sendReply(fd, MsgType::Error, encodePayload(err));
            break;
        }
        if (QUEST_FAULT_POINT(names::kFaultServiceConnDrop)) {
            // Simulated torn connection between a request and its
            // reply — the window where a client cannot know whether
            // the server acted, which the submission-key dedup
            // makes safe to blindly retry.
            break;
        }
        keep = dispatch(fd, r.frame);
    }

    std::lock_guard<std::mutex> lock(connMu);
    ::close(fd);
    connFds.erase(std::remove(connFds.begin(), connFds.end(), fd),
                  connFds.end());
    active.set(static_cast<int64_t>(connFds.size()));
}

bool
QuestServer::sendReply(int fd, MsgType type,
                       const std::vector<uint8_t> &payload)
{
    static auto &sendStalls = obs::MetricsRegistry::global().counter(
        names::kMetricServiceSendStalls);
    switch (sendFrame(fd, type, payload,
                      timeoutMs(cfg.ioTimeoutSeconds))) {
      case SendStatus::Ok:
        return true;
      case SendStatus::Stalled:
        // The peer stopped draining its socket until our send
        // buffer filled past the deadline: a counted drop,
        // symmetric with the recv-side slowloris.
        sendStalls.increment();
        return false;
      case SendStatus::Error:
        return false;
    }
    return false;
}

bool
QuestServer::dispatch(int fd, const Frame &frame)
{
    static auto &rejectedFrames =
        obs::MetricsRegistry::global().counter(
            names::kMetricServiceFramesRejected);
    try {
        switch (frame.type) {
          case MsgType::Submit: {
            const SubmitReply reply = handleSubmit(
                decodePayload<SubmitRequest>(frame.payload));
            return sendReply(fd, MsgType::SubmitReply,
                             encodePayload(reply));
          }
          case MsgType::Status: {
            const StatusRequest req =
                decodePayload<StatusRequest>(frame.payload);
            return sendReply(fd, MsgType::StatusReply,
                             encodePayload(statusOf(req.jobId)));
          }
          case MsgType::Result: {
            const ResultDispatch d = handleResult(
                decodePayload<ResultRequest>(frame.payload));
            if (d.retry) {
                return sendReply(fd, MsgType::Retry,
                                 encodePayload(d.retryHint));
            }
            return sendReply(fd, MsgType::ResultReply,
                             encodePayload(d.result));
          }
          case MsgType::Cancel: {
            const CancelRequest req =
                decodePayload<CancelRequest>(frame.payload);
            return sendReply(fd, MsgType::CancelReply,
                             encodePayload(handleCancel(req.jobId)));
          }
          case MsgType::Stats:
            return sendReply(fd, MsgType::StatsReply,
                             encodePayload(handleStats()));
          case MsgType::Shutdown: {
            const ShutdownRequest req =
                decodePayload<ShutdownRequest>(frame.payload);
            sendReply(fd, MsgType::ShutdownReply, {});
            requestStop(req.drain);
            return false;
          }
          default: {
            rejectedFrames.increment();
            ErrorReply err;
            err.exitCode = names::kExitInvalidInput;
            err.message = std::string("unexpected frame type '") +
                          msgTypeName(frame.type) + "'";
            sendReply(fd, MsgType::Error, encodePayload(err));
            return false;
          }
        }
    } catch (const SerializeError &e) {
        rejectedFrames.increment();
        ErrorReply err;
        err.exitCode = names::kExitInvalidInput;
        err.message = std::string("bad ") + msgTypeName(frame.type) +
                      " payload: " + e.what();
        sendReply(fd, MsgType::Error, encodePayload(err));
        return false;
    }
}

double
QuestServer::retryHintSeconds(const std::string &tenant) const
{
    // Deterministic: a pure function of the tenant's standing load
    // at the moment of rejection, so two identical overloads ask
    // their clients to back off identically.
    const size_t standing =
        queue.queuedOf(tenant) + queue.runningOf(tenant);
    return 0.05 * static_cast<double>(standing + 1);
}

SubmitReply
QuestServer::handleSubmit(const SubmitRequest &request)
{
    auto &registry = obs::MetricsRegistry::global();
    static auto &submitted =
        registry.counter(names::kMetricServiceJobsSubmitted);
    static auto &dedupHits =
        registry.counter(names::kMetricServiceSubmitDedupHits);
    static auto &tenantSheds =
        registry.counter(names::kMetricServiceTenantSheds);

    SubmitReply reply;
    if (stopping.load()) {
        terminalCounter(JobState::Rejected).increment();
        reply.detail = "server is shutting down";
        return reply;
    }

    if (!request.submissionKey.empty()) {
        // Idempotent resubmission: the same (tenant, key) pair maps
        // to the job it first admitted — a client that lost its
        // connection after our ack can retry blindly without
        // double-running the job.
        std::lock_guard<std::mutex> lock(stateMu);
        auto it = submissionIndex.find(submissionIndexKey(request));
        if (it != submissionIndex.end()) {
            const Job &existing = *it->second;
            dedupHits.increment();
            reply.jobId = existing.id;
            reply.accepted = true;
            reply.state = existing.state;
            reply.detail = existing.detail;
            reply.deduplicated = true;
            return reply;
        }
    }

    auto job = std::make_shared<Job>(&serverCancel);
    job->request = request;
    {
        std::lock_guard<std::mutex> lock(stateMu);
        job->id = nextId++;
        job->seq = nextSeq++;
        job->admitted = std::chrono::steady_clock::now();
        if (request.deadlineSeconds > 0) {
            job->deadline =
                resilience::Deadline::after(request.deadlineSeconds);
        }
        jobs[job->id] = job;
        if (journal) {
            ByteWriter w;
            w.u64(job->id);
            request.encode(w);
            journal->append(kRecSubmit, w.take());
        }
        const PushOutcome pushed = queue.tryPush(job);
        if (pushed != PushOutcome::Ok) {
            // Load shedding: the bounded queue is the admission
            // valve, and the refusal maps to the `resource` code.
            // A TenantQuota refusal sheds only the noisy tenant —
            // everyone else's share of the queue stays intact.
            job->state = JobState::Rejected;
            job->exitCode = names::kExitResource;
            if (pushed == PushOutcome::TenantQuota) {
                tenantSheds.increment();
                job->detail =
                    "tenant queued quota exhausted (cap " +
                    std::to_string(cfg.tenantMaxQueued) + ")";
            } else {
                job->detail = "queue full (capacity " +
                              std::to_string(cfg.queueCapacity) +
                              ")";
            }
            job->completionSeq = ++completionCounter;
            if (journal) {
                ByteWriter w;
                w.u64(job->id);
                w.u8(static_cast<uint8_t>(JobState::Rejected));
                w.i32(job->exitCode);
                journal->append(kRecTerminal, w.take());
            }
            terminalCounter(JobState::Rejected).increment();
            stateCv.notify_all();
            reply.jobId = job->id;
            reply.state = JobState::Rejected;
            reply.detail = job->detail;
            reply.retryAfterSeconds =
                retryHintSeconds(request.tenant);
            return reply;
        }
        if (!request.submissionKey.empty())
            submissionIndex[submissionIndexKey(request)] = job;
    }
    submitted.increment();
    setQueueDepthGauge();
    reply.jobId = job->id;
    reply.accepted = true;
    reply.state = JobState::Queued;
    return reply;
}

JobStatus
QuestServer::statusOf(uint64_t jobId) const
{
    std::lock_guard<std::mutex> lock(stateMu);
    JobStatus status;
    status.jobId = jobId;
    auto it = jobs.find(jobId);
    if (it == jobs.end())
        return status;
    const Job &job = *it->second;
    status.known = true;
    status.state = job.state;
    status.exitCode = exitCodeForJobState(job.state, job.exitCode);
    status.completionSeq = job.completionSeq;
    status.detail = job.detail;
    if (job.state == JobState::Queued) {
        const int pos = queue.positionOf(jobId);
        status.queuePosition =
            pos < 0 ? 0 : static_cast<uint32_t>(pos);
    }
    return status;
}

JobStatus
QuestServer::waitTerminal(uint64_t jobId, double timeoutSeconds)
{
    {
        std::unique_lock<std::mutex> lock(stateMu);
        auto terminal = [&] {
            auto it = jobs.find(jobId);
            return it == jobs.end() ||
                   isTerminalJobState(it->second->state);
        };
        if (timeoutSeconds > 0) {
            stateCv.wait_for(
                lock, std::chrono::duration<double>(timeoutSeconds),
                terminal);
        } else {
            stateCv.wait(lock, terminal);
        }
    }
    return statusOf(jobId);
}

QuestServer::ResultDispatch
QuestServer::handleResult(const ResultRequest &request)
{
    static auto &resultRetries =
        obs::MetricsRegistry::global().counter(
            names::kMetricServiceResultRetries);

    // A waiter is served in bounded slices: wait at most
    // maxResultWaitSeconds (and never past the client's own
    // timeout), then either return the terminal result or tell the
    // client to poll again. No connection thread pins itself to a
    // long job, so slow compiles cannot exhaust the thread budget
    // the I/O deadlines protect.
    const bool bounded = cfg.maxResultWaitSeconds > 0;
    if (request.wait) {
        double budget = request.timeoutSeconds;
        if (bounded && (budget <= 0 ||
                        budget > cfg.maxResultWaitSeconds))
            budget = cfg.maxResultWaitSeconds;
        waitTerminal(request.jobId, budget);
    }

    std::lock_guard<std::mutex> lock(stateMu);
    ResultDispatch d;
    auto it = jobs.find(request.jobId);
    if (it == jobs.end()) {
        d.result.status.jobId = request.jobId;
        return d;
    }
    const Job &job = *it->second;
    JobStatus status;
    status.jobId = job.id;
    status.known = true;
    status.state = job.state;
    status.exitCode = exitCodeForJobState(job.state, job.exitCode);
    status.completionSeq = job.completionSeq;
    status.detail = job.detail;

    if (!isTerminalJobState(job.state) && request.wait && bounded &&
        (request.timeoutSeconds <= 0 ||
         request.timeoutSeconds > cfg.maxResultWaitSeconds)) {
        // Our bounded slice ran out before the job did, and the
        // client has wait budget left: hand the wait back to it.
        resultRetries.increment();
        d.retry = true;
        d.retryHint.status = status;
        d.retryHint.retryAfterSeconds = 0; // re-poll now; we pace
        return d;
    }

    if (isTerminalJobState(job.state))
        d.result = job.result; // summary + samples + metrics
    d.result.status = status;
    return d;
}

CancelReply
QuestServer::handleCancel(uint64_t jobId)
{
    CancelReply reply;
    reply.jobId = jobId;

    std::shared_ptr<Job> job;
    JobState observed = JobState::Queued;
    {
        std::lock_guard<std::mutex> lock(stateMu);
        auto it = jobs.find(jobId);
        if (it == jobs.end())
            return reply; // Unknown
        job = it->second;
        observed = job->state;
    }

    if (isTerminalJobState(observed)) {
        reply.outcome = CancelOutcome::AlreadyDone;
        return reply;
    }
    if (observed == JobState::Queued && queue.remove(jobId)) {
        // Dequeued before it ever ran: the job never reaches an
        // executor, the pool, or a Budget poll.
        job->cancel.cancel();
        finalize(job, JobState::Cancelled, names::kExitCancelled,
                 "cancelled while queued");
        setQueueDepthGauge();
        reply.outcome = CancelOutcome::Dequeued;
        return reply;
    }
    // Running (or popped concurrently with this cancel): fire the
    // token; the pipeline stops at its next safe point and the
    // executor finalizes the job as Cancelled.
    job->cancel.cancel();
    reply.outcome = CancelOutcome::Signalled;
    return reply;
}

StatsReply
QuestServer::handleStats() const
{
    StatsReply reply;
    reply.stats = metricsSnapshot();
    return reply;
}

void
QuestServer::executorLoop()
{
    while (std::shared_ptr<Job> job = queue.pop()) {
        runJob(job);
        // Release the running slot pop() charged to the tenant —
        // runJob() finalizes on every path, so this always pairs.
        queue.jobFinished(job->request.tenant);
    }
}

void
QuestServer::runJob(const std::shared_ptr<Job> &job)
{
    auto &registry = obs::MetricsRegistry::global();
    static auto &queueMs =
        registry.histogram(names::kMetricServiceJobQueueMs);
    static auto &runMs =
        registry.histogram(names::kMetricServiceJobRunMs);
    queueMs.record(millisSince(job->admitted));
    setQueueDepthGauge();

    if (job->cancel.cancelled()) {
        finalize(job, JobState::Cancelled, names::kExitCancelled,
                 "cancelled while queued");
        return;
    }
    if (job->deadline.expired()) {
        finalize(job, JobState::Expired, names::kExitTimeout,
                 "deadline expired while queued");
        return;
    }
    {
        std::lock_guard<std::mutex> lock(stateMu);
        if (isTerminalJobState(job->state))
            return;
        job->state = JobState::Running;
    }

    const auto started = std::chrono::steady_clock::now();

    QuestConfig jc =
        cfg.base ? applyCompileOptions(*cfg.base, job->request.options)
                 : compileConfig(job->request.options);
    jc.pool = pool.get();
    if (diskCache)
        jc.sharedCache = diskCache.get();
    jc.cancel = &job->cancel;
    // A service job's budget is a contract, not a hint: run under
    // Fail so a fired deadline surfaces as Expired and a fired
    // cancel token as Cancelled, instead of a silently degraded
    // ensemble a tenant cannot tell from a full compile.
    jc.deadlinePolicy = DeadlinePolicy::Fail;
    if (!job->deadline.isNever()) {
        jc.runTimeoutSeconds =
            std::max(job->deadline.remainingSeconds(), 1e-9);
    }

    static auto &executorCrashes =
        obs::MetricsRegistry::global().counter(
            names::kMetricServiceExecutorCrashes);

    try {
        if (QUEST_FAULT_POINT(names::kFaultServiceExecutorCrash)) {
            // Simulated executor bug: a foreign (non-QuestError,
            // non-std) exception escaping the pipeline. The
            // catch-all below must contain it to this one job.
            struct InjectedExecutorCrash
            {};
            throw InjectedExecutorCrash{};
        }
        Circuit circuit;
        try {
            circuit = parseQasm(job->request.qasm);
        } catch (const QasmError &e) {
            throw resilience::QuestError(
                resilience::ErrorCategory::InvalidInput,
                std::string("QASM parse error: ") + e.what());
        }
        QuestPipeline pipeline(jc);
        const QuestResult result = pipeline.run(circuit);

        // The executor is the only writer of job->result until
        // finalize() publishes the terminal state under stateMu.
        job->result.qubits =
            static_cast<uint32_t>(result.original.numQubits());
        job->result.originalCnots = result.originalCnots;
        job->result.blocks = result.blocks.size();
        job->result.okBlocks = result.okBlocks();
        job->result.threshold = result.threshold;
        job->result.samples.clear();
        for (const ApproxSample &s : result.samples) {
            SampleResult sample;
            sample.qasm = toQasm(s.circuit);
            sample.cnotCount = s.cnotCount;
            sample.distanceBound = s.distanceBound;
            job->result.samples.push_back(std::move(sample));
        }
        job->result.metrics = metricsSnapshot();
        runMs.record(millisSince(started));
        finalize(job, JobState::Done, 0, "");
    } catch (const resilience::QuestError &e) {
        runMs.record(millisSince(started));
        using resilience::ErrorCategory;
        switch (e.category()) {
          case ErrorCategory::Timeout:
            finalize(job, JobState::Expired, names::kExitTimeout,
                     e.describe());
            break;
          case ErrorCategory::Cancelled:
            finalize(job, JobState::Cancelled, names::kExitCancelled,
                     e.describe());
            break;
          default:
            finalize(job, JobState::Failed, e.exitCode(),
                     e.describe());
            break;
        }
    } catch (const std::exception &e) {
        runMs.record(millisSince(started));
        executorCrashes.increment();
        finalize(job, JobState::Failed, names::kExitInternal,
                 e.what());
    } catch (...) {
        // The supervision backstop: *any* exception an executor
        // lets escape — even a foreign type carrying no what() —
        // finalizes its one job as Internal and leaves the daemon
        // serving. An executor thread must never die.
        QUEST_INTENTIONAL_SWALLOW("the exception is converted into "
                                  "the job's terminal Failed record; "
                                  "rethrowing would kill the executor "
                                  "thread");
        runMs.record(millisSince(started));
        executorCrashes.increment();
        finalize(job, JobState::Failed, names::kExitInternal,
                 "executor crashed: non-standard exception escaped "
                 "the pipeline");
    }
}

bool
QuestServer::finalize(const std::shared_ptr<Job> &job, JobState state,
                      int exitCode, const std::string &detail)
{
    std::lock_guard<std::mutex> lock(stateMu);
    if (isTerminalJobState(job->state))
        return false;
    job->state = state;
    job->exitCode = exitCode;
    job->detail = detail;
    job->completionSeq = ++completionCounter;
    if (journal) {
        ByteWriter w;
        w.u64(job->id);
        w.u8(static_cast<uint8_t>(state));
        w.i32(exitCode);
        journal->append(kRecTerminal, w.take());
    }
    terminalCounter(state).increment();
    stateCv.notify_all();
    return true;
}

void
QuestServer::setQueueDepthGauge()
{
    static auto &depth = obs::MetricsRegistry::global().gauge(
        names::kMetricServiceQueueDepth);
    depth.set(static_cast<int64_t>(queue.depth()));
}

} // namespace quest::service
