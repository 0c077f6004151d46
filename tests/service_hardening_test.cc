/**
 * @file
 * Production-hardening tests for the compile service: slowloris and
 * stalled-reader peers become counted drops, idle connections are
 * reaped, the concurrent-connection cap sheds excess peers, tenant
 * quotas and weighted round-robin keep one noisy tenant from starving
 * the rest, bounded `result --wait` degrades to Retry frames, the
 * self-healing client reconnects through injected socket faults with
 * a deterministic backoff schedule, submission-key dedup makes a
 * retried submit run exactly once, an executor crash finalizes the
 * job as Internal without taking the daemon down, and an invalid
 * compile option or a malformed number in the QASM fails its job as
 * InvalidInput instead.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "algos/algorithms.hh"
#include "ir/qasm.hh"
#include "obs/metrics.hh"
#include "resilience/error.hh"
#include "resilience/fault.hh"
#include "service/client.hh"
#include "service/queue.hh"
#include "service/server.hh"
#include "service/socket.hh"
#include "util/annotations.hh"
#include "util/names.hh"

namespace quest::service {
namespace {

namespace fs = std::filesystem;
using resilience::QuestError;
using resilience::ScopedFaultPlan;

fs::path
makeTempDir()
{
    std::string tmpl =
        (fs::temp_directory_path() / "quest-hardening-test-XXXXXX")
            .string();
    char *dir = mkdtemp(tmpl.data());
    EXPECT_NE(dir, nullptr);
    return fs::path(dir);
}

/** RAII removal of a test socket/state directory. */
struct TempDir
{
    fs::path path = makeTempDir();
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

uint64_t
counterValue(const char *name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

int64_t
gaugeValue(const char *name)
{
    return obs::MetricsRegistry::global().gauge(name).value();
}

/** Poll @p done for up to @p seconds (connection threads settle
 *  asynchronously). Returns whether it came true in time. */
bool
eventually(const std::function<bool()> &done, double seconds = 5.0)
{
    QUEST_RESULT_NEUTRAL("test-side polling deadline: when the "
                         "condition is observed never changes what "
                         "is asserted");
    const auto giveUp =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    while (!done()) {
        if (std::chrono::steady_clock::now() >= giveUp)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return true;
}

/** A connected (server fd, client fd) stream pair. */
std::pair<int, int>
streamPair()
{
    int sv[2] = {-1, -1};
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    return {sv[0], sv[1]};
}

QuestClient
connectLocal(QuestServer &server)
{
    auto [serverFd, clientFd] = streamPair();
    server.attach(serverFd);
    return QuestClient::fromFd(clientFd);
}

std::string
tinyQasm(double angle)
{
    Circuit c(3);
    c.append(Gate::cx(0, 1));
    c.append(Gate::u3(1, angle, 0.2, 0.1));
    c.append(Gate::cx(1, 2));
    c.append(Gate::u3(0, 0.5, angle, 0.3));
    c.append(Gate::cx(0, 2));
    return toQasm(c);
}

SubmitRequest
tinyRequest(double angle = 0.3)
{
    SubmitRequest request;
    request.options.maxLayers = 4;
    request.options.maxSamples = 4;
    request.qasm = tinyQasm(angle);
    return request;
}

SubmitRequest
heavyRequest()
{
    SubmitRequest request;
    request.qasm = toQasm(algos::qft(5));
    request.options.maxLayers = 10;
    return request;
}

// ---- socket deadlines --------------------------------------------

TEST(ServiceHardening, SlowlorisPartialHeaderIsCountedStall)
{
    ServerConfig config;
    config.ioTimeoutSeconds = 0.1;
    QuestServer server(config);

    const uint64_t before =
        counterValue(names::kMetricServiceRecvStalls);
    auto [serverFd, clientFd] = streamPair();
    server.attach(serverFd);

    // Dribble 4 of the 12 header bytes, then stall. The frame has
    // started, so the per-frame deadline (not the idle reaper) must
    // classify the peer and drop it.
    ASSERT_EQ(send(clientFd, "QSV1", 4, 0), 4);
    EXPECT_TRUE(eventually([&] {
        return counterValue(names::kMetricServiceRecvStalls) ==
               before + 1;
    }));
    // The drop is visible to the peer as a close, not a reply.
    EXPECT_EQ(recvFrame(clientFd).status, RecvStatus::Eof);
    close(clientFd);
    server.stop();
}

TEST(ServiceHardening, SlowlorisPartialPayloadIsCountedStall)
{
    ServerConfig config;
    config.ioTimeoutSeconds = 0.1;
    QuestServer server(config);

    const uint64_t before =
        counterValue(names::kMetricServiceRecvStalls);
    auto [serverFd, clientFd] = streamPair();
    server.attach(serverFd);

    // A complete, valid header -- then only 3 of the declared
    // payload + trailer bytes.
    StatusRequest request;
    request.jobId = 7;
    const std::vector<uint8_t> frame =
        encodeFrame(MsgType::Status, encodePayload(request));
    ASSERT_EQ(send(clientFd, frame.data(), kFrameHeaderBytes + 3, 0),
              static_cast<ssize_t>(kFrameHeaderBytes + 3));
    EXPECT_TRUE(eventually([&] {
        return counterValue(names::kMetricServiceRecvStalls) ==
               before + 1;
    }));
    EXPECT_EQ(recvFrame(clientFd).status, RecvStatus::Eof);
    close(clientFd);
    server.stop();
}

TEST(ServiceHardening, StalledReaderStallsTheSendNotTheThread)
{
    // The symmetric direction: a peer that stops reading until our
    // send buffer fills must bound the write, not hang it. A frame
    // far larger than any unix-socket buffer cannot complete while
    // nobody drains the other end.
    QUEST_RESULT_NEUTRAL("timing the bounded send only sanity-checks "
                         "the deadline; no compile result depends on "
                         "the clock");
    auto [a, b] = streamPair();
    const std::vector<uint8_t> huge(8u << 20, 0xab);
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(sendFrame(a, MsgType::Stats, huge, /*ioTimeoutMs=*/100),
              SendStatus::Stalled);
    const double took =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    EXPECT_GE(took, 0.09);
    EXPECT_LT(took, 5.0);
    close(a);
    close(b);
}

TEST(ServiceHardening, IdleConnectionIsReaped)
{
    ServerConfig config;
    config.idleTimeoutSeconds = 0.1;
    QuestServer server(config);

    const uint64_t before =
        counterValue(names::kMetricServiceConnsReaped);
    auto [serverFd, clientFd] = streamPair();
    server.attach(serverFd);

    // Send nothing at all: the reaper (not the mid-frame deadline)
    // must close the connection and count it.
    EXPECT_TRUE(eventually([&] {
        return counterValue(names::kMetricServiceConnsReaped) ==
               before + 1;
    }));
    EXPECT_EQ(recvFrame(clientFd).status, RecvStatus::Eof);
    EXPECT_TRUE(eventually([&] {
        return gaugeValue(names::kMetricServiceConnsActive) == 0;
    }));
    close(clientFd);
    server.stop();
}

TEST(ServiceHardening, ConnectionCapRefusesExcessPeers)
{
    ServerConfig config;
    config.maxConnections = 1;
    QuestServer server(config);

    const uint64_t before =
        counterValue(names::kMetricServiceConnsRejected);

    QuestClient first = connectLocal(server);
    EXPECT_FALSE(first.stats().stats.empty()); // slot is live

    // The second peer gets a resource Error frame, then a close --
    // refusal is explicit, not a silent drop.
    auto [serverFd, clientFd] = streamPair();
    server.attach(serverFd);
    const RecvResult r = recvFrame(clientFd);
    ASSERT_EQ(r.status, RecvStatus::Ok);
    ASSERT_EQ(r.frame.type, MsgType::Error);
    const ErrorReply err = decodePayload<ErrorReply>(r.frame.payload);
    EXPECT_EQ(err.exitCode, names::kExitResource);
    EXPECT_NE(err.message.find("connection limit"),
              std::string::npos);
    EXPECT_EQ(recvFrame(clientFd).status, RecvStatus::Eof);
    close(clientFd);
    EXPECT_EQ(counterValue(names::kMetricServiceConnsRejected),
              before + 1);

    // The live connection still works, and closing it frees the slot
    // for a new peer -- the cap tracks live connections, not history.
    EXPECT_FALSE(first.stats().stats.empty());
    first = QuestClient::fromFd(-1);
    EXPECT_TRUE(eventually([&] {
        return gaugeValue(names::kMetricServiceConnsActive) == 0;
    }));
    QuestClient second = connectLocal(server);
    EXPECT_FALSE(second.stats().stats.empty());
    server.stop();
}

// ---- tenant fairness ---------------------------------------------

TEST(ServiceHardening, WeightedRoundRobinInterleavesTenants)
{
    QueueLimits limits;
    limits.capacity = 16;
    limits.tenantWeights["a"] = 2;
    JobQueue queue(limits);
    resilience::CancelToken root;

    auto push = [&](uint64_t seq, const std::string &tenant) {
        auto job = std::make_shared<Job>(&root);
        job->id = seq;
        job->seq = seq;
        job->request.tenant = tenant;
        ASSERT_EQ(queue.tryPush(job), PushOutcome::Ok);
    };
    // Tenant a floods first; b submits after. Weight a=2, b=1.
    push(1, "a");
    push(2, "a");
    push(3, "a");
    push(4, "b");
    push(5, "b");
    push(6, "b");

    std::vector<uint64_t> order;
    for (int i = 0; i < 6; ++i) {
        auto job = queue.pop();
        ASSERT_NE(job, nullptr);
        order.push_back(job->id);
        queue.jobFinished(job->request.tenant);
    }
    // a takes two turns per rotation, b one -- b is never starved
    // behind a's whole backlog, and the order is a pure function of
    // the submissions.
    EXPECT_EQ(order, (std::vector<uint64_t>{1, 2, 4, 3, 5, 6}));
}

TEST(ServiceHardening, RunningCapSkipsSaturatedTenantLane)
{
    QueueLimits limits;
    limits.capacity = 16;
    limits.tenantMaxRunning = 1;
    JobQueue queue(limits);
    resilience::CancelToken root;

    auto push = [&](uint64_t seq, const std::string &tenant) {
        auto job = std::make_shared<Job>(&root);
        job->id = seq;
        job->seq = seq;
        job->request.tenant = tenant;
        ASSERT_EQ(queue.tryPush(job), PushOutcome::Ok);
    };
    push(1, "a");
    push(2, "a");
    push(3, "b");

    auto first = queue.pop();
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->id, 1u);
    // With a already holding its running slot, its lane is skipped:
    // the next pop serves b even though a2 queued earlier.
    auto second = queue.pop();
    ASSERT_NE(second, nullptr);
    EXPECT_EQ(second->id, 3u);
    // Releasing a's slot makes a2 eligible again.
    queue.jobFinished("a");
    auto third = queue.pop();
    ASSERT_NE(third, nullptr);
    EXPECT_EQ(third->id, 2u);
    queue.jobFinished("b");
    queue.jobFinished("a");
}

TEST(ServiceHardening, TenantQuotaShedsWithRetryHint)
{
    ServerConfig config;
    config.executors = 1;
    config.tenantMaxQueued = 1;
    QuestServer server(config);
    QuestClient client = connectLocal(server);

    const uint64_t shedBefore =
        counterValue(names::kMetricServiceTenantSheds);

    SubmitRequest heavy = heavyRequest();
    heavy.tenant = "noisy";
    const SubmitReply blocker = client.submit(heavy);
    ASSERT_TRUE(blocker.accepted);
    // The quota counts queued jobs: let the blocker start first.
    ASSERT_TRUE(eventually([&] {
        return client.status(blocker.jobId).state != JobState::Queued;
    }, 10.0));

    SubmitRequest tiny = tinyRequest();
    tiny.tenant = "noisy";
    const SubmitReply queued = client.submit(tiny);
    ASSERT_TRUE(queued.accepted);

    // noisy's queued share (1) is spent: the third submit is shed
    // with the resource code and a deterministic backoff hint --
    // while another tenant is still admitted.
    const SubmitReply shed = client.submit(tiny);
    EXPECT_FALSE(shed.accepted);
    EXPECT_EQ(shed.state, JobState::Rejected);
    EXPECT_NE(shed.detail.find("quota"), std::string::npos);
    EXPECT_GT(shed.retryAfterSeconds, 0.0);
    EXPECT_EQ(counterValue(names::kMetricServiceTenantSheds),
              shedBefore + 1);
    EXPECT_EQ(client.status(shed.jobId).exitCode,
              names::kExitResource);

    SubmitRequest polite = tinyRequest(0.4);
    polite.tenant = "polite";
    const SubmitReply ok = client.submit(polite);
    EXPECT_TRUE(ok.accepted);

    client.cancelJob(ok.jobId);
    client.cancelJob(queued.jobId);
    client.cancelJob(blocker.jobId);
    server.stop();
}

// ---- bounded result wait -----------------------------------------

TEST(ServiceHardening, BoundedResultWaitYieldsRetryFrame)
{
    ServerConfig config;
    config.executors = 1;
    config.maxResultWaitSeconds = 0.05;
    QuestServer server(config);
    QuestClient client = connectLocal(server);

    const uint64_t retriesBefore =
        counterValue(names::kMetricServiceResultRetries);
    const SubmitReply blocker = client.submit(heavyRequest());
    ASSERT_TRUE(blocker.accepted);

    // Ask for a long wait over a raw connection: the server must
    // answer within its own bound with a Retry frame carrying the
    // job's live (non-terminal) status, not pin the thread.
    auto [serverFd, clientFd] = streamPair();
    server.attach(serverFd);
    ResultRequest request;
    request.jobId = blocker.jobId;
    request.wait = true;
    request.timeoutSeconds = 30;
    ASSERT_EQ(sendFrame(clientFd, MsgType::Result,
                        encodePayload(request)),
              SendStatus::Ok);
    const RecvResult r = recvFrame(clientFd);
    ASSERT_EQ(r.status, RecvStatus::Ok);
    ASSERT_EQ(r.frame.type, MsgType::Retry);
    const RetryReply retry =
        decodePayload<RetryReply>(r.frame.payload);
    EXPECT_TRUE(retry.status.known);
    EXPECT_FALSE(isTerminalJobState(retry.status.state));
    EXPECT_GE(retry.retryAfterSeconds, 0.0);
    EXPECT_EQ(counterValue(names::kMetricServiceResultRetries),
              retriesBefore + 1);
    close(clientFd);

    client.cancelJob(blocker.jobId);
    // The high-level client polls through Retry frames to the
    // terminal state transparently.
    const ResultReply result = client.result(blocker.jobId);
    EXPECT_TRUE(isTerminalJobState(result.status.state));
    server.stop();
}

// ---- self-healing client -----------------------------------------

TEST(ServiceHardening, BackoffScheduleIsDeterministic)
{
    RetryPolicy policy;
    policy.retries = 6;
    const std::vector<double> a = backoffSchedule(policy, 6);
    const std::vector<double> b = backoffSchedule(policy, 6);
    EXPECT_EQ(a, b); // same seed, same schedule -- reproducible

    RetryPolicy reseeded = policy;
    reseeded.seed = 0x1234;
    EXPECT_NE(backoffSchedule(reseeded, 6), a); // jitter is seeded

    for (size_t k = 0; k < a.size(); ++k) {
        // Jittered into [cap/2, cap], cap = min(base * 2^k, max).
        const double cap =
            std::min(policy.baseDelaySeconds * double(1 << k),
                     policy.maxDelaySeconds);
        EXPECT_GE(a[k], 0.5 * cap);
        EXPECT_LE(a[k], cap);
    }
}

TEST(ServiceHardening, ClientHealsThroughDroppedConnection)
{
    TempDir dir;
    ServerConfig config;
    config.socketPath = (dir.path / "served.sock").string();
    QuestServer server(config);
    server.start();

    const uint64_t dropBefore = counterValue("fault.service.conn.drop");
    const uint64_t healBefore =
        counterValue(names::kMetricServiceClientRetries);
    {
        // The first received frame is dropped on the floor without a
        // reply (the worst spot: after the request reached the
        // server). The default client reconnects and resends.
        ScopedFaultPlan plan("service.conn.drop:once");
        QuestClient client =
            QuestClient::connect(config.socketPath, 5.0);
        EXPECT_FALSE(client.stats().stats.empty());
    }
    EXPECT_EQ(counterValue("fault.service.conn.drop"), dropBefore + 1);
    EXPECT_GE(counterValue(names::kMetricServiceClientRetries),
              healBefore + 1);
    server.stop();
}

TEST(ServiceHardening, ClientHealsThroughRecvStallFault)
{
    TempDir dir;
    ServerConfig config;
    config.socketPath = (dir.path / "served.sock").string();
    QuestServer server(config);
    server.start();

    const uint64_t stallBefore =
        counterValue(names::kMetricServiceRecvStalls);
    {
        // An injected mid-frame stall: the daemon counts the drop,
        // the healing client carries the request through.
        ScopedFaultPlan plan("service.recv.stall:once");
        QuestClient client =
            QuestClient::connect(config.socketPath, 5.0);
        EXPECT_FALSE(client.stats().stats.empty());
    }
    EXPECT_EQ(counterValue(names::kMetricServiceRecvStalls),
              stallBefore + 1);
    server.stop();
}

TEST(ServiceHardening, SubmissionKeyDedupRunsJobExactlyOnce)
{
    ServerConfig config;
    config.executors = 1;
    QuestServer server(config);

    const uint64_t dedupBefore =
        counterValue(names::kMetricServiceSubmitDedupHits);

    SubmitRequest request = tinyRequest();
    request.tenant = "team";
    request.submissionKey = "idempotent-1";

    // Submit, then lose the connection right after the ack -- the
    // client that died never learned whether its job ran.
    uint64_t firstId = 0;
    {
        QuestClient client = connectLocal(server);
        const SubmitReply reply = client.submit(request);
        ASSERT_TRUE(reply.accepted);
        EXPECT_FALSE(reply.deduplicated);
        firstId = reply.jobId;
    } // connection killed here

    // The blind resend lands on the same job: no second execution.
    QuestClient retry = connectLocal(server);
    const SubmitReply replay = retry.submit(request);
    ASSERT_TRUE(replay.accepted);
    EXPECT_TRUE(replay.deduplicated);
    EXPECT_EQ(replay.jobId, firstId);
    EXPECT_EQ(counterValue(names::kMetricServiceSubmitDedupHits),
              dedupBefore + 1);

    const ResultReply result = retry.result(firstId);
    ASSERT_EQ(result.status.state, JobState::Done);

    // Even after completion the key still dedups (and never re-runs):
    // the synthesis work counter must not move for a third submit.
    const uint64_t instAfter =
        counterValue(names::kMetricSynthInstantiations);
    const SubmitReply late = retry.submit(request);
    EXPECT_TRUE(late.deduplicated);
    EXPECT_EQ(late.jobId, firstId);
    EXPECT_EQ(retry.result(firstId).status.state, JobState::Done);
    EXPECT_EQ(counterValue(names::kMetricSynthInstantiations),
              instAfter);

    // A different key is a different job.
    SubmitRequest fresh = request;
    fresh.submissionKey = "idempotent-2";
    const SubmitReply other = retry.submit(fresh);
    ASSERT_TRUE(other.accepted);
    EXPECT_FALSE(other.deduplicated);
    EXPECT_NE(other.jobId, firstId);
    retry.result(other.jobId);
    server.stop();
}

// ---- executor supervision ----------------------------------------

TEST(ServiceHardening, ExecutorCrashFinalizesJobDaemonSurvives)
{
    ServerConfig config;
    config.executors = 1;
    QuestServer server(config);
    QuestClient client = connectLocal(server);

    const uint64_t crashBefore =
        counterValue(names::kMetricServiceExecutorCrashes);
    uint64_t crashedId = 0;
    {
        ScopedFaultPlan plan("service.executor.crash:once");
        const SubmitReply reply = client.submit(tinyRequest());
        ASSERT_TRUE(reply.accepted);
        crashedId = reply.jobId;
        const ResultReply result = client.result(crashedId);
        // The guard converts the escaped exception into a terminal
        // Failed/Internal record -- never a lost job or a dead
        // executor thread.
        EXPECT_EQ(result.status.state, JobState::Failed);
        EXPECT_EQ(result.status.exitCode, names::kExitInternal);
        EXPECT_NE(result.status.detail.find("crash"),
                  std::string::npos);
    }
    EXPECT_EQ(counterValue(names::kMetricServiceExecutorCrashes),
              crashBefore + 1);

    // The same executor thread keeps serving: the next job lands
    // Done, proving the crash consumed one job, not the daemon.
    const SubmitReply next = client.submit(tinyRequest(0.5));
    ASSERT_TRUE(next.accepted);
    EXPECT_EQ(client.result(next.jobId).status.state, JobState::Done);
    server.stop();
}

// ---- malformed QASM numbers ---------------------------------------

TEST(ServiceHardening, MalformedQasmNumberFailsTypedWithoutCrash)
{
    ServerConfig config;
    config.executors = 1;
    QuestServer server(config);
    QuestClient client = connectLocal(server);

    const uint64_t crashBefore =
        counterValue(names::kMetricServiceExecutorCrashes);
    for (const char *stmt :
         {"rz(.) q[0];", "rz(e5) q[0];", "rz(1e999) q[0];",
          "rz(1e-400) q[0];", "rz(1.5.5) q[0];", "h q[];",
          "h q[99999999999];", "h q[1x];"}) {
        SubmitRequest bad = tinyRequest();
        bad.qasm = std::string("OPENQASM 2.0;\nqreg q[2];\n") + stmt +
                   "\ncx q[0],q[1];\n";
        const SubmitReply reply = client.submit(bad);
        ASSERT_TRUE(reply.accepted) << stmt;
        const ResultReply result = client.result(reply.jobId);
        EXPECT_EQ(result.status.state, JobState::Failed) << stmt;
        EXPECT_EQ(result.status.exitCode, names::kExitInvalidInput)
            << stmt << ": " << result.status.detail;
    }
    EXPECT_EQ(counterValue(names::kMetricServiceExecutorCrashes),
              crashBefore);

    // The same executor serves the next valid job.
    const SubmitReply good = client.submit(tinyRequest(0.5));
    ASSERT_TRUE(good.accepted);
    EXPECT_EQ(client.result(good.jobId).status.state, JobState::Done);
    server.stop();
}

// ---- invalid compile options -------------------------------------

TEST(ServiceHardening, InvalidOptionsFailTypedAndRestartServes)
{
    TempDir tmp;
    ServerConfig config;
    config.executors = 1;
    config.stateDir = (tmp.path / "state").string();
    {
        QuestServer server(config);
        QuestClient client = connectLocal(server);
        SubmitRequest no_samples = tinyRequest();
        no_samples.options.maxSamples = 0;
        SubmitRequest one_qubit_blocks = tinyRequest(0.4);
        one_qubit_blocks.options.blockSize = 1;
        for (const SubmitRequest &bad : {no_samples, one_qubit_blocks}) {
            const SubmitReply reply = client.submit(bad);
            ASSERT_TRUE(reply.accepted);
            const ResultReply result = client.result(reply.jobId);
            EXPECT_EQ(result.status.state, JobState::Failed);
            EXPECT_EQ(result.status.exitCode, names::kExitInvalidInput)
                << result.status.detail;
        }
        // The same executor serves the next valid job.
        const SubmitReply good = client.submit(tinyRequest(0.5));
        ASSERT_TRUE(good.accepted);
        EXPECT_EQ(client.result(good.jobId).status.state, JobState::Done);
        server.stop();
    }

    // Every job landed a terminal record, so a restart on the same
    // state directory replays nothing and serves.
    QuestServer restarted(config);
    EXPECT_EQ(restarted.replayedJobs(), 0u);
    QuestClient client = connectLocal(restarted);
    const SubmitReply next = client.submit(tinyRequest(0.6));
    ASSERT_TRUE(next.accepted);
    EXPECT_EQ(client.result(next.jobId).status.state, JobState::Done);
    restarted.stop();
}

} // namespace
} // namespace quest::service
