/**
 * @file
 * Service-layer tests: QSV1 protocol goldens (frame bijection,
 * malformed/truncated/oversized/version-mismatch rejection) and the
 * end-to-end socketpair contract — served results are byte-identical
 * to running the quest_compile configuration locally, priorities
 * order completions deterministically, and cancelling a queued job
 * never starts a pipeline run.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "algos/algorithms.hh"
#include "ir/qasm.hh"
#include "obs/metrics.hh"
#include "quest/pipeline.hh"
#include "resilience/error.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "util/names.hh"

namespace quest::service {
namespace {

namespace fs = std::filesystem;

fs::path
makeTempDir()
{
    std::string tmpl =
        (fs::temp_directory_path() / "quest-service-test-XXXXXX")
            .string();
    char *dir = mkdtemp(tmpl.data());
    EXPECT_NE(dir, nullptr);
    return fs::path(dir);
}

/** RAII removal of a test state/cache directory. */
struct TempDir
{
    fs::path path = makeTempDir();
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

/** A connected (server fd, client fd) stream pair. */
std::pair<int, int>
streamPair()
{
    int sv[2] = {-1, -1};
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    return {sv[0], sv[1]};
}

/** Attach a fresh client connection to an in-process server. */
QuestClient
connectLocal(QuestServer &server)
{
    auto [serverFd, clientFd] = streamPair();
    server.attach(serverFd);
    return QuestClient::fromFd(clientFd);
}

/** A tiny 3-qubit circuit (one partition block) as QASM. */
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

/** Fast CompileOptions for test jobs. */
CompileOptions
tinyOptions()
{
    CompileOptions options;
    options.maxLayers = 4;
    options.maxSamples = 4;
    return options;
}

// ---- protocol goldens --------------------------------------------

/**
 * Wait, for at most about ten seconds, until job @p id has left
 * Queued. A test that parks a blocker on its only executor calls
 * this before its next submit, so that submit meets a busy executor
 * and not the blocker still in the queue.
 */
bool
leftQueue(QuestClient &client, uint64_t id)
{
    for (int polls = 0; polls < 10000; ++polls) {
        if (client.status(id).state != JobState::Queued)
            return true;
        usleep(1000);
    }
    return false;
}

TEST(Qsv1Frame, GoldenStatusRequestBytes)
{
    // The worked example from docs/FORMATS.md: Status for job 7.
    StatusRequest request;
    request.jobId = 7;
    const std::vector<uint8_t> frame =
        encodeFrame(MsgType::Status, encodePayload(request));
    EXPECT_EQ(toHex(frame.data(), frame.size()),
              "51535631"          // magic "QSV1"
              "0300"              // version 3
              "0300"              // type 3 (status)
              "08000000"          // payload length 8
              "0700000000000000"  // u64 jobId = 7
              "625b4c0717a3d74b"  // FNV-1a 64 of the payload
    );
}

TEST(Qsv1Frame, EncodeDecodeBijection)
{
    SubmitRequest request;
    request.priority = -3;
    request.deadlineSeconds = 12.5;
    request.options.threshold = 0.125;
    request.options.maxSamples = 7;
    request.options.maxLayers = 9;
    request.options.blockSize = 3;
    request.options.seed = 0xdeadbeefcafe;
    request.options.selectionMode = SelectionMode::BlockBound;
    request.tenant = "team-quantum";
    request.submissionKey = "job-7f3a";
    request.qasm = tinyQasm(0.3);

    const std::vector<uint8_t> frame =
        encodeFrame(MsgType::Submit, encodePayload(request));
    const Frame decoded = decodeFrame(frame.data(), frame.size());
    EXPECT_EQ(decoded.type, MsgType::Submit);

    const SubmitRequest back =
        decodePayload<SubmitRequest>(decoded.payload);
    EXPECT_EQ(back.priority, request.priority);
    EXPECT_EQ(back.deadlineSeconds, request.deadlineSeconds);
    EXPECT_EQ(back.options.threshold, request.options.threshold);
    EXPECT_EQ(back.options.maxSamples, request.options.maxSamples);
    EXPECT_EQ(back.options.maxLayers, request.options.maxLayers);
    EXPECT_EQ(back.options.blockSize, request.options.blockSize);
    EXPECT_EQ(back.options.seed, request.options.seed);
    EXPECT_EQ(back.options.selectionMode,
              request.options.selectionMode);
    EXPECT_EQ(back.tenant, request.tenant);
    EXPECT_EQ(back.submissionKey, request.submissionKey);
    EXPECT_EQ(back.qasm, request.qasm);

    // Re-encoding the decoded message reproduces the frame bytes.
    EXPECT_EQ(encodeFrame(MsgType::Submit, encodePayload(back)),
              frame);
}

TEST(Qsv1Frame, ResultReplyRoundTrips)
{
    ResultReply reply;
    reply.status.jobId = 42;
    reply.status.known = true;
    reply.status.state = JobState::Done;
    reply.status.exitCode = 0;
    reply.status.completionSeq = 5;
    reply.qubits = 3;
    reply.originalCnots = 11;
    reply.blocks = 2;
    reply.okBlocks = 2;
    reply.threshold = 0.3;
    reply.samples.push_back({"OPENQASM...", 9, 0.25});
    reply.samples.push_back({"OPENQASM2...", 7, 0.125});
    reply.metrics.emplace_back("quest.synth.cache_misses", 2);

    const ResultReply back =
        decodePayload<ResultReply>(encodePayload(reply));
    EXPECT_EQ(back.status.jobId, 42u);
    EXPECT_EQ(back.status.state, JobState::Done);
    ASSERT_EQ(back.samples.size(), 2u);
    EXPECT_EQ(back.samples[1].qasm, "OPENQASM2...");
    EXPECT_EQ(back.samples[1].cnotCount, 7u);
    ASSERT_EQ(back.metrics.size(), 1u);
    EXPECT_EQ(back.metrics[0].first, "quest.synth.cache_misses");
    EXPECT_EQ(back.metrics[0].second, 2u);
}

TEST(Qsv1Frame, SubmitAndRetryRepliesRoundTrip)
{
    SubmitReply reply;
    reply.jobId = 17;
    reply.accepted = true;
    reply.state = JobState::Queued;
    reply.deduplicated = true;
    reply.retryAfterSeconds = 0.25;
    const SubmitReply back =
        decodePayload<SubmitReply>(encodePayload(reply));
    EXPECT_EQ(back.jobId, 17u);
    EXPECT_TRUE(back.accepted);
    EXPECT_TRUE(back.deduplicated);
    EXPECT_EQ(back.retryAfterSeconds, 0.25);

    RetryReply retry;
    retry.status.jobId = 17;
    retry.status.known = true;
    retry.status.state = JobState::Running;
    retry.retryAfterSeconds = 0.5;
    const RetryReply retryBack =
        decodePayload<RetryReply>(encodePayload(retry));
    EXPECT_EQ(retryBack.status.jobId, 17u);
    EXPECT_EQ(retryBack.status.state, JobState::Running);
    EXPECT_EQ(retryBack.retryAfterSeconds, 0.5);
}

TEST(Qsv1Frame, MalformedFramesRejected)
{
    StatusRequest request;
    request.jobId = 7;
    std::vector<uint8_t> frame =
        encodeFrame(MsgType::Status, encodePayload(request));

    // Bad magic.
    {
        std::vector<uint8_t> bad = frame;
        bad[0] = 'X';
        EXPECT_THROW(decodeFrame(bad.data(), bad.size()),
                     SerializeError);
    }
    // Truncation at every prefix length is a decode error, never a
    // crash or a silent partial frame.
    for (size_t n = 0; n < frame.size(); ++n)
        EXPECT_THROW(decodeFrame(frame.data(), n), SerializeError);
    // Corrupt payload (checksum mismatch).
    {
        std::vector<uint8_t> bad = frame;
        bad[kFrameHeaderBytes] ^= 0x01;
        try {
            decodeFrame(bad.data(), bad.size());
            FAIL() << "corrupt payload must throw";
        } catch (const SerializeError &e) {
            EXPECT_NE(std::string(e.what()).find("checksum"),
                      std::string::npos);
        }
    }
    // Trailing surplus bytes.
    {
        std::vector<uint8_t> bad = frame;
        bad.push_back(0);
        EXPECT_THROW(decodeFrame(bad.data(), bad.size()),
                     SerializeError);
    }
    // Declared length beyond the cap (64 bytes here).
    {
        std::vector<uint8_t> bad = frame;
        bad[8] = 0xff;
        bad[9] = 0xff;
        try {
            decodeFrame(bad.data(), bad.size(), 64);
            FAIL() << "oversized payload must throw";
        } catch (const SerializeError &e) {
            EXPECT_NE(std::string(e.what()).find("oversized"),
                      std::string::npos);
        }
    }
}

TEST(Qsv1Frame, VersionMismatchRejected)
{
    StatusRequest request;
    request.jobId = 7;
    std::vector<uint8_t> frame =
        encodeFrame(MsgType::Status, encodePayload(request));
    frame[4] = 1; // version 1 (pre-selection-mode)
    try {
        decodeFrame(frame.data(), frame.size());
        FAIL() << "version mismatch must throw";
    } catch (const SerializeError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("version mismatch"), std::string::npos);
        EXPECT_NE(what.find("got 1"), std::string::npos);
    }
}

TEST(Qsv1Frame, PayloadTrailingBytesRejected)
{
    StatusRequest request;
    request.jobId = 7;
    std::vector<uint8_t> payload = encodePayload(request);
    payload.push_back(0xaa);
    EXPECT_THROW(decodePayload<StatusRequest>(payload),
                 SerializeError);
}

TEST(Qsv1Frame, BadEnumValuesRejected)
{
    SubmitReply reply;
    std::vector<uint8_t> payload = encodePayload(reply);
    payload[9] = 99; // state byte past JobState::Expired
    EXPECT_THROW(decodePayload<SubmitReply>(payload), SerializeError);
}

TEST(Qsv1Frame, BadSelectionModeRejected)
{
    SubmitRequest request;
    request.qasm = tinyQasm(0.3);
    std::vector<uint8_t> payload = encodePayload(request);
    // priority(4) + deadline(8) + threshold(8) + maxSamples(4) +
    // maxLayers(4) + blockSize(4) + seed(8) = offset 40.
    payload[40] = 9; // selection-mode byte past BlockBound
    EXPECT_THROW(decodePayload<SubmitRequest>(payload),
                 SerializeError);
}

TEST(Qsv1Socket, RecvStatusesOverSocketpair)
{
    StatusRequest request;
    request.jobId = 7;
    const std::vector<uint8_t> frame =
        encodeFrame(MsgType::Status, encodePayload(request));

    // Clean close -> Eof.
    {
        auto [a, b] = streamPair();
        ASSERT_EQ(close(a), 0);
        const RecvResult r = recvFrame(b);
        EXPECT_EQ(r.status, RecvStatus::Eof);
        close(b);
    }
    // Partial header then close -> Malformed (truncated header).
    {
        auto [a, b] = streamPair();
        ASSERT_EQ(write(a, frame.data(), 5), 5);
        close(a);
        const RecvResult r = recvFrame(b);
        EXPECT_EQ(r.status, RecvStatus::Malformed);
        EXPECT_NE(r.error.find("truncated"), std::string::npos);
        close(b);
    }
    // Torn payload (header + partial body) -> Malformed.
    {
        auto [a, b] = streamPair();
        ASSERT_EQ(
            static_cast<size_t>(write(a, frame.data(),
                                      kFrameHeaderBytes + 3)),
            kFrameHeaderBytes + 3);
        close(a);
        const RecvResult r = recvFrame(b);
        EXPECT_EQ(r.status, RecvStatus::Malformed);
        EXPECT_NE(r.error.find("torn"), std::string::npos);
        close(b);
    }
    // Bad magic -> Malformed, before any body read.
    {
        auto [a, b] = streamPair();
        std::vector<uint8_t> bad = frame;
        bad[0] = 'X';
        ASSERT_EQ(static_cast<size_t>(write(a, bad.data(), bad.size())),
                  bad.size());
        const RecvResult r = recvFrame(b);
        EXPECT_EQ(r.status, RecvStatus::Malformed);
        EXPECT_NE(r.error.find("magic"), std::string::npos);
        close(a);
        close(b);
    }
    // Corrupt payload byte -> Malformed (checksum mismatch).
    {
        auto [a, b] = streamPair();
        std::vector<uint8_t> bad = frame;
        bad[kFrameHeaderBytes] ^= 0x01;
        ASSERT_EQ(static_cast<size_t>(write(a, bad.data(), bad.size())),
                  bad.size());
        const RecvResult r = recvFrame(b);
        EXPECT_EQ(r.status, RecvStatus::Malformed);
        EXPECT_NE(r.error.find("checksum"), std::string::npos);
        close(a);
        close(b);
    }
    // Version mismatch is its own status (the server replies with
    // an Error frame naming both versions before dropping).
    {
        auto [a, b] = streamPair();
        std::vector<uint8_t> bad = frame;
        bad[4] = 9;
        ASSERT_EQ(static_cast<size_t>(write(a, bad.data(), bad.size())),
                  bad.size());
        const RecvResult r = recvFrame(b);
        EXPECT_EQ(r.status, RecvStatus::VersionMismatch);
        close(a);
        close(b);
    }
    // Oversized declared length -> Oversized, before any body read.
    {
        auto [a, b] = streamPair();
        std::vector<uint8_t> bad = frame;
        bad[8] = 0xff;
        bad[9] = 0xff;
        ASSERT_EQ(static_cast<size_t>(write(a, bad.data(), bad.size())),
                  bad.size());
        const RecvResult r = recvFrame(b, 64);
        EXPECT_EQ(r.status, RecvStatus::Oversized);
        close(a);
        close(b);
    }
    // A good frame round-trips through send/recv.
    {
        auto [a, b] = streamPair();
        EXPECT_EQ(
            sendFrame(a, MsgType::Status, encodePayload(request)),
            SendStatus::Ok);
        const RecvResult r = recvFrame(b);
        ASSERT_EQ(r.status, RecvStatus::Ok);
        EXPECT_EQ(r.frame.type, MsgType::Status);
        EXPECT_EQ(decodePayload<StatusRequest>(r.frame.payload).jobId,
                  7u);
        close(a);
        close(b);
    }
}

TEST(JobStates, ExitCodeMapping)
{
    EXPECT_EQ(exitCodeForJobState(JobState::Queued, 0), -1);
    EXPECT_EQ(exitCodeForJobState(JobState::Running, 0), -1);
    EXPECT_EQ(exitCodeForJobState(JobState::Done, 0), 0);
    EXPECT_EQ(exitCodeForJobState(JobState::Failed,
                                  names::kExitDiverged),
              names::kExitDiverged);
    EXPECT_EQ(exitCodeForJobState(JobState::Cancelled, 0),
              names::kExitCancelled);
    EXPECT_EQ(exitCodeForJobState(JobState::Rejected, 0),
              names::kExitResource);
    EXPECT_EQ(exitCodeForJobState(JobState::Expired, 0),
              names::kExitTimeout);
    EXPECT_STREQ(jobStateName(JobState::Expired), "expired");
    EXPECT_FALSE(isTerminalJobState(JobState::Running));
    EXPECT_TRUE(isTerminalJobState(JobState::Rejected));
}

// ---- end-to-end over socketpair ----------------------------------

TEST(ServiceEndToEnd, ServedResultsMatchLocalCompile)
{
    TempDir tmp;
    ServerConfig config;
    config.cacheDir = (tmp.path / "cache").string();
    config.executors = 2;
    QuestServer server(config);
    QuestClient client = connectLocal(server);

    const std::vector<std::string> inputs = {
        tinyQasm(0.3), tinyQasm(0.9), tinyQasm(1.7)};

    std::vector<uint64_t> ids;
    for (const std::string &qasm : inputs) {
        SubmitRequest request;
        request.options = tinyOptions();
        request.qasm = qasm;
        const SubmitReply reply = client.submit(request);
        ASSERT_TRUE(reply.accepted) << reply.detail;
        ASSERT_NE(reply.jobId, 0u);
        ids.push_back(reply.jobId);
    }

    for (size_t i = 0; i < ids.size(); ++i) {
        const ResultReply served = client.result(ids[i]);
        ASSERT_EQ(served.status.state, JobState::Done)
            << served.status.detail;
        EXPECT_EQ(served.status.exitCode, 0);

        // The reference: the same configuration quest_compile builds
        // for these options, run in this process. Sample QASM must
        // match byte for byte.
        QuestPipeline reference(compileConfig(tinyOptions()));
        const QuestResult local = reference.run(parseQasm(inputs[i]));
        EXPECT_EQ(served.qubits,
                  static_cast<uint32_t>(local.original.numQubits()));
        EXPECT_EQ(served.originalCnots, local.originalCnots);
        EXPECT_EQ(served.blocks, local.blocks.size());
        EXPECT_EQ(served.okBlocks, local.okBlocks());
        ASSERT_EQ(served.samples.size(), local.samples.size());
        for (size_t s = 0; s < local.samples.size(); ++s) {
            EXPECT_EQ(served.samples[s].qasm,
                      toQasm(local.samples[s].circuit));
            EXPECT_EQ(served.samples[s].cnotCount,
                      local.samples[s].cnotCount);
        }
        EXPECT_FALSE(served.metrics.empty());
    }

    // Unknown ids answer known=false rather than erroring.
    EXPECT_FALSE(client.status(999).known);
    EXPECT_EQ(client.cancelJob(999).outcome, CancelOutcome::Unknown);

    const StatsReply stats = client.stats();
    uint64_t done = 0;
    for (const auto &[name, value] : stats.stats)
        if (name == names::kMetricServiceJobsDone)
            done = value;
    EXPECT_GE(done, ids.size());

    server.stop();
}

TEST(ServiceEndToEnd, BadPayloadEarnsErrorFrameAndBadQasmFails)
{
    QuestServer server(ServerConfig{});

    // A Submit frame whose payload is garbage: the server answers
    // with an Error frame carrying the invalid-input code, then
    // drops the connection.
    {
        auto [serverFd, clientFd] = streamPair();
        server.attach(serverFd);
        ASSERT_EQ(sendFrame(clientFd, MsgType::Submit, {0x01}),
                  SendStatus::Ok);
        const RecvResult r = recvFrame(clientFd);
        ASSERT_EQ(r.status, RecvStatus::Ok);
        ASSERT_EQ(r.frame.type, MsgType::Error);
        const ErrorReply err =
            decodePayload<ErrorReply>(r.frame.payload);
        EXPECT_EQ(err.exitCode, names::kExitInvalidInput);
        EXPECT_NE(err.message.find("submit"), std::string::npos);
        EXPECT_EQ(recvFrame(clientFd).status, RecvStatus::Eof);
        close(clientFd);
    }

    // Unparsable QASM fails the job (not the connection) with the
    // invalid-input exit code.
    {
        QuestClient client = connectLocal(server);
        SubmitRequest request;
        request.qasm = "this is not qasm";
        const SubmitReply reply = client.submit(request);
        ASSERT_TRUE(reply.accepted);
        const ResultReply result = client.result(reply.jobId);
        EXPECT_EQ(result.status.state, JobState::Failed);
        EXPECT_EQ(result.status.exitCode, names::kExitInvalidInput);
        EXPECT_NE(result.status.detail.find("QASM"),
                  std::string::npos);
    }

    server.stop();
}

TEST(ServiceEndToEnd, QueueBoundShedsLoad)
{
    // One executor stuck on a heavy job + capacity 1 queue: the
    // third submit must be Rejected with the resource exit code.
    ServerConfig config;
    config.executors = 1;
    config.queueCapacity = 1;
    QuestServer server(config);
    QuestClient client = connectLocal(server);

    SubmitRequest heavy;
    heavy.qasm = toQasm(algos::qft(5));
    heavy.options.maxLayers = 10;
    const SubmitReply blocker = client.submit(heavy);
    ASSERT_TRUE(blocker.accepted);
    ASSERT_TRUE(leftQueue(client, blocker.jobId));

    SubmitRequest tiny;
    tiny.options = tinyOptions();
    tiny.qasm = tinyQasm(0.3);
    const SubmitReply queued = client.submit(tiny);
    ASSERT_TRUE(queued.accepted);

    const SubmitReply shed = client.submit(tiny);
    EXPECT_FALSE(shed.accepted);
    EXPECT_EQ(shed.state, JobState::Rejected);
    EXPECT_EQ(client.status(shed.jobId).exitCode,
              names::kExitResource);
    EXPECT_NE(shed.detail.find("queue full"), std::string::npos);

    // Clean up without paying for the heavy job.
    EXPECT_EQ(client.cancelJob(queued.jobId).outcome,
              CancelOutcome::Dequeued);
    client.cancelJob(blocker.jobId);
    server.stop();
}

TEST(ServiceEndToEnd, CancelRunningAndDeadlineExpiry)
{
    ServerConfig config;
    config.executors = 1;
    QuestServer server(config);
    QuestClient client = connectLocal(server);

    // Cancel a job that is already running: the pipeline stops at
    // its next safe point and the job lands Cancelled, not Done
    // with a degraded ensemble.
    SubmitRequest heavy;
    heavy.qasm = toQasm(algos::qft(5));
    heavy.options.maxLayers = 10;
    const SubmitReply running = client.submit(heavy);
    ASSERT_TRUE(running.accepted);
    while (client.status(running.jobId).state == JobState::Queued)
        usleep(1000);
    const CancelReply cancel = client.cancelJob(running.jobId);
    EXPECT_EQ(cancel.outcome, CancelOutcome::Signalled);
    const JobStatus cancelled = server.waitTerminal(running.jobId);
    EXPECT_EQ(cancelled.state, JobState::Cancelled);
    EXPECT_EQ(cancelled.exitCode, names::kExitCancelled);

    // A job whose deadline fires (queued or mid-run) lands Expired
    // with the timeout exit code.
    heavy.deadlineSeconds = 0.05;
    const SubmitReply dying = client.submit(heavy);
    ASSERT_TRUE(dying.accepted);
    const JobStatus expired = server.waitTerminal(dying.jobId);
    EXPECT_EQ(expired.state, JobState::Expired);
    EXPECT_EQ(expired.exitCode, names::kExitTimeout);

    server.stop();
}

TEST(ServiceProperty, PriorityOrderIsDeterministic)
{
    // Same job set + priorities + one executor => completion order
    // is a pure function of (priority desc, submission order), which
    // this pins: 5a before 5b (FIFO within a priority), then 3,
    // then 1.
    TempDir tmp;
    ServerConfig config;
    config.executors = 1;
    config.threads = 1;
    config.cacheDir = (tmp.path / "cache").string();
    QuestServer server(config);
    QuestClient client = connectLocal(server);

    // Occupy the single executor so the real job set queues up
    // behind it and is ordered purely by the queue.
    SubmitRequest heavy;
    heavy.qasm = toQasm(algos::qft(5));
    heavy.options.maxLayers = 10;
    const SubmitReply blocker = client.submit(heavy);
    ASSERT_TRUE(blocker.accepted);
    ASSERT_TRUE(leftQueue(client, blocker.jobId));

    SubmitRequest tiny;
    tiny.options = tinyOptions();
    tiny.qasm = tinyQasm(0.3);

    struct Submitted
    {
        uint64_t id;
        int32_t priority;
    };
    std::vector<Submitted> set;
    for (int32_t priority : {1, 5, 3, 5}) {
        tiny.priority = priority;
        const SubmitReply reply = client.submit(tiny);
        ASSERT_TRUE(reply.accepted);
        set.push_back({reply.jobId, priority});
    }

    // Queue positions already reflect pop order: 5a, 5b, 3, 1.
    EXPECT_LT(client.status(set[1].id).queuePosition,
              client.status(set[3].id).queuePosition);
    EXPECT_LT(client.status(set[3].id).queuePosition,
              client.status(set[2].id).queuePosition);
    EXPECT_LT(client.status(set[2].id).queuePosition,
              client.status(set[0].id).queuePosition);

    client.cancelJob(blocker.jobId);

    std::vector<uint64_t> seq(set.size());
    for (size_t i = 0; i < set.size(); ++i) {
        const JobStatus status = server.waitTerminal(set[i].id);
        ASSERT_EQ(status.state, JobState::Done) << status.detail;
        seq[i] = status.completionSeq;
    }
    // Completion order: 5a < 5b < 3 < 1.
    EXPECT_LT(seq[1], seq[3]);
    EXPECT_LT(seq[3], seq[2]);
    EXPECT_LT(seq[2], seq[0]);

    server.stop();
}

TEST(ServiceEndToEnd, TerminalJobsLeaveNoCheckpointJournal)
{
    // A daemon's durable state is its service journal and the
    // synthesis cache it keeps under the state directory: a job of
    // any outcome writes no journal of its own.
    TempDir tmp;
    const fs::path state = tmp.path / "state";
    ServerConfig config;
    config.stateDir = state.string();
    config.executors = 1;
    {
        QuestServer server(config);
        QuestClient client = connectLocal(server);

        SubmitRequest tiny;
        tiny.options = tinyOptions();
        tiny.qasm = tinyQasm(0.3);
        const SubmitReply done = client.submit(tiny);
        ASSERT_TRUE(done.accepted);
        EXPECT_EQ(server.waitTerminal(done.jobId).state, JobState::Done);

        SubmitRequest bad;
        bad.qasm = "this is not qasm";
        const SubmitReply failed = client.submit(bad);
        ASSERT_TRUE(failed.accepted);
        EXPECT_EQ(server.waitTerminal(failed.jobId).state,
                  JobState::Failed);

        SubmitRequest heavy;
        heavy.qasm = toQasm(algos::qft(5));
        heavy.options.maxLayers = 10;
        const SubmitReply running = client.submit(heavy);
        ASSERT_TRUE(running.accepted);
        ASSERT_TRUE(leftQueue(client, running.jobId));
        client.cancelJob(running.jobId);
        EXPECT_EQ(server.waitTerminal(running.jobId).state,
                  JobState::Cancelled);
        server.stop();
    }

    std::set<std::string> entries;
    // QUEST_ANALYZE_OK(determinism.fs-order): collected into a sorted set
    for (const fs::directory_entry &entry : fs::directory_iterator(state))
        entries.insert(entry.path().filename().string());
    EXPECT_EQ(entries, (std::set<std::string>{"cache", "service.qrj"}));
    EXPECT_TRUE(fs::is_directory(state / "cache"));

    // Every job reached a terminal record, so a restart replays none.
    QuestServer again(config);
    EXPECT_EQ(again.replayedJobs(), 0u);
    again.stop();
}

TEST(ServiceProperty, CancelQueuedJobNeverRunsPipeline)
{
    auto &registry = obs::MetricsRegistry::global();
    auto &runs = registry.counter(names::kMetricPipelineRuns);
    const uint64_t runs0 = runs.value();
    const uint64_t runMs0 =
        registry.histogram(names::kMetricServiceJobRunMs).count();

    ServerConfig config;
    config.executors = 1;
    QuestServer server(config);
    QuestClient client = connectLocal(server);

    SubmitRequest heavy;
    heavy.qasm = toQasm(algos::qft(5));
    heavy.options.maxLayers = 10;
    const SubmitReply blocker = client.submit(heavy);
    ASSERT_TRUE(blocker.accepted);
    ASSERT_TRUE(leftQueue(client, blocker.jobId));

    SubmitRequest tiny;
    tiny.options = tinyOptions();
    tiny.qasm = tinyQasm(0.3);
    const SubmitReply victim = client.submit(tiny);
    ASSERT_TRUE(victim.accepted);

    const CancelReply cancelled = client.cancelJob(victim.jobId);
    EXPECT_EQ(cancelled.outcome, CancelOutcome::Dequeued);
    const JobStatus status = server.waitTerminal(victim.jobId);
    EXPECT_EQ(status.state, JobState::Cancelled);
    EXPECT_EQ(status.exitCode, names::kExitCancelled);

    client.cancelJob(blocker.jobId);
    server.waitTerminal(blocker.jobId);
    server.stop(); // joins executors: no deferred work remains

    // The victim left no trace in the pipeline: only the blocker's
    // run started (no leaked pool work item), and only the blocker
    // recorded a run duration (no leaked Budget poll past admission).
    EXPECT_EQ(runs.value(), runs0 + 1);
    EXPECT_EQ(
        registry.histogram(names::kMetricServiceJobRunMs).count(),
        runMs0 + 1);
}

} // namespace
} // namespace quest::service
