/**
 * @file
 * Service stress tests: cross-job synthesis-cache dedup under 8
 * concurrent client threads (the tsan target), warm-resubmission
 * zero-miss behavior, and SIGKILL-and-resume — a restarted daemon
 * replays in-flight jobs byte-identically, their finished blocks
 * served from its synthesis cache.
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "algos/algorithms.hh"
#include "ir/qasm.hh"
#include "obs/metrics.hh"
#include "quest/pipeline.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "util/annotations.hh"
#include "util/names.hh"

namespace quest::service {
namespace {

namespace fs = std::filesystem;

fs::path
makeTempDir()
{
    std::string tmpl =
        (fs::temp_directory_path() / "quest-service-stress-XXXXXX")
            .string();
    char *dir = mkdtemp(tmpl.data());
    EXPECT_NE(dir, nullptr);
    return fs::path(dir);
}

struct TempDir
{
    fs::path path = makeTempDir();
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

QuestClient
connectLocal(QuestServer &server)
{
    int sv[2] = {-1, -1};
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    server.attach(sv[0]);
    return QuestClient::fromFd(sv[1]);
}

/** A tiny single-block circuit parameterized by @p angle. */
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

CompileOptions
tinyOptions()
{
    CompileOptions options;
    options.maxLayers = 4;
    options.maxSamples = 4;
    return options;
}

uint64_t
counterValue(const char *name)
{
    return obs::MetricsRegistry::global().counter(name).value();
}

TEST(ServiceStress, CrossJobDedupUnderConcurrentClients)
{
    auto &registry = obs::MetricsRegistry::global();
    registry.reset();

    TempDir tmp;
    ServerConfig config;
    config.cacheDir = (tmp.path / "cache").string();
    // Two executors: enough concurrency to exercise the shared
    // cache, small enough that at most 2 jobs can race the same
    // uncached block (keeps the dedup bound below airtight).
    config.executors = 2;
    config.queueCapacity = 64;
    QuestServer server(config);

    // 4 distinct circuits, each submitted 4 times across 8 client
    // threads with overlapping assignments.
    const std::vector<std::string> circuits = {
        tinyQasm(0.3), tinyQasm(0.9), tinyQasm(1.7), tinyQasm(2.4)};

    constexpr int kThreads = 8;
    std::atomic<uint64_t> totalBlocks{0};
    std::atomic<uint64_t> doneJobs{0};
    std::atomic<bool> ok{true};
    std::vector<std::thread> clients;
    clients.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            QuestClient client = connectLocal(server);
            const size_t first = static_cast<size_t>(t) % 4;
            const size_t second = (static_cast<size_t>(t) + 1) % 4;
            for (size_t pick : {first, second}) {
                SubmitRequest request;
                request.options = tinyOptions();
                request.qasm = circuits[pick];
                const SubmitReply submitted = client.submit(request);
                if (!submitted.accepted) {
                    ok = false;
                    return;
                }
                // Interleave status/stats traffic with the compile.
                client.status(submitted.jobId);
                client.stats();
                const ResultReply result =
                    client.result(submitted.jobId);
                if (result.status.state != JobState::Done) {
                    ok = false;
                    return;
                }
                totalBlocks += result.blocks;
                ++doneJobs;
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    server.stop();

    ASSERT_TRUE(ok.load()) << "a job failed; see statuses above";
    EXPECT_EQ(doneJobs.load(), 2u * kThreads);

    // Dedup accounting is exact: every block is either a cache hit
    // (in-memory dedup or the shared disk cache) or an actual LEAP
    // search.
    const uint64_t hits =
        counterValue(names::kMetricSynthCacheHits);
    const uint64_t misses =
        counterValue(names::kMetricSynthCacheMisses);
    EXPECT_EQ(hits + misses, totalBlocks.load());

    // A cold serial baseline (each job against an empty cache) would
    // miss every block: these circuits are single-block with no
    // in-run duplicates, so baseline misses == totalBlocks. Sharing
    // one cache across jobs must do strictly better.
    EXPECT_LT(misses, totalBlocks.load());
    // At most `executors` jobs can race one uncached block, so the
    // 4 distinct circuits cost at most 8 searches.
    EXPECT_LE(misses, 2u * circuits.size());

    // Warm resubmission on a fresh daemon sharing the same cache
    // directory: every block hits, zero new misses.
    QuestServer warm(config);
    QuestClient client = connectLocal(warm);
    for (const std::string &qasm : circuits) {
        SubmitRequest request;
        request.options = tinyOptions();
        request.qasm = qasm;
        const SubmitReply submitted = client.submit(request);
        ASSERT_TRUE(submitted.accepted);
        const ResultReply result = client.result(submitted.jobId);
        ASSERT_EQ(result.status.state, JobState::Done)
            << result.status.detail;
    }
    warm.stop();
    EXPECT_EQ(counterValue(names::kMetricSynthCacheMisses), misses)
        << "warm resubmission must not synthesize anything";
    EXPECT_GE(counterValue(names::kMetricSynthCacheHits),
              hits + circuits.size());
}

TEST(ServiceStress, KillAndResumeReplaysInFlightJobByteIdentically)
{
    TempDir tmp;
    const fs::path state = tmp.path / "state";

    // The job: heisenberg_4 in blocks of up to 3 qubits, six of them
    // distinct. On the tier-1 Release build at 4 threads
    // (quest_compile --no-cache with these options, --trace), its
    // first block finished 17-24 ms after the start and the last one
    // 787-879 ms after that first block, so the SIGKILL below, sent
    // within a 2 ms poll of the first cache entry, lands with
    // hundreds of milliseconds of synthesis left.
    CompileOptions options;
    options.maxLayers = 16;
    options.maxSamples = 4;
    options.blockSize = 3;
    const std::string qasm = toQasm(algos::heisenberg(4, 5));

    // Reference result, computed uninterrupted in this process with
    // the exact config the server derives from these options.
    QuestPipeline reference(compileConfig(options));
    const QuestResult expected = reference.run(parseQasm(qasm));
    ASSERT_FALSE(expected.samples.empty());

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // Child daemon: accept the job, start compiling, never
        // finish — the parent SIGKILLs us mid-synthesis.
        ServerConfig config;
        config.stateDir = state.string();
        config.executors = 1;
        QuestServer server(config);
        int sv[2] = {-1, -1};
        if (socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
            _exit(81);
        server.attach(sv[0]);
        QuestClient client = QuestClient::fromFd(sv[1]);
        SubmitRequest request;
        request.options = options;
        request.qasm = qasm;
        const SubmitReply reply = client.submit(request);
        if (!reply.accepted || reply.jobId != 1)
            _exit(82);
        for (;;)
            pause(); // hold the process open until SIGKILL
    }

    // Wait until the daemon's cache holds its first entry (at least
    // one block synthesized and published), then kill it mid-job.
    const fs::path objects = state / "cache" / "objects";
    QUEST_RESULT_NEUTRAL("when the SIGKILL lands only shifts how many "
                         "blocks the cache serves; the resumed result "
                         "is byte-identical either way");
    const auto hasEntry = [&] {
        std::error_code ec;
        for (fs::recursive_directory_iterator it(objects, ec), end;
             !ec && it != end; it.increment(ec)) {
            if (it->path().extension() == ".qsc")
                return true;
        }
        return false;
    };
    const auto giveUp =
        std::chrono::steady_clock::now() + std::chrono::minutes(5);
    while (!hasEntry()) {
        if (std::chrono::steady_clock::now() > giveUp)
            break; // kill anyway; resume must still be identical
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(kill(child, SIGKILL), 0);
    int wstatus = 0;
    ASSERT_EQ(waitpid(child, &wstatus, 0), child);
    ASSERT_TRUE(WIFSIGNALED(wstatus));

    // The restarted daemon finds the submit record without a
    // terminal record and re-enqueues the job, which loads the
    // blocks the killed run finished from the cache.
    const uint64_t replayed0 =
        counterValue(names::kMetricServiceJobsReplayed);
    const uint64_t hits0 = counterValue(names::kMetricCacheHit);
    const uint64_t misses0 = counterValue(names::kMetricSynthCacheMisses);
    ServerConfig config;
    config.stateDir = state.string();
    config.executors = 1;
    QuestServer server(config);
    EXPECT_EQ(server.replayedJobs(), 1u);
    EXPECT_EQ(counterValue(names::kMetricServiceJobsReplayed),
              replayed0 + 1);

    const JobStatus status = server.waitTerminal(1);
    ASSERT_EQ(status.state, JobState::Done) << status.detail;
    EXPECT_GE(counterValue(names::kMetricCacheHit), hits0 + 1)
        << "the resumed run must load the killed run's blocks";
    EXPECT_GE(counterValue(names::kMetricSynthCacheMisses), misses0 + 1)
        << "the SIGKILL must land before the last block is synthesized";

    QuestClient client = connectLocal(server);
    const ResultReply result = client.result(1);
    ASSERT_EQ(result.status.state, JobState::Done);
    EXPECT_EQ(result.blocks, expected.blocks.size());
    ASSERT_EQ(result.samples.size(), expected.samples.size());
    for (size_t s = 0; s < expected.samples.size(); ++s) {
        EXPECT_EQ(result.samples[s].qasm,
                  toQasm(expected.samples[s].circuit))
            << "sample " << s << " diverged across kill/resume";
        EXPECT_EQ(result.samples[s].cnotCount,
                  expected.samples[s].cnotCount);
    }
    server.stop();

    // A second restart replays nothing: the terminal record landed,
    // and (at-most-once delivery) the result is not retained.
    QuestServer again(config);
    EXPECT_EQ(again.replayedJobs(), 0u);
    EXPECT_FALSE(again.statusOf(1).known);
    again.stop();
}

} // namespace
} // namespace quest::service
