/**
 * @file
 * quest_served — the multi-tenant QUEST compile daemon.
 *
 * Serves the QSV1 protocol (docs/FORMATS.md) on a Unix-domain
 * socket. All jobs share one cooperative thread pool, one persistent
 * synthesis cache (cross-job dedup) and one crash-safe state
 * directory; see docs/ARCHITECTURE.md "Compile service layer".
 *
 * Usage:
 *   quest_served --socket <path> [options]
 *
 * Options:
 *   --socket <path>      Unix socket to listen on (required)
 *   --state-dir <dir>    durable job journal; a restarted daemon
 *                        replays in-flight jobs, their finished blocks
 *                        served from the synthesis cache
 *   --cache-dir <dir>    shared persistent synthesis cache (default
 *                        <state-dir>/cache with --state-dir, else none)
 *   --cache-max-bytes n  cache size cap (default 1 GiB)
 *   --threads <n>        shared synthesis and certify thread budget
 *                        (0 = cores)
 *   --executors <n>      concurrently compiled jobs (default 2)
 *   --queue-capacity <n> admission bound; beyond it submits are
 *                        Rejected with exit code 15 (default 64)
 *   --io-timeout <sec>   per-frame socket I/O deadline: a peer that
 *                        stalls mid-frame (or stops reading) past it
 *                        is a counted drop (default 30, 0 = off)
 *   --idle-timeout <sec> reap connections with no traffic for this
 *                        long (default 300, 0 = off)
 *   --max-connections n  concurrent-connection cap; excess peers get
 *                        a resource Error frame (default 64, 0 = off)
 *   --result-wait <sec>  bound on one `result --wait` round trip;
 *                        longer waits become Retry replies the
 *                        client re-polls through (default 5, 0 = off)
 *   --tenant-max-queued n   per-tenant queued-job quota (0 = off)
 *   --tenant-max-running n  per-tenant running-job quota (0 = off)
 *   --tenant-weight t=w  round-robin weight for tenant t (repeatable;
 *                        unlisted tenants weigh 1)
 *
 * SIGINT/SIGTERM (and the protocol Shutdown message) stop the
 * daemon; a draining stop finishes queued jobs first. Exit codes
 * follow the resilience/error.hh taxonomy.
 */

#include <csignal>
#include <iostream>
#include <string>
#include <thread>

#include "resilience/error.hh"
#include "service/server.hh"
#include "util/logging.hh"

namespace {

using namespace quest;

int
usage()
{
    std::cerr
        << "usage: quest_served --socket <path> [options]\n"
        << "options:\n"
        << "  --state-dir dir      durable job journal\n"
        << "  --cache-dir dir      shared synthesis cache "
           "(default state-dir/cache)\n"
        << "  --cache-max-bytes n  cache size cap\n"
        << "  --threads n          synthesis and certify threads\n"
        << "  --executors n        concurrent jobs\n"
        << "  --queue-capacity n   admission bound\n"
        << "  --io-timeout sec     per-frame I/O deadline "
           "(default 30, 0 = off)\n"
        << "  --idle-timeout sec   idle-connection reaper "
           "(default 300, 0 = off)\n"
        << "  --max-connections n  concurrent-connection cap "
           "(default 64, 0 = off)\n"
        << "  --result-wait sec    bounded result --wait slice "
           "(default 5, 0 = off)\n"
        << "  --tenant-max-queued n   per-tenant queued quota "
           "(0 = off)\n"
        << "  --tenant-max-running n  per-tenant running quota "
           "(0 = off)\n"
        << "  --tenant-weight t=w  round-robin weight for tenant t "
           "(repeatable)\n";
    return 2;
}

int
runServed(int argc, char **argv)
{
    service::ServerConfig config;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            std::cerr << "option " << arg << " needs a value\n";
            return usage();
        }
        const std::string value = argv[++i];
        try {
            if (arg == "--socket") {
                config.socketPath = value;
            } else if (arg == "--state-dir") {
                config.stateDir = value;
            } else if (arg == "--cache-dir") {
                config.cacheDir = value;
            } else if (arg == "--cache-max-bytes") {
                config.cacheMaxBytes = std::stoull(value);
            } else if (arg == "--threads") {
                config.threads =
                    static_cast<unsigned>(std::stoul(value));
            } else if (arg == "--executors") {
                config.executors =
                    static_cast<unsigned>(std::stoul(value));
            } else if (arg == "--queue-capacity") {
                config.queueCapacity = std::stoul(value);
            } else if (arg == "--io-timeout") {
                config.ioTimeoutSeconds = std::stod(value);
            } else if (arg == "--idle-timeout") {
                config.idleTimeoutSeconds = std::stod(value);
            } else if (arg == "--max-connections") {
                config.maxConnections = std::stoul(value);
            } else if (arg == "--result-wait") {
                config.maxResultWaitSeconds = std::stod(value);
            } else if (arg == "--tenant-max-queued") {
                config.tenantMaxQueued = std::stoul(value);
            } else if (arg == "--tenant-max-running") {
                config.tenantMaxRunning = std::stoul(value);
            } else if (arg == "--tenant-weight") {
                const size_t eq = value.find('=');
                if (eq == std::string::npos || eq == 0) {
                    std::cerr << "--tenant-weight wants tenant=w, "
                                 "got: "
                              << value << "\n";
                    return usage();
                }
                config.tenantWeights[value.substr(0, eq)] =
                    static_cast<uint32_t>(
                        std::stoul(value.substr(eq + 1)));
            } else {
                std::cerr << "unknown option: " << arg << "\n";
                return usage();
            }
        } catch (const std::exception &) {
            std::cerr << "bad value for " << arg << ": " << value
                      << "\n";
            return usage();
        }
    }
    if (config.socketPath.empty())
        return usage();

    // Signals are delivered to a dedicated sigwait thread so the
    // stop path is ordinary code, not an async handler.
    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGINT);
    sigaddset(&signals, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &signals, nullptr);

    service::QuestServer server(std::move(config));
    if (server.replayedJobs() > 0) {
        inform("quest_served: replayed ", server.replayedJobs(),
               " in-flight job(s) from the journal");
    }

    std::thread([signals, &server] {
        int sig = 0;
        if (sigwait(&signals, &sig) == 0) {
            inform("quest_served: caught signal ", sig,
                   ", draining");
            server.requestStop(true);
        }
    }).detach();

    server.start();
    inform("quest_served: listening on ", server.socketPath());
    server.waitStopRequested();
    server.stop();
    inform("quest_served: stopped");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runServed(argc, argv);
    } catch (const quest::resilience::QuestError &e) {
        std::cerr << "quest_served: " << e.what() << "\n";
        return e.exitCode();
    } catch (const std::exception &e) {
        std::cerr << "quest_served: internal: " << e.what() << "\n";
        return quest::resilience::exitCodeFor(
            quest::resilience::ErrorCategory::Internal);
    }
}
