/**
 * @file
 * Bounded, deterministic, tenant-fair priority queue of pending jobs.
 *
 * Ordering is priority bands first (higher priority always pops
 * before lower), then *weighted round-robin across tenants* within a
 * band: each tenant owns a FIFO lane, lanes rotate in first-seen
 * submission order, and a tenant with weight w takes up to w
 * consecutive pops per turn. With one executor the completion order
 * of a job set is a pure function of (priorities, tenants, weights,
 * submission order), which the service determinism tests pin; a
 * single-tenant workload degenerates to the seed's exact
 * priority-then-FIFO order.
 *
 * The queue is also the admission-control valve. tryPush() refuses
 * with Full when the global bound is hit and with TenantQuota when
 * one tenant's queued share is exhausted — the server maps either
 * refusal to a Rejected job with the `resource` exit code plus a
 * deterministic retry-after hint, so an overloaded daemon sheds load
 * (and a noisy tenant sheds *first*) instead of growing without
 * bound. A per-tenant running cap makes pop() skip lanes whose
 * tenant already holds its share of executors, so fairness covers
 * execution, not just queue order.
 */

#ifndef QUEST_SERVICE_QUEUE_HH
#define QUEST_SERVICE_QUEUE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace quest::service {

struct Job;

/** Why tryPush() refused (Ok admits). */
enum class PushOutcome {
    Ok,
    Full,        //!< global capacity hit (or the queue is closed)
    TenantQuota, //!< this tenant's queued share is exhausted
};

/** The queue's admission and fairness knobs. */
struct QueueLimits
{
    size_t capacity = 64;       //!< global bound (admission valve)
    size_t tenantMaxQueued = 0; //!< per-tenant queued cap (0 = none)
    size_t tenantMaxRunning = 0; //!< per-tenant running cap (0 = none)

    /** Round-robin weights; absent tenants weigh 1. A tenant with
     *  weight w takes up to w consecutive pops per rotation turn. */
    std::map<std::string, uint32_t> tenantWeights;
};

/** Thread-safe bounded tenant-fair priority queue (file comment). */
class JobQueue
{
  public:
    explicit JobQueue(QueueLimits limits) : lim(std::move(limits)) {}

    /**
     * Admit @p job (keyed by its tenant, priority and submission
     * seq). A non-Ok outcome means nothing was queued: Full when the
     * global capacity is hit or the queue is closed, TenantQuota
     * when the job's tenant already holds its queued share.
     */
    PushOutcome tryPush(std::shared_ptr<Job> job);

    /**
     * Block until an *eligible* job is available or the queue is
     * closed. Returns the next job per band-then-WRR order — lanes
     * whose tenant is at its running cap are skipped — or nullptr
     * once the queue is closed *and* drained; executors use nullptr
     * as their exit signal, so a draining shutdown finishes queued
     * work first. The popped job's tenant is counted as running
     * until jobFinished().
     */
    std::shared_ptr<Job> pop();

    /** Release the running slot pop() charged to @p tenant (call
     *  once per popped job, after it reached a terminal state). */
    void jobFinished(const std::string &tenant);

    /** Remove a queued job by id (cancellation before it ever ran).
     *  Returns the job, or nullptr when it is not queued here. */
    std::shared_ptr<Job> remove(uint64_t jobId);

    /** Stop admitting; pop() returns queued jobs then nullptr. */
    void close();

    size_t depth() const;

    /** Queued jobs of @p tenant (the retry-hint input). */
    size_t queuedOf(const std::string &tenant) const;

    /** Running jobs charged to @p tenant. */
    size_t runningOf(const std::string &tenant) const;

    /**
     * 0-based position of a queued job in pop order; -1 if absent.
     * Computed by simulating the WRR rotation with running caps
     * ignored (caps depend on future completions), so it is exact
     * under pure queueing and best-effort under a running cap.
     */
    int positionOf(uint64_t jobId) const;

  private:
    /** One priority band: per-tenant FIFO lanes plus the rotation
     *  state. `order` lists tenants by first arrival into this band
     *  and is the deterministic rotation sequence; `cursor`/`credit`
     *  say whose turn it is and how much of its weight it has used. */
    struct Band
    {
        std::vector<std::string> order;
        size_t cursor = 0;
        uint32_t credit = 0;
        std::map<std::string, std::deque<std::shared_ptr<Job>>> lanes;
    };

    uint32_t weightOf(const std::string &tenant) const;
    bool eligibleUnlocked() const;
    void eraseLane(Band &band, const std::string &tenant);

    mutable std::mutex m;
    std::condition_variable cv;
    std::map<int32_t, Band, std::greater<int32_t>> bands;
    std::map<std::string, size_t> queuedCount;
    std::map<std::string, size_t> runningCount;
    size_t totalQueued = 0;
    QueueLimits lim;
    bool closed = false;
};

} // namespace quest::service

#endif // QUEST_SERVICE_QUEUE_HH
