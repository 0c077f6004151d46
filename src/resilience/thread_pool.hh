/**
 * @file
 * Fixed-size thread pool used to synthesize circuit blocks in
 * parallel (the paper runs block synthesis on up to ten nodes; we use
 * threads on one node).
 *
 * parallelFor is cooperative: the calling thread claims and runs
 * batch indices alongside the workers, and a worker that calls
 * parallelFor on its own pool drains its nested batch itself instead
 * of blocking on queued tasks. That makes one pool safely shareable
 * across nesting levels — the QUEST pipeline threads a single thread
 * budget through both block-level and instantiation-level parallelism
 * (QuestConfig::threads), so the process never oversubscribes the
 * hardware no matter how the levels nest.
 *
 * parallelFor optionally takes a CancelToken: once the token fires,
 * no further index starts. A thread checks the token after claiming
 * an index and before running it; indices already running complete
 * (the callback is expected to poll its own Budget at iteration
 * boundaries), so cancellation latency is bounded by one callback
 * invocation, and the done-accounting stays exact.
 */

#ifndef QUEST_RESILIENCE_THREAD_POOL_HH
#define QUEST_RESILIENCE_THREAD_POOL_HH

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "resilience/budget.hh"

namespace quest {

/** Simple work-queue thread pool with cooperative parallelFor. */
class ThreadPool
{
  public:
    /**
     * Spawn exactly @p threads workers. Zero is valid: no workers are
     * spawned and parallelFor runs every index inline on the caller —
     * the natural encoding of "a budget of one thread" given that the
     * caller always participates.
     */
    explicit ThreadPool(unsigned threads);

    /** Drains outstanding work, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** std::thread::hardware_concurrency, floored at one. */
    static unsigned hardwareConcurrency();

    /** Enqueue a task and get a future for its result. */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using Result = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<Result()>>(
            std::forward<F>(fn));
        std::future<Result> result = task->get_future();
        enqueue([task]() { (*task)(); });
        return result;
    }

    /**
     * Run @p fn(i) for i in [0, count) and wait for all of them —
     * even when some throw, so @p fn is never invoked after the call
     * returns. The lowest failing index's exception is rethrown once
     * every index has finished.
     *
     * The caller participates: indices are claimed from a shared
     * atomic cursor by the workers and the calling thread alike, so
     * at most size() + 1 threads run @p fn concurrently and nested
     * calls on the same pool make progress even when every worker is
     * busy.
     *
     * When @p cancel is non-null and fires mid-batch, indices not yet
     * started are skipped (never invoked); parallelFor still waits
     * for every in-flight invocation, returns normally, and leaves it
     * to the caller to observe the token. @p cancel need only outlive
     * the call: no pool thread reads it afterwards. Exceptions thrown
     * by @p fn are rethrown as usual.
     */
    void parallelFor(size_t count, const std::function<void(size_t)> &fn,
                     const resilience::CancelToken *cancel = nullptr);

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers.size()); }

    /** @name Process-wide worker accounting (regression tests).
     *  Counts live workers across every ThreadPool instance. */
    /// @{
    static unsigned liveWorkers();
    static unsigned peakLiveWorkers();
    static void resetPeakLiveWorkers();
    /// @}

  private:
    void enqueue(std::function<void()> job);
    void workerLoop();

    std::vector<std::thread> workers;
    std::queue<std::function<void()>> jobs;
    std::mutex mutex;
    std::condition_variable wakeup;
    bool stopping = false;
};

} // namespace quest

#endif // QUEST_RESILIENCE_THREAD_POOL_HH
