#include "resilience/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <memory>

namespace quest {

namespace {

std::atomic<unsigned> g_live_workers{0};
std::atomic<unsigned> g_peak_workers{0};

void
noteWorkerStarted()
{
    unsigned live =
        g_live_workers.fetch_add(1, std::memory_order_relaxed) + 1;
    unsigned peak = g_peak_workers.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_peak_workers.compare_exchange_weak(
               peak, live, std::memory_order_relaxed)) {
    }
}

void
noteWorkerStopped()
{
    g_live_workers.fetch_sub(1, std::memory_order_relaxed);
}

/**
 * One parallelFor call's shared state. Indices are claimed from
 * `next`; whoever claims an index runs it, so a claimed index is
 * always being actively executed by some thread — the caller's final
 * wait is only ever for in-flight executions, never for queued work,
 * which is what makes nested calls on one pool deadlock-free.
 */
struct Batch
{
    size_t count = 0;
    const std::function<void(size_t)> *fn = nullptr;
    const resilience::CancelToken *cancel = nullptr;
    std::atomic<size_t> next{0};

    std::mutex m;
    std::condition_variable doneCv;
    size_t done = 0;
    size_t firstBadIndex = static_cast<size_t>(-1);
    std::exception_ptr error;
};

void
runBatchIndex(Batch &b, size_t i)
{
    try {
        (*b.fn)(i);
    } catch (...) {
        std::lock_guard<std::mutex> lock(b.m);
        if (i < b.firstBadIndex) {
            b.firstBadIndex = i;
            b.error = std::current_exception();
        }
    }
    std::lock_guard<std::mutex> lock(b.m);
    if (++b.done == b.count)
        b.doneCv.notify_all();
}

void
drainBatch(Batch &b)
{
    for (;;) {
        // Claim first: the caller's CancelToken is only known to be
        // alive while this thread holds an index not yet counted done
        // (parallelFor cannot return before then). A helper that
        // starts after the batch has finished claims an out-of-range
        // index and never reads the token.
        size_t i = b.next.fetch_add(1, std::memory_order_relaxed);
        if (i >= b.count)
            return;
        if (b.cancel && b.cancel->cancelled()) {
            // Retire the claimed index and every unclaimed one without
            // running them. The exchange hands this drainer the range
            // [j, count); other drainers racing here (or past the end
            // on the normal path) observe j >= count and account
            // nothing twice.
            size_t j = b.next.exchange(b.count, std::memory_order_relaxed);
            size_t retired = 1 + (j < b.count ? b.count - j : 0);
            std::lock_guard<std::mutex> lock(b.m);
            b.done += retired;
            if (b.done == b.count)
                b.doneCv.notify_all();
            return;
        }
        runBatchIndex(b, i);
    }
}

} // namespace

ThreadPool::ThreadPool(unsigned threads)
{
    workers.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
        // Count on the constructing thread so liveWorkers() is exact
        // the moment the constructor returns; the worker uncounts
        // itself, which join() in the destructor happens-after.
        noteWorkerStarted();
        workers.emplace_back([this]() {
            workerLoop();
            noteWorkerStopped();
        });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
    }
    wakeup.notify_all();
    for (auto &worker : workers)
        worker.join();

    // With no workers, submitted jobs would otherwise be dropped.
    while (!jobs.empty()) {
        jobs.front()();
        jobs.pop();
    }
}

unsigned
ThreadPool::hardwareConcurrency()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

unsigned
ThreadPool::liveWorkers()
{
    return g_live_workers.load(std::memory_order_relaxed);
}

unsigned
ThreadPool::peakLiveWorkers()
{
    return g_peak_workers.load(std::memory_order_relaxed);
}

void
ThreadPool::resetPeakLiveWorkers()
{
    g_peak_workers.store(g_live_workers.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
}

void
ThreadPool::enqueue(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        jobs.push(std::move(job));
    }
    wakeup.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex);
            wakeup.wait(lock, [this]() { return stopping || !jobs.empty(); });
            if (stopping && jobs.empty())
                return;
            job = std::move(jobs.front());
            jobs.pop();
        }
        job();
    }
}

void
ThreadPool::parallelFor(size_t count, const std::function<void(size_t)> &fn,
                        const resilience::CancelToken *cancel)
{
    if (count == 0)
        return;

    auto batch = std::make_shared<Batch>();
    batch->count = count;
    batch->fn = &fn;
    batch->cancel = cancel;

    // Helper jobs hold the batch alive; one that starts after the
    // batch is finished claims an out-of-range index and returns
    // without touching `fn` or `cancel`, whose lifetimes end when this
    // call returns. Both are read only by a thread holding a claimed
    // index that is not yet counted done, and done == count implies
    // every such thread has finished with them.
    const size_t helpers =
        std::min(count, static_cast<size_t>(workers.size()));
    for (size_t h = 0; h < helpers; ++h)
        enqueue([batch]() { drainBatch(*batch); });

    drainBatch(*batch);

    std::unique_lock<std::mutex> lock(batch->m);
    batch->doneCv.wait(lock,
                       [&]() { return batch->done == batch->count; });
    if (batch->error)
        std::rethrow_exception(batch->error);
}

} // namespace quest
