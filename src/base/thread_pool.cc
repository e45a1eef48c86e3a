#include "base/thread_pool.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>

#include "base/logging.hh"

namespace lia {
namespace base {

namespace {

/** Set while a thread is executing chunks of some pool's job. */
thread_local bool tlsInsideWorker = false;

/**
 * Spin budgets, in iterations of cpuRelax. One x86 `pause` measured
 * ~25 ns on an AVX-512 Xeon (Sapphire Rapids class; older cores take
 * ~5-10 ns), so workers wait up to ~0.8 ms (1 << 15 pauses) for the
 * next low-latency job before parking, and the caller waits up to
 * ~0.4 ms (1 << 14) for stragglers of the loop it just helped drain.
 * Both are bounded: an expired budget falls back to the blocking
 * protocol, so an idle pool always ends up parked on the condition
 * variable exactly as before. On a single-core host both budgets are
 * zero — spinning only helps when the spinner and the thread it waits
 * for occupy different cores; on one core it steals the very core the
 * other side needs and degrades straight to the blocking protocol
 * anyway, just later.
 */
inline int
workerSpinBudget()
{
    static const int budget =
        std::thread::hardware_concurrency() > 1 ? 1 << 15 : 0;
    return budget;
}

inline int
callerSpinBudget()
{
    static const int budget =
        std::thread::hardware_concurrency() > 1 ? 1 << 14 : 0;
    return budget;
}

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield" ::: "memory");
#else
    std::this_thread::yield();
#endif
}

} // namespace

bool
ThreadPool::insideWorker()
{
    return tlsInsideWorker;
}

int
ThreadPool::defaultThreadCount()
{
    if (const char *env = std::getenv("LIA_THREADS")) {
        char *end = nullptr;
        const long parsed = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && parsed >= 1)
            return static_cast<int>(std::min(parsed, 256l));
        LIA_WARN("ignoring unparsable LIA_THREADS value \"", env, "\"");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(hw, 1u, 256u));
}

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool pool(defaultThreadCount());
    return pool;
}

ThreadPool::ThreadPool(int threads)
{
    if (threads <= 0)
        threads = defaultThreadCount();
    workers_.reserve(static_cast<std::size_t>(threads - 1));
    for (int t = 1; t < threads; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::runChunks(Job &job)
{
    const bool outer = !tlsInsideWorker;
    tlsInsideWorker = true;
    while (true) {
        const std::int64_t c =
            job.next.fetch_add(1, std::memory_order_relaxed);
        if (c >= job.chunks)
            break;
        const std::int64_t begin = c * job.chunk;
        const std::int64_t end = std::min(job.n, begin + job.chunk);
        try {
            (*job.body)(begin, end);
        } catch (...) {
            std::lock_guard<std::mutex> lock(job.errorMutex);
            if (!job.error)
                job.error = std::current_exception();
        }
        job.done.fetch_add(1, std::memory_order_acq_rel);
    }
    if (outer)
        tlsInsideWorker = false;
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0;
    while (true) {
        // Hold a shared_ptr while working: a straggler that dequeues
        // the job as the caller retires it must not touch freed state.
        std::shared_ptr<Job> job;
        // Low-latency phase: after a low-latency job, poll the
        // generation mirror briefly before taking the lock — if the
        // next dispatch lands inside the budget, the CV wait below
        // finds its predicate already true and never parks (no futex
        // round trip). Expiry, stop, and spurious wake all degrade to
        // the plain blocking wait.
        if (spinHint_.load(std::memory_order_relaxed)) {
            for (int i = 0, budget = workerSpinBudget(); i < budget;
                 ++i) {
                if (generationHint_.load(std::memory_order_acquire) !=
                    seen) {
                    break;
                }
                cpuRelax();
            }
        }
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return stop_ || (job_ != nullptr && generation_ != seen);
            });
            if (stop_)
                return;
            seen = generation_;
            job = job_;
        }
        runChunks(*job);
        // Wake the caller in case this worker retired the final chunk.
        // The empty critical section is the classic lost-wakeup fence:
        // job.done is incremented outside mutex_, so without it the
        // final increment + notify could land between the caller's
        // predicate check (made under the lock) and its block, and the
        // caller would sleep forever. Taking the mutex here forces the
        // worker to wait until the caller either re-reads done under
        // the lock or is parked where notify_all can reach it.
        {
            std::lock_guard<std::mutex> lock(mutex_);
        }
        finished_.notify_all();
    }
}

void
ThreadPool::parallelFor(std::int64_t n, std::int64_t grain,
                        const RangeFn &body)
{
    parallelForImpl(n, grain, body, false);
}

void
ThreadPool::parallelForLowLatency(std::int64_t n, std::int64_t grain,
                                  const RangeFn &body)
{
    parallelForImpl(n, grain, body, true);
}

void
ThreadPool::parallelForImpl(std::int64_t n, std::int64_t grain,
                            const RangeFn &body, bool low_latency)
{
    if (n <= 0)
        return;
    grain = std::max<std::int64_t>(grain, 1);
    // Inline when serial, nested, or too small to amortise a dispatch.
    // All three conditions are independent of scheduling, and chunk
    // bodies are self-contained, so the inline path is bit-identical.
    if (workers_.empty() || tlsInsideWorker || n <= grain) {
        body(0, n);
        return;
    }

    // Nested calls never reach here (inline path above), so an
    // observed loop is always a top-level one and never double-counts.
    ParallelObserver *obs = observer_.load(std::memory_order_acquire);
    if (obs) {
        const auto start = std::chrono::steady_clock::now();
        parallelForDispatch(n, grain, body, low_latency);
        const auto end = std::chrono::steady_clock::now();
        obs->onParallelFor(
            std::chrono::duration<double>(end - start).count());
        return;
    }
    parallelForDispatch(n, grain, body, low_latency);
}

void
ThreadPool::parallelForDispatch(std::int64_t n, std::int64_t grain,
                                const RangeFn &body, bool low_latency)
{

    // The pool has a single job slot, so concurrent external callers
    // take turns: the second blocks here until the first drains. A
    // body that re-enters parallelFor never reaches this lock — the
    // caller thread is marked tlsInsideWorker while running chunks,
    // so nested calls take the inline path above.
    std::lock_guard<std::mutex> dispatch(dispatchMutex_);

    auto job = std::make_shared<Job>();
    job->body = &body;
    job->n = n;
    // A few chunks per thread for load balance; boundaries depend only
    // on (n, grain, threadCount), keeping the partition deterministic.
    const std::int64_t target =
        static_cast<std::int64_t>(threadCount()) * 4;
    job->chunk = std::max(grain, (n + target - 1) / target);
    job->chunks = (n + job->chunk - 1) / job->chunk;

    // Publish the spin policy before the job becomes visible: a worker
    // draining this job reads it when deciding how to wait for the
    // next one.
    spinHint_.store(low_latency, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = job;
        ++generation_;
        generationHint_.store(generation_, std::memory_order_release);
    }
    wake_.notify_all();
    runChunks(*job);
    if (low_latency) {
        // Straggler wait: the caller just drained its own share, so
        // the remaining chunks are already in flight on the workers.
        // Spin a bounded budget on the drain counter; on success the
        // wait below finds its predicate true and never parks.
        for (int i = 0, budget = callerSpinBudget();
             i < budget && job->done.load(std::memory_order_acquire) !=
                               job->chunks;
             ++i) {
            cpuRelax();
        }
    }
    {
        std::unique_lock<std::mutex> lock(mutex_);
        finished_.wait(lock, [&] {
            return job->done.load(std::memory_order_acquire) ==
                   job->chunks;
        });
        if (job_ == job)
            job_.reset();
    }
    if (job->error)
        std::rethrow_exception(job->error);
}

} // namespace base
} // namespace lia
