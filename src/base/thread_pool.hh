/**
 * @file
 * Deterministic parallel-for thread pool.
 *
 * A small persistent-worker pool for data-parallel kernels. The design
 * contract (see DESIGN.md §7) is that callers partition work into
 * *self-contained* units — whole output rows, column tiles, disjoint
 * element ranges — whose internal floating-point operation order never
 * depends on the thread count. Under that contract every result is
 * bit-identical at 1, 2, or N threads, which keeps the golden decode
 * and differential suites valid oracles over the parallel kernels.
 *
 * Sizing: an explicit constructor argument wins; zero means "use the
 * process default", which honours the LIA_THREADS environment variable
 * and falls back to std::thread::hardware_concurrency(). A shared
 * process-wide pool (ThreadPool::shared()) exists so every decode and
 * prefill pass reuses one set of workers instead of spawning per
 * call.
 *
 * Nested parallelFor calls (a parallel kernel invoked from inside a
 * worker) execute inline on the calling worker — no deadlock, no
 * oversubscription, and the inner loop's sequential order is exactly
 * the serial one.
 *
 * Concurrency: the pool holds a single in-flight job, so concurrent
 * parallelFor calls from different non-worker threads serialize on an
 * internal dispatch mutex — safe, but the second caller blocks until
 * the first loop drains. Callers wanting genuine loop-level overlap
 * should use separate pools.
 */

#ifndef LIA_BASE_THREAD_POOL_HH
#define LIA_BASE_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lia {
namespace base {

/**
 * Observer of drained parallelFor loops, for wall-clock profiling
 * (obs::KernelProfiler implements it; base cannot depend on obs, so
 * the interface lives here). Called on the thread that invoked
 * parallelFor, after the loop drains, with the loop's wall duration.
 * Nested (inlined) calls are not reported separately — their time is
 * part of the enclosing loop.
 */
class ParallelObserver
{
  public:
    virtual ~ParallelObserver() = default;

    virtual void onParallelFor(double seconds) = 0;
};

/** Persistent-worker pool running chunked parallel-for loops. */
class ThreadPool
{
  public:
    /** Range body: process [begin, end). */
    using RangeFn = std::function<void(std::int64_t, std::int64_t)>;

    /**
     * @param threads worker count including the calling thread;
     *                0 selects defaultThreadCount(). A pool of 1 runs
     *                everything inline and spawns no workers.
     */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Threads that execute work (workers plus the caller). */
    int threadCount() const
    {
        return static_cast<int>(workers_.size()) + 1;
    }

    /**
     * Run @p body over [0, n), split into contiguous chunks of at
     * least @p grain items. The caller participates and the call
     * returns once every chunk completed. Chunk boundaries depend only
     * on (n, grain, threadCount) — never on scheduling — and each
     * index lands in exactly one chunk, so bodies whose units are
     * independent produce thread-count-invariant results. The first
     * exception a chunk throws is rethrown on the calling thread after
     * the loop drains. Thread-safe: concurrent calls from different
     * threads serialize (see the class comment).
     */
    void parallelFor(std::int64_t n, std::int64_t grain,
                     const RangeFn &body);

    /**
     * parallelFor for latency-critical small loops (decode-GEMV tile
     * sweeps): identical chunking, identical results, different
     * waiting strategy. The caller spins a bounded budget on the
     * drain counter before parking on the condition variable, and
     * workers that just drained a low-latency job spin a bounded
     * budget for the next one before sleeping — so a stream of
     * back-to-back small loops (one per decode matmul) stops paying
     * the futex wake/park round trip on every dispatch. Falls back to
     * the exact blocking protocol when a budget expires, so nothing
     * ever busy-waits unboundedly. Observers see these loops through
     * the same onParallelFor hook.
     */
    void parallelForLowLatency(std::int64_t n, std::int64_t grain,
                               const RangeFn &body);

    /**
     * Process default: LIA_THREADS when set to a positive integer,
     * else std::thread::hardware_concurrency(), clamped to [1, 256].
     */
    static int defaultThreadCount();

    /** Process-wide pool sized by defaultThreadCount(). */
    static ThreadPool &shared();

    /** True on a thread currently executing pool work. */
    static bool insideWorker();

    /**
     * Install (or, with nullptr, remove) a wall-clock observer. The
     * observer must outlive its installation. When no observer is set
     * — the default — parallelFor never reads the clock, keeping the
     * unprofiled hot path untouched.
     */
    void setObserver(ParallelObserver *observer)
    {
        observer_.store(observer, std::memory_order_release);
    }

    ParallelObserver *observer() const
    {
        return observer_.load(std::memory_order_acquire);
    }

  private:
    /** One parallelFor invocation shared with the workers. */
    struct Job
    {
        const RangeFn *body = nullptr;
        std::int64_t n = 0;
        std::int64_t chunk = 0;        //!< items per chunk
        std::int64_t chunks = 0;
        std::atomic<std::int64_t> next{0};   //!< chunk claim cursor
        std::atomic<std::int64_t> done{0};   //!< chunks finished
        std::exception_ptr error;            //!< first failure
        std::mutex errorMutex;
    };

    void workerLoop();
    void runChunks(Job &job);

    /** Shared front half of both parallelFor flavours. */
    void parallelForImpl(std::int64_t n, std::int64_t grain,
                         const RangeFn &body, bool low_latency);

    /** The out-of-line dispatch path of parallelFor (workers woken). */
    void parallelForDispatch(std::int64_t n, std::int64_t grain,
                             const RangeFn &body, bool low_latency);

    std::vector<std::thread> workers_;
    std::atomic<ParallelObserver *> observer_{nullptr};
    std::mutex dispatchMutex_;         //!< serializes external callers
    std::mutex mutex_;
    std::condition_variable wake_;     //!< workers: new job / stop
    std::condition_variable finished_; //!< caller: job drained
    std::shared_ptr<Job> job_;         //!< active job (guarded)
    std::uint64_t generation_ = 0;     //!< bumps per job
    /**
     * Lock-free mirror of generation_, published after the job under
     * mutex_: what spinning workers poll instead of taking the lock.
     */
    std::atomic<std::uint64_t> generationHint_{0};
    /**
     * True while the most recent job was dispatched low-latency:
     * workers finishing such a job spin briefly for the next one
     * (decode streams issue many small loops back to back) instead of
     * parking immediately.
     */
    std::atomic<bool> spinHint_{false};
    bool stop_ = false;
};

} // namespace base
} // namespace lia

#endif // LIA_BASE_THREAD_POOL_HH
