/**
 * @file
 * Execution-backend interface of the serving engine.
 *
 * The serving engine prices every iteration analytically; a backend
 * additionally *executes* each committed iteration plan. The engine
 * invokes the backend at three points:
 *
 *  - onPlan(): once per scheduler-committed plan, after the request
 *    pools and the admission byte account reflect the plan but before
 *    simulated time advances — the backend performs the prefill
 *    chunks, decode entries and preemption transitions the plan
 *    lists. Every decode entry is a speculative draft + verify step
 *    of IterationPlan::specDrafts[i] drafts, a plain decode being the
 *    k = 0 case;
 *  - onFinish(): when a request completes and hands its KV back;
 *  - onDrain(): once the event queue empties, for leak checks.
 *
 * Right after onPlan() the engine resolves every decode entry, asking
 * acceptedDrafts() for each one with k > 0 (a k = 0 entry accepts
 * 0); a backend that runs no speculation answers -1 and the engine's
 * acceptance oracle decides instead.
 *
 * Backends must be passive with respect to scheduling: a run with a
 * backend attached must produce bit-identical scheduling decisions,
 * timings, and metrics to the analytical-only run (the differential
 * test harness enforces exactly this).
 */

#ifndef LIA_SERVE_BACKEND_HH
#define LIA_SERVE_BACKEND_HH

#include <vector>

#include "serve/admission.hh"
#include "serve/request.hh"
#include "serve/scheduler.hh"

namespace lia {
namespace serve {

/** Executes scheduler iteration plans alongside the pricing engine. */
class ExecutionBackend
{
  public:
    virtual ~ExecutionBackend() = default;

    /**
     * Execute one committed iteration plan. @p requests is the
     * engine's backing store (pre-execution bookkeeping: prefilled /
     * generated counters are advanced by the engine only when the
     * iteration completes); @p admission exposes the engine-side byte
     * account so backends can assert lockstep accounting. The plan's
     * specAccepted is still empty: the engine resolves speculation
     * after execution, and the reservations still hold the
     * worst-case k + 1 tokens per speculative entry.
     */
    virtual void onPlan(const IterationPlan &plan,
                        const std::vector<Request> &requests,
                        const AdmissionController &admission) = 0;

    /**
     * Accepted draft count, in [0, k], of @p request's speculative
     * step in the plan onPlan() just executed, or -1 when the backend
     * runs no speculation (the engine then falls back to its
     * acceptance oracle). A backend that wraps another must forward
     * this query, or the engine's oracle and the wrapped backend's
     * verified streams part ways.
     */
    virtual std::int64_t acceptedDrafts(const Request &request) const
    {
        (void)request;
        return -1;
    }

    /** @p request finished; its reservation was just released. */
    virtual void onFinish(const Request &request) = 0;

    /** The run drained; all backend KV state must be released. */
    virtual void onDrain() = 0;
};

} // namespace serve
} // namespace lia

#endif // LIA_SERVE_BACKEND_HH
