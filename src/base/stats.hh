/**
 * @file
 * Summary statistics over sample sets.
 *
 * Used by the serving engine and the examples to report latency
 * distributions (mean / percentiles / extremes) the way the paper's
 * latency-driven scenarios are judged.
 *
 * SampleStats keeps every sample so it can answer order-statistic
 * queries (p50/p95/p99); it is the value type used by serve::Metrics
 * and obs::KernelProfiler. Percentile math lives only here: anything
 * needing a distribution should hold a SampleStats.
 */

#ifndef LIA_BASE_STATS_HH
#define LIA_BASE_STATS_HH

#include <cstddef>
#include <vector>

namespace lia {

/** Accumulates samples and reports distribution summaries. */
class SampleStats
{
  public:
    /** Add one sample. */
    void add(double value);

    /** Add many samples. */
    void add(const std::vector<double> &values);

    /**
     * Absorb every sample of @p other, so percentiles afterwards are
     * order statistics of the union — how per-replica latency
     * distributions aggregate into fleet distributions
     * (serve::Metrics::merge). Merging an empty set is a no-op.
     */
    void merge(const SampleStats &other);

    /** The raw samples, insertion-ordered until a percentile query
     *  sorts them in place. */
    const std::vector<double> &samples() const { return samples_; }

    std::size_t count() const { return samples_.size(); }
    bool empty() const { return samples_.empty(); }

    double mean() const;
    double min() const;
    double max() const;
    double stddev() const;

    /**
     * Percentile in [0, 100] via linear interpolation between order
     * statistics.
     */
    double percentile(double pct) const;

    /** Convenience accessors for the common service percentiles. */
    double p50() const { return percentile(50.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }
    double p999() const { return percentile(99.9); }

  private:
    /** Sort samples lazily before order-statistic queries. */
    void ensureSorted() const;

    std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/**
 * Pollaczek–Khinchine mean wait of an M/G/1 FIFO queue: Poisson
 * arrivals at @p rate per second onto one server whose service times
 * follow @p service's samples, W = rate·E[S²] / (2(1 − ρ)) with load
 * ρ = rate·E[S]. +inf when ρ >= 1, where the queue has no steady
 * state.
 */
double pollaczekKhinchineWait(double rate, const SampleStats &service);

} // namespace lia

#endif // LIA_BASE_STATS_HH
