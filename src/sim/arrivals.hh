/**
 * @file
 * Request arrival processes for the serving simulations.
 */

#ifndef LIA_SIM_ARRIVALS_HH
#define LIA_SIM_ARRIVALS_HH

#include <cstdint>

#include "base/rng.hh"

namespace lia {
namespace sim {

/**
 * Deterministic Poisson arrival process: exponential inter-arrival
 * gaps drawn from an owned Rng. Shared by the serving engine and the
 * cluster router, so equal seeds mean equal arrival sequences across
 * serving models.
 */
class PoissonProcess
{
  public:
    PoissonProcess(double rate_per_second, std::uint64_t seed);

    /** Absolute time of the next arrival (monotonically increasing). */
    double next();

  private:
    double rate_;
    double t_ = 0;
    Rng rng_;
};

} // namespace sim
} // namespace lia

#endif // LIA_SIM_ARRIVALS_HH
