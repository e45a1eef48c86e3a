#include "sim/arrivals.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace lia {
namespace sim {

PoissonProcess::PoissonProcess(double rate_per_second,
                               std::uint64_t seed)
    : rate_(rate_per_second), rng_(seed)
{
    LIA_ASSERT(rate_per_second > 0, "bad arrival rate");
}

double
PoissonProcess::next()
{
    const double u = std::max(rng_.uniform(), 1e-12);
    t_ += -std::log(u) / rate_;
    return t_;
}

} // namespace sim
} // namespace lia
