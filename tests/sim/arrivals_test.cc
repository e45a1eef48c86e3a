/**
 * @file
 * Tests for the request arrival processes.
 */

#include <gtest/gtest.h>

#include "sim/arrivals.hh"

namespace {

using lia::sim::PoissonProcess;

TEST(PoissonProcessTest, DeterministicMonotoneAndCalibrated)
{
    // The serving engine and the cluster router share this generator,
    // so equal seeds must mean equal arrival sequences.
    PoissonProcess a(0.5, 42), b(0.5, 42), c(0.5, 43);
    double prev = 0, sum = 0;
    bool seeds_differ = false;
    const int n = 20'000;
    for (int i = 0; i < n; ++i) {
        const double t = a.next();
        EXPECT_DOUBLE_EQ(t, b.next());
        seeds_differ = seeds_differ || t != c.next();
        EXPECT_GT(t, prev);
        sum += t - prev;
        prev = t;
    }
    EXPECT_TRUE(seeds_differ);
    EXPECT_NEAR(sum / n, 2.0, 0.05);  // mean gap = 1/rate
}

} // namespace
