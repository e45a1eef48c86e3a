/**
 * @file
 * Integration: the engine's closed-form stage estimates against the
 * discrete-event simulator executing the same plan.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "baselines/presets.hh"
#include "core/optimizer.hh"
#include "hw/system.hh"
#include "sim/pipeline.hh"

namespace {

using namespace lia;
using namespace lia::core;
using lia::model::Stage;
using lia::model::Workload;

struct Case
{
    std::int64_t batch;
    std::int64_t context;
    Stage stage;
};

/**
 * A case's stable label, e.g. Decode_B64_L256: it names the test and
 * prints the parameter. Without it gtest prints the struct's bytes,
 * padding included, which differ from build to build, and CTest puts
 * that print into the test's name.
 */
std::string
label(const Case &c)
{
    return std::string(c.stage == Stage::Decode ? "Decode" : "Prefill") +
           "_B" + std::to_string(c.batch) + "_L" +
           std::to_string(c.context);
}

void
PrintTo(const Case &c, std::ostream *os)
{
    *os << label(c);
}

class AnalyticalVsDesTest : public ::testing::TestWithParam<Case>
{
  protected:
    hw::SystemConfig sys = hw::sprA100();
    model::ModelConfig m = model::opt30b();
};

TEST_P(AnalyticalVsDesTest, OptimalPlanAgreesWithinTolerance)
{
    const Case c = GetParam();
    CostModel cm(sys, m, {});
    PolicyOptimizer opt(cm);
    Workload w{c.stage, c.batch, c.context};
    const auto choice = opt.optimize(w);

    const double closed_form =
        static_cast<double>(m.numLayers) *
        choice.timing.overlappedTime();
    const auto des = sim::simulateStage(cm, w, choice.policy,
                                        choice.policy, 0);
    EXPECT_NEAR(des.makespan, closed_form, 0.15 * closed_form)
        << choice.policy.toString();
}

INSTANTIATE_TEST_SUITE_P(
    OperatingPoints, AnalyticalVsDesTest,
    ::testing::Values(Case{1, 256, Stage::Decode},
                      Case{64, 256, Stage::Decode},
                      Case{900, 128, Stage::Decode},
                      Case{1, 512, Stage::Prefill},
                      Case{64, 256, Stage::Prefill},
                      Case{8, 1024, Stage::Prefill}),
    [](const ::testing::TestParamInfo<Case> &info) {
        return label(info.param);
    });

TEST(AnalyticalVsDesResidency, ResidentPrefixMatchesEngineMixing)
{
    // DES with R resident layers should land between the all-streamed
    // and all-resident closed forms.
    const auto sys = hw::sprA100();
    const auto m = model::opt30b();
    CostModel cm(sys, m, {});
    Workload w{Stage::Decode, 1, 256};
    const Policy policy = Policy::fullGpu();
    const double layers = static_cast<double>(m.numLayers);

    const double all_stream =
        layers * cm.layerTiming(w, policy, false).overlappedTime();
    const double all_res =
        layers * cm.layerTiming(w, policy, true).overlappedTime();
    const auto des = sim::simulateStage(cm, w, policy, policy, 24);
    EXPECT_LT(des.makespan, all_stream);
    EXPECT_GT(des.makespan, all_res);
}

TEST(AnalyticalVsDesContention, DesCapturesLinkContention)
{
    // A policy that streams parameters *and* KV saturates the link;
    // DES must reflect the shared-channel serialisation that the
    // closed form models as additive occupancy.
    const auto sys = hw::sprA100();
    const auto m = model::opt30b();
    CostModel cm(sys, m, {});
    Workload w{Stage::Decode, 64, 512};
    const Policy policy = Policy::fullGpu();
    const auto timing = cm.layerTiming(w, policy);
    const auto des = sim::simulateStage(cm, w, policy, policy, 0);
    const double link_occupancy =
        static_cast<double>(m.numLayers) *
        (timing.prefetchPcieTime + timing.inlinePcieTime);
    EXPECT_GE(des.makespan, link_occupancy * 0.999);
}

} // namespace
