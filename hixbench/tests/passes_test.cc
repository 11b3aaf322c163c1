// The benchmark's own checks: the span wrapper is transparent (a
// traced pass reproduces the untraced simulated outputs), failures are
// counted per call, and spans nest the way the layer metrics assume.

#include <gtest/gtest.h>

#include "passes.h"
#include "workloads/runner.h"

using namespace hixbench;

namespace
{

PassOptions
smallPool()
{
    PassOptions o;
    o.sessions = 24;
    o.devices = 2;
    return o;
}

}  // namespace

TEST(HixBench, TracedServicePassMatchesUntraced)
{
    for (WorkloadId w : {WorkloadId::SvcHix, WorkloadId::SvcGdev}) {
        const PassResult plain = runPass(w, 7, nullptr, smallPool());
        Tracer tracer;
        const PassResult traced = runPass(w, 7, &tracer, smallPool());
        ASSERT_TRUE(plain.errors.empty()) << plain.errors.front();
        ASSERT_TRUE(traced.errors.empty()) << traced.errors.front();
        EXPECT_EQ(plain.failed, 0u);
        EXPECT_EQ(plain.attempted, 24u);
        EXPECT_EQ(plain.digest, traced.digest);
        EXPECT_EQ(plain.simP50Ms, traced.simP50Ms);
        EXPECT_EQ(plain.simP99Ms, traced.simP99Ms);
        EXPECT_EQ(plain.simMakespanMs, traced.simMakespanMs);

        const auto &L = traced.layers;
        EXPECT_GT(L.at("bench.span_coverage"), 0.9);
        EXPECT_LE(L.at("bench.span_coverage"), 1.0);
        EXPECT_GT(L.at("hix.htod_bytes"), 0);
        EXPECT_GT(L.at("hix.launches"), 0);
        EXPECT_GT(L.at("sim.ops"), 0);
        EXPECT_GT(L.at("svc.concurrency_max"), 0);
        // 3 probes + 24 sessions over 3 distinct apps.
        EXPECT_DOUBLE_EQ(L.at("workloads.repeat_share"), 1.0 - 3.0 / 27);
        EXPECT_LE(L.at("workloads.self_ms"), L.at("workloads.run_ms"));
    }
}

TEST(HixBench, SeedChangesTheServiceStream)
{
    const PassResult a = runPass(WorkloadId::SvcGdev, 1, nullptr,
                                 smallPool());
    const PassResult b = runPass(WorkloadId::SvcGdev, 2, nullptr,
                                 smallPool());
    EXPECT_NE(a.digest, b.digest);
    const PassResult again = runPass(WorkloadId::SvcGdev, 1, nullptr,
                                     smallPool());
    EXPECT_EQ(a.digest, again.digest);
}

TEST(HixBench, TracedSoloPassMatchesUntraced)
{
    const PassResult plain = runPass(WorkloadId::FigSolo, 1, nullptr);
    Tracer tracer;
    const PassResult traced = runPass(WorkloadId::FigSolo, 1, &tracer);
    EXPECT_EQ(plain.failed, 0u);
    EXPECT_EQ(plain.attempted, 34u);  // 17 workloads x 2 runtimes
    EXPECT_EQ(plain.digest, traced.digest);
    ASSERT_EQ(plain.hixOverRatio.size(), 17u);
    EXPECT_EQ(plain.hixOverRatio, traced.hixOverRatio);
    EXPECT_GT(plain.hixOverRatio.at("PF"), 2.0);
    EXPECT_LT(plain.hixOverRatio.at("NN"), 1.0);
    EXPECT_GT(plain.simP99Ms, plain.simP50Ms);
    EXPECT_GT(plain.simMakespanMs, plain.simP99Ms);
    // Both runtimes build the same inputs: half the calls repeat.
    EXPECT_DOUBLE_EQ(traced.layers.at("workloads.repeat_share"), 0.5);
    EXPECT_GT(traced.layers.at("bench.span_coverage"), 0.95);
}

TEST(HixBench, FailedCallCountsItsSessionsAndOthersStillRun)
{
    PassOptions o;
    o.failWorkload = "add-2048";
    Tracer tracer;
    const PassResult r = runPass(WorkloadId::FigSolo, 1, &tracer, o);
    EXPECT_EQ(r.attempted, 34u);
    EXPECT_EQ(r.failed, 2u);
    EXPECT_EQ(r.errors.size(), 2u);
    EXPECT_EQ(r.hixOverRatio.count("add-2048"), 0u);
    EXPECT_EQ(r.hixOverRatio.size(), 16u);

    PassOptions bad = smallPool();
    bad.appMix = {"NN", "no-such-app"};
    const PassResult svc = runPass(WorkloadId::SvcHix, 1, nullptr, bad);
    EXPECT_EQ(svc.attempted, 24u);
    EXPECT_EQ(svc.failed, 24u);
    EXPECT_FALSE(svc.errors.empty());
}

TEST(HixBench, SpansNestUnderTheirCall)
{
    Tracer tracer;
    {
        auto scope = tracer.top("workloads.solo", 0);
        hix::workloads::RunConfig rc;
        rc.users = 1;
        rc.useHix = true;
        rc.factory = [&tracer] {
            return tracer.wrap(hix::workloads::makeRodinia("NN"), 0);
        };
        ASSERT_TRUE(hix::workloads::runWorkload(rc).isOk());
    }
    const auto spans = tracer.flatten();
    ASSERT_GT(spans.size(), 2u);
    EXPECT_STREQ(spans[0].name, "workloads.solo");
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_STREQ(spans[1].name, "workloads.run");
    EXPECT_EQ(spans[1].parent, 0);
    for (std::size_t i = 2; i < spans.size(); ++i) {
        EXPECT_EQ(spans[i].parent, 1);
        EXPECT_GE(spans[i].startNs, spans[1].startNs);
        EXPECT_LE(spans[i].endNs, spans[1].endNs);
    }
    EXPECT_LE(spans[1].endNs, spans[0].endNs);

    const SpanTotals t = tracer.totals();
    EXPECT_EQ(t.runCalls, 1u);
    double children = 0;
    for (const auto &[name, e] : t.byName)
        if (name.rfind("hix.", 0) == 0)
            children += e.ms;
    EXPECT_NEAR(t.runSelfMs, t.ms("workloads.run") - children, 1e-6);
}
