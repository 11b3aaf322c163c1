#include "passes.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>

#include "common/byte_utils.h"
#include "crypto/sha256.h"
#include "workloads/runner.h"

namespace hixbench
{

using hix::Tick;
namespace svc = hix::svc;
namespace sim = hix::sim;
namespace wl = hix::workloads;

namespace
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
msSince(Clock::time_point start)
{
    return secondsSince(start) * 1e3;
}

/** SHA-256 over a sequence of integers; the pass's simulated
 *  fingerprint. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        std::array<std::uint8_t, 8> b{};
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<std::uint8_t>(v >> (8 * i));
        sha_.update(b.data(), b.size());
    }
    void add(const std::string &s) { sha_.update(s); }
    std::string
    hex()
    {
        const auto d = sha_.finalize();
        return hix::toHex(d.data(), 16);
    }

  private:
    hix::crypto::Sha256 sha_;
};

/** The open-loop service configuration of svc-hix / svc-gdev. */
svc::ServiceConfig
serviceConfig(bool use_hix, std::uint64_t seed, const PassOptions &options)
{
    svc::ServiceConfig cfg;
    cfg.devices = options.devices;
    cfg.policy = svc::Policy::RoundRobin;
    cfg.useHix = use_hix;
    cfg.seed = seed;
    cfg.sessions = options.sessions;
    cfg.meanInterarrivalTicks = 4'000'000;
    cfg.tableCap = 64;
    cfg.appMix = options.appMix;
    cfg.userPopulation = 64;
    cfg.run.forkSessions = true;
    return cfg;
}

/** One fig-solo call: a workload on one runtime. */
struct SoloCall
{
    std::string label;  //!< "add-2048", "mul-11264", "BP", ...
    bool useHix = false;
    std::function<std::unique_ptr<wl::Workload>()> make;
};

/** The fig-solo calls in run order (each app: gdev, then HIX). */
std::vector<SoloCall>
soloCalls()
{
    std::vector<SoloCall> calls;
    auto both = [&](const std::string &label, auto make) {
        calls.push_back({label, false, make});
        calls.push_back({label, true, make});
    };
    for (std::uint32_t n : {2048u, 4096u, 8192u, 11264u})
        both("add-" + std::to_string(n),
             [n] { return wl::makeMatrixAdd(n); });
    for (std::uint32_t n : {2048u, 4096u, 8192u, 11264u})
        both("mul-" + std::to_string(n),
             [n] { return wl::makeMatrixMul(n); });
    for (const char *app :
         {"BP", "BFS", "GS", "HS", "LUD", "NW", "NN", "PF", "SRAD"})
        both(app, [app] { return wl::makeRodinia(app); });
    return calls;
}

/** Host-side totals the runner reports per call (RunOutcome). */
struct RunTotals
{
    double recordMs = 0;
    double scheduleMs = 0;
    double bootMs = 0;
    std::uint64_t tlbHits = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t iotlbHits = 0;
    std::uint64_t residentPages = 0;

    void
    add(const wl::RunOutcome &o)
    {
        recordMs += o.hostRecordMs;
        scheduleMs += o.hostScheduleMs;
        bootMs += o.hostBootMs;
        tlbHits += o.tlbHits;
        tlbMisses += o.tlbMisses;
        iotlbHits += o.iotlbHits;
        residentPages += o.residentPages;
    }
};

/** Timing-model totals over kept traces: op mix, busy time per op
 *  kind and per engine, and a timed re-run of sim::schedule. */
struct SimTotals
{
    double scheduleMs = 0;
    std::uint64_t ops = 0;
    std::array<std::uint64_t, sim::OpKindCount> kindOps{};
    std::array<Tick, sim::OpKindCount> kindBusy{};
    std::uint64_t ctxSwitches = 0;
    double gpuBusy = 0, gpuCap = 0;
    double h2dBusy = 0, h2dCap = 0;
    double d2hBusy = 0, d2hCap = 0;
    std::vector<std::string> errors;

    void
    add(const wl::RunOutcome &o, const hix::os::MachineConfig &machine)
    {
        if (!o.trace) {
            errors.push_back("traced call kept no trace");
            return;
        }
        const auto start = Clock::now();
        const sim::ScheduleResult again =
            sim::schedule(*o.trace, o.schedulerConfig);
        scheduleMs += msSince(start);
        if (again.makespan != o.ticks)
            errors.push_back("sim::schedule re-run makespan " +
                             std::to_string(again.makespan) +
                             " != run's " + std::to_string(o.ticks));
        ops += o.trace->size();
        for (const auto &op : o.trace->ops())
            kindOps[static_cast<std::size_t>(op.kind)] += 1;
        for (const auto &[kind, busy] : o.schedule.kindBusy)
            kindBusy[static_cast<std::size_t>(kind)] += busy;
        ctxSwitches += o.schedule.gpuCtxSwitches;

        const auto &t = machine.timing;
        const double devices = std::max(1, machine.gpuCount);
        const double span = static_cast<double>(o.schedule.makespan);
        gpuCap += devices * std::max(1u, t.gpuConcurrentContexts) * span;
        h2dCap += devices * std::max(1u, t.gpuDmaChannels) * span;
        d2hCap += devices * std::max(1u, t.gpuDmaChannels) * span;
        for (const auto &[res, usage] : o.schedule.usage) {
            const double busy = static_cast<double>(usage.busy);
            if (res.unit == sim::ResUnit::GpuCompute)
                gpuBusy += busy;
            else if (res.unit == sim::ResUnit::DmaHtoD)
                h2dBusy += busy;
            else if (res.unit == sim::ResUnit::DmaDtoH)
                d2hBusy += busy;
        }
    }
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Max number of [begin, end) intervals open at once. */
int
maxOverlap(const std::vector<std::pair<Tick, Tick>> &intervals)
{
    std::vector<std::pair<Tick, int>> events;
    for (const auto &[b, e] : intervals) {
        events.emplace_back(b, +1);
        events.emplace_back(e, -1);
    }
    std::sort(events.begin(), events.end());  // ends before begins
    int depth = 0, peak = 0;
    for (const auto &[tick, delta] : events) {
        depth += delta;
        peak = std::max(peak, depth);
    }
    return peak;
}

/** Layers every traced pass reports, from spans, runner totals and
 *  timing-model totals. */
void
commonLayers(PassResult &r, const Tracer &tracer, const RunTotals &run,
             const SimTotals &simt)
{
    const SpanTotals spans = tracer.totals();
    const double pass_ms = r.cpuS * 1e3;
    auto &L = r.layers;
    L["bench.span_coverage"] = ratio(spans.topLevelMs, pass_ms);

    L["workloads.run_ms"] = spans.ms("workloads.run");
    L["workloads.self_ms"] = spans.runSelfMs;
    L["workloads.repeat_share"] =
        spans.runCalls
            ? 1.0 - static_cast<double>(spans.distinctWorkloads) /
                        static_cast<double>(spans.runCalls)
            : 0.0;
    L["workloads.record_ms"] = run.recordMs;
    L["workloads.schedule_ms"] = run.scheduleMs;
    L["workloads.boot_ms"] = run.bootMs;

    L["hix.htod_ms"] = spans.ms("hix.htod");
    L["hix.dtoh_ms"] = spans.ms("hix.dtoh");
    L["hix.launch_ms"] = spans.ms("hix.launch");
    L["hix.alloc_ms"] = spans.ms("hix.alloc");
    L["hix.module_ms"] = spans.ms("hix.module");
    auto entry = [&](const char *name) {
        auto it = spans.byName.find(name);
        return it == spans.byName.end() ? SpanTotals::Entry{}
                                        : it->second;
    };
    L["hix.htod_bytes"] = static_cast<double>(entry("hix.htod").bytes);
    L["hix.dtoh_bytes"] = static_cast<double>(entry("hix.dtoh").bytes);
    L["hix.launches"] = static_cast<double>(entry("hix.launch").count);

    L["mem.tlb_hits"] = static_cast<double>(run.tlbHits);
    L["mem.tlb_misses"] = static_cast<double>(run.tlbMisses);
    L["mem.iotlb_hits"] = static_cast<double>(run.iotlbHits);
    L["mem.resident_pages"] = static_cast<double>(run.residentPages);

    L["sim.schedule_ms"] = simt.scheduleMs;
    L["sim.ops"] = static_cast<double>(simt.ops);
    L["sim.host_ns_per_op"] =
        ratio(simt.scheduleMs * 1e6, static_cast<double>(simt.ops));
    for (std::size_t k = 0; k < sim::OpKindCount; ++k) {
        const std::string kind =
            sim::opKindName(static_cast<sim::OpKind>(k));
        L["sim.ops." + kind] = static_cast<double>(simt.kindOps[k]);
        L["sim.busy_ms." + kind] = hix::ticksToMs(simt.kindBusy[k]);
    }
    L["sim.ctx_switches"] = static_cast<double>(simt.ctxSwitches);
    L["sim.util.gpu"] = ratio(simt.gpuBusy, simt.gpuCap);
    L["sim.util.dma_h2d"] = ratio(simt.h2dBusy, simt.h2dCap);
    L["sim.util.dma_d2h"] = ratio(simt.d2hBusy, simt.d2hCap);

    L["svc.probe_share"] = ratio(spans.ms("svc.probe"), pass_ms);
    L["svc.plan_share"] = ratio(spans.ms("svc.plan"), pass_ms);
    L["svc.reduce_share"] = ratio(spans.ms("svc.reduce"), pass_ms);

    r.errors.insert(r.errors.end(), simt.errors.begin(),
                    simt.errors.end());
}

/** runService's solo probe configuration for one app of the mix. */
wl::RunConfig
probeConfig(const svc::ServiceConfig &config)
{
    wl::RunConfig probe = config.run;
    probe.users = 1;
    probe.useHix = config.useHix;
    probe.machine.gpuCount = 1;
    probe.forkSessions = false;
    probe.streaming = false;
    probe.keepTrace = false;
    probe.traceJsonPath.clear();
    return probe;
}

/**
 * svc::runService, made from its public pieces in its order with a
 * span around each and every session's workload wrapped: solo
 * probes, planService, runSessionPool (trace kept), then the
 * percentile and utilization reduction.
 */
hix::Result<svc::ServiceOutcome>
runServiceTraced(const svc::ServiceConfig &config, Tracer &tracer,
                 RunTotals &run)
{
    if (config.sessions <= 0)
        return hix::errInvalidArgument("no sessions to serve");
    if (config.devices <= 0)
        return hix::errInvalidArgument("pool has no devices");
    for (const auto &app : config.appMix)
        if (!wl::makeRodinia(app))
            return hix::errInvalidArgument("unknown app in mix: " + app);

    svc::ServiceOutcome out;
    for (const auto &app : config.appMix) {
        auto scope = tracer.top("svc.probe");
        wl::RunConfig probe = probeConfig(config);
        probe.factory = [&tracer, app] {
            return tracer.wrap(wl::makeRodinia(app), -1);
        };
        auto solo = wl::runWorkload(probe);
        if (!solo.isOk())
            return solo.status();
        run.add(*solo);
        out.demandTicks.push_back(solo->ticks);
    }

    {
        auto scope = tracer.top("svc.plan");
        auto plan = svc::planService(config, out.demandTicks);
        if (!plan.isOk())
            return plan.status();
        out.plan = std::move(*plan);
    }

    {
        auto scope = tracer.top("workloads.pool");
        std::vector<wl::PoolSession> sessions;
        sessions.reserve(out.plan.sessions.size());
        for (std::size_t i = 0; i < out.plan.sessions.size(); ++i) {
            const svc::SessionPlan &s = out.plan.sessions[i];
            wl::PoolSession ps;
            ps.device = s.device;
            ps.admitTick = s.admit;
            ps.appId = s.appIndex;
            const std::string app = config.appMix[s.appIndex];
            ps.factory = [&tracer, app, i] {
                return tracer.wrap(wl::makeRodinia(app),
                                   static_cast<int>(i));
            };
            sessions.push_back(std::move(ps));
        }
        wl::RunConfig rc = config.run;
        rc.useHix = config.useHix;
        rc.machine.gpuCount = config.devices;
        rc.keepTrace = true;
        rc.factory = [app = config.appMix.front()] {
            return wl::makeRodinia(app);
        };
        auto pool = wl::runSessionPool(rc, sessions);
        if (!pool.isOk())
            return pool.status();
        out.pool = std::move(*pool);
        run.add(out.pool.run);
    }

    auto scope = tracer.top("svc.reduce");
    for (std::size_t i = 0; i < out.plan.sessions.size(); ++i)
        out.latency.push_back(out.pool.sessionFinish[i] -
                              out.plan.sessions[i].arrival);
    out.p50 = svc::percentileTick(out.latency, 50);
    out.p95 = svc::percentileTick(out.latency, 95);
    out.p99 = svc::percentileTick(out.latency, 99);
    hix::os::MachineConfig machine = config.run.machine;
    machine.gpuCount = config.devices;
    out.deviceUtil = svc::deviceUtilization(out.pool.run.schedule,
                                            machine, config.devices);
    out.dmaHtoDUtil = svc::dmaChannelUtilization(
        out.pool.run.schedule, machine, config.devices,
        sim::ResUnit::DmaHtoD);
    out.dmaDtoHUtil = svc::dmaChannelUtilization(
        out.pool.run.schedule, machine, config.devices,
        sim::ResUnit::DmaDtoH);
    return out;
}

/** Service metrics of a realized pool against its plan. */
void
serviceLayers(PassResult &r, const svc::ServiceConfig &config,
              const svc::ServiceOutcome &out)
{
    double wait = 0, latency = 0, planner_err = 0;
    std::vector<Tick> free_at(config.devices, 0);
    std::vector<std::pair<Tick, Tick>> occupied;
    for (std::size_t i = 0; i < out.plan.sessions.size(); ++i) {
        const svc::SessionPlan &s = out.plan.sessions[i];
        const Tick finish = out.pool.sessionFinish[i];
        wait += static_cast<double>(s.admit - s.arrival);
        latency += static_cast<double>(finish - s.arrival);
        // planService's estimate: each device serves its sessions in
        // admission order, one solo demand each.
        const Tick start = std::max(s.admit, free_at[s.device]);
        free_at[s.device] = start + out.demandTicks[s.appIndex];
        const double est = static_cast<double>(free_at[s.device]);
        planner_err += std::abs(est - static_cast<double>(finish));
        occupied.emplace_back(s.admit, finish);
    }
    auto &L = r.layers;
    L["svc.admit_wait_share"] = ratio(wait, latency);
    L["svc.admit_queue_max"] = out.plan.admitQueueDepthMax;
    L["svc.concurrency_max"] = maxOverlap(occupied);
    L["svc.planner_err"] = ratio(planner_err, latency);
}

PassResult
servicePass(bool use_hix, std::uint64_t seed, Tracer *tracer,
            const PassOptions &options)
{
    const svc::ServiceConfig config =
        serviceConfig(use_hix, seed, options);
    PassResult r;
    r.attempted = static_cast<std::uint64_t>(config.sessions);
    RunTotals run;

    const auto start = Clock::now();
    const std::int64_t cpu_start = processCpuNs();
    auto out = tracer ? runServiceTraced(config, *tracer, run)
                      : svc::runService(config);
    r.runS = secondsSince(start);
    r.cpuS = static_cast<double>(processCpuNs() - cpu_start) / 1e9;

    Digest digest;
    if (!out.isOk()) {
        r.failed = r.attempted;
        r.errors.push_back(out.status().toString());
        digest.add(out.status().toString());
        r.digest = digest.hex();
        return r;
    }
    for (Tick t : out->demandTicks)
        digest.add(t);
    for (std::size_t i = 0; i < out->plan.sessions.size(); ++i) {
        const svc::SessionPlan &s = out->plan.sessions[i];
        digest.add(s.arrival);
        digest.add(s.admit);
        digest.add(static_cast<std::uint64_t>(s.device));
        digest.add(static_cast<std::uint64_t>(s.appIndex));
        digest.add(out->pool.sessionFinish[i]);
    }
    digest.add(out->pool.run.ticks);
    digest.add(out->pool.run.gpuCtxSwitches);
    digest.add(out->p50);
    digest.add(out->p95);
    digest.add(out->p99);
    r.digest = digest.hex();
    r.simP50Ms = hix::ticksToMs(out->p50);
    r.simP99Ms = hix::ticksToMs(out->p99);
    r.simMakespanMs = hix::ticksToMs(out->pool.run.ticks);

    if (tracer) {
        hix::os::MachineConfig machine = config.run.machine;
        machine.gpuCount = config.devices;
        SimTotals simt;
        simt.add(out->pool.run, machine);
        commonLayers(r, *tracer, run, simt);
        serviceLayers(r, config, *out);
    }
    return r;
}

PassResult
soloPass(Tracer *tracer, const PassOptions &options)
{
    const std::vector<SoloCall> calls = soloCalls();
    PassResult r;
    r.attempted = calls.size();
    std::vector<std::optional<Tick>> ticks(calls.size());
    std::vector<wl::RunOutcome> outcomes;  // traced: examined after timing

    const auto start = Clock::now();
    const std::int64_t cpu_start = processCpuNs();
    for (std::size_t i = 0; i < calls.size(); ++i) {
        const SoloCall &call = calls[i];
        wl::RunConfig rc;
        rc.users = 1;
        rc.useHix = call.useHix;
        rc.keepTrace = tracer != nullptr;
        if (tracer) {
            const bool fail = call.label == options.failWorkload;
            rc.factory = [tracer, &call, i, fail] {
                return tracer->wrap(call.make(), static_cast<int>(i),
                                    fail);
            };
        } else {
            rc.factory = call.make;
        }
        std::optional<Tracer::Scope> scope;
        if (tracer)
            scope.emplace(*tracer, "workloads.solo",
                          static_cast<int>(i));
        auto out = wl::runWorkload(rc);
        scope.reset();
        if (!out.isOk()) {
            r.failed += 1;
            r.errors.push_back(call.label + (call.useHix ? "/hix: "
                                                         : "/gdev: ") +
                               out.status().toString());
            continue;
        }
        ticks[i] = out->ticks;
        if (tracer)
            outcomes.push_back(std::move(*out));
    }

    // Reduction: every call is one session arriving at tick 0.
    {
        std::optional<Tracer::Scope> scope;
        if (tracer)
            scope.emplace(*tracer, "svc.reduce", -1);
        std::vector<Tick> latency;
        Tick total = 0;
        for (const auto &t : ticks)
            if (t) {
                latency.push_back(*t);
                total += *t;
            }
        r.simP50Ms = hix::ticksToMs(svc::percentileTick(latency, 50));
        r.simP99Ms = hix::ticksToMs(svc::percentileTick(latency, 99));
        r.simMakespanMs = hix::ticksToMs(total);
        for (std::size_t i = 0; i + 1 < calls.size(); ++i)
            if (!calls[i].useHix && calls[i + 1].useHix &&
                calls[i].label == calls[i + 1].label && ticks[i] &&
                ticks[i + 1])
                r.hixOverRatio[calls[i].label] =
                    static_cast<double>(*ticks[i + 1]) /
                    static_cast<double>(*ticks[i]);
    }
    r.runS = secondsSince(start);
    r.cpuS = static_cast<double>(processCpuNs() - cpu_start) / 1e9;

    Digest digest;
    for (std::size_t i = 0; i < calls.size(); ++i) {
        digest.add(calls[i].label);
        digest.add(calls[i].useHix ? 1 : 0);
        digest.add(ticks[i] ? *ticks[i] : ~Tick(0));
    }
    r.digest = digest.hex();

    if (tracer) {
        RunTotals run;
        SimTotals simt;
        for (const wl::RunOutcome &out : outcomes) {
            run.add(out);
            simt.add(out, hix::os::MachineConfig{});
        }
        commonLayers(r, *tracer, run, simt);
        auto &L = r.layers;
        L["svc.admit_wait_share"] = 0;  // no admission: solo calls
        L["svc.admit_queue_max"] = 0;
        L["svc.concurrency_max"] = calls.empty() ? 0 : 1;
        L["svc.planner_err"] = 0;
    }
    return r;
}

}  // namespace

std::optional<WorkloadId>
parseWorkload(std::string_view name)
{
    if (name == "svc-hix")
        return WorkloadId::SvcHix;
    if (name == "svc-gdev")
        return WorkloadId::SvcGdev;
    if (name == "fig-solo")
        return WorkloadId::FigSolo;
    return std::nullopt;
}

PassResult
runPass(WorkloadId workload, std::uint64_t seed, Tracer *tracer,
        const PassOptions &options)
{
    switch (workload) {
    case WorkloadId::SvcHix:
        return servicePass(true, seed, tracer, options);
    case WorkloadId::SvcGdev:
        return servicePass(false, seed, tracer, options);
    case WorkloadId::FigSolo:
        return soloPass(tracer, options);
    }
    return {};
}

}  // namespace hixbench
