/**
 * @file
 * The benchmark's workloads and the pass that runs each of them once.
 *
 * svc-hix / svc-gdev: svc::runService on the open-loop configuration
 * of bench_service (4 devices, NN/LUD/BFS, 1000 sessions, 64 users,
 * tableCap 64, round-robin, forked sessions, Fermi engines), with the
 * arrival seed taken from the command line.
 *
 * fig-solo: Figures 6 and 7 — matrix add/mul at the four paper sizes
 * and the nine Rodinia apps, one user each, cold boot, on gdev and
 * HIX, each (app, runtime) run once.
 *
 * An untraced pass calls the program the way a user does. A traced
 * pass makes the same calls through their public pieces with span
 * recording around them (see tracer.h) and must reproduce the
 * untraced pass's simulated outputs bit for bit; the digest makes
 * that checkable across processes.
 */

#ifndef HIXBENCH_PASSES_H_
#define HIXBENCH_PASSES_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "svc/service.h"
#include "tracer.h"

namespace hixbench
{

enum class WorkloadId
{
    SvcHix,
    SvcGdev,
    FigSolo,
};

std::optional<WorkloadId> parseWorkload(std::string_view name);

/** Knobs the benchmark's own tests shrink; the benchmark uses the
 *  defaults. */
struct PassOptions
{
    int sessions = 1000;
    int devices = 4;
    std::vector<std::string> appMix = {"NN", "LUD", "BFS"};
    /** Traced fig-solo: every call of this workload fails (fault
     *  injection). */
    std::string failWorkload;
};

/** What one pass produced. */
struct PassResult
{
    /** Host wall-clock of the pass, s. */
    double runS = 0;
    /** Host CPU time of the pass, all threads, s. */
    double cpuS = 0;
    /** Sessions attempted / in failed calls. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    /** Hex digest of every simulated output of the pass. */
    std::string digest;
    /** Simulated session latency percentiles and pool makespan. For
     *  fig-solo every call is one session arriving at tick 0 and the
     *  makespan is the calls' total simulated time. */
    double simP50Ms = 0;
    double simP99Ms = 0;
    double simMakespanMs = 0;
    /** fig-solo: HIX/gdev simulated-time ratio per label. */
    std::map<std::string, double> hixOverRatio;
    /** Traced passes only: per-layer metrics by name. */
    std::map<std::string, double> layers;
};

/**
 * Run @p workload once. @p tracer non-null = traced pass: spans go to
 * the tracer and PassResult::layers is filled.
 */
PassResult runPass(WorkloadId workload, std::uint64_t seed,
                   Tracer *tracer, const PassOptions &options = {});

}  // namespace hixbench

#endif  // HIXBENCH_PASSES_H_
