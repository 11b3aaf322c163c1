/**
 * @file
 * One benchmark pass in its own process.
 *
 *   hixbench --workload svc-hix|svc-gdev|fig-solo --seed N
 *            [--traced] [--spans PATH]
 *
 * Prints one JSON object: setup_s (CPU time the process used before
 * its first timed call), run_s (wall-clock) and cpu_s (CPU time, all
 * threads) of the pass, steal_share (the host CPU time the hypervisor
 * took during the pass, see stealShare), calib_pass_s / calib_setup_s
 * (the host-speed reading taken right after the pass, see
 * calibrationSeconds),
 * peak_rss_mb, attempted/failed sessions, the simulated digest and
 * metrics, and with --traced the per-layer metrics; --spans writes the
 * traced pass's spans there. run.py runs the passes and aggregates
 * them.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "passes.h"
#include "probes.h"

using namespace hixbench;

namespace
{

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            c = ' ';
        out += c;
    }
    return out + "\"";
}

std::string
object(const std::map<std::string, double> &values)
{
    std::string out = "{";
    for (const auto &[name, value] : values) {
        if (out.size() > 1)
            out += ",";
        out += quoted(name) + ":" + num(value);
    }
    return out + "}";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: hixbench --workload svc-hix|svc-gdev|fig-solo "
                 "--seed N [--traced] [--spans PATH]\n");
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::optional<WorkloadId> workload;
    std::uint64_t seed = 1;
    bool traced = false;
    std::string spans_path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value)
            workload = parseWorkload(argv[++i]);
        else if (arg == "--seed" && has_value)
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (arg == "--spans" && has_value)
            spans_path = argv[++i];
        else if (arg == "--traced")
            traced = true;
        else
            return usage();
    }
    if (!workload)
        return usage();

    Tracer tracer;
    const double setup_s = static_cast<double>(processCpuNs()) / 1e9;
    const HostCpuTicks host_before = hostCpuTicks();
    PassResult r = runPass(*workload, seed, traced ? &tracer : nullptr);
    const double steal_share = stealShare(host_before, hostCpuTicks());
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    // Host speed right after the pass: at the pass's parallelism (the
    // service pool records on every hardware thread) and on one thread
    // for the single-threaded set-up.
    const int pass_threads =
        *workload == WorkloadId::FigSolo
            ? 1
            : static_cast<int>(
                  std::max(1u, std::thread::hardware_concurrency()));
    const double calib_pass_s = calibrationSeconds(pass_threads);
    const double calib_setup_s =
        pass_threads == 1 ? calib_pass_s : calibrationSeconds(1);

    std::map<std::string, double> layers = r.layers;
    if (traced) {
        auto probes = runLayerProbes();
        if (probes.isOk())
            layers.insert(probes->begin(), probes->end());
        else
            r.errors.push_back("layer probes: " + probes.status().toString());
        if (!spans_path.empty()) {
            std::ofstream file(spans_path);
            tracer.writeJson(file);
            if (!file)
                r.errors.push_back("cannot write spans to " + spans_path);
        }
    }

    std::ostringstream out;
    out << "{\"setup_s\":" << num(setup_s) << ",\"run_s\":" << num(r.runS)
        << ",\"cpu_s\":" << num(r.cpuS)
        << ",\"steal_share\":" << num(steal_share)
        << ",\"calib_pass_s\":" << num(calib_pass_s)
        << ",\"calib_setup_s\":" << num(calib_setup_s)
        << ",\"peak_rss_mb\":" << num(peak_rss_mb)
        << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
        << ",\"digest\":" << quoted(r.digest)
        << ",\"sim\":" << object({{"p50_ms", r.simP50Ms},
                                  {"p99_ms", r.simP99Ms},
                                  {"makespan_ms", r.simMakespanMs}})
        << ",\"hix_over_gdev\":" << object(r.hixOverRatio)
        << ",\"layers\":" << object(layers) << ",\"errors\":[";
    for (std::size_t i = 0; i < r.errors.size(); ++i)
        out << (i ? "," : "") << quoted(r.errors[i]);
    out << "]}\n";
    std::fputs(out.str().c_str(), stdout);
    return 0;
}
