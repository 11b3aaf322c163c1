/**
 * @file
 * Layer probes: short timed loops over public functions of the crypto
 * and memory layers, run after a traced pass. Each reports the median
 * of several timed batches.
 */

#ifndef HIXBENCH_PROBES_H_
#define HIXBENCH_PROBES_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"

namespace hixbench
{

/**
 * crypto.ocb_seal_mbps: Ocb::encryptInto at the HIX runtime's
 * functional chunk size for BFS, the largest transfer of the service
 * mix (pipelineChunkBytes / timing scale).
 * crypto.x25519_us: one x25519() scalar multiplication.
 * mem.rw_ns: one 64-byte PhysMem::readAt plus one writeAt at a random
 * resident page.
 * Fails if a PhysMem access does.
 */
hix::Result<std::map<std::string, double>> runLayerProbes();

/**
 * Host speed now: the median CPU seconds of a fixed reference loop
 * (random read-modify-writes over a private 32 MiB table; no simulator
 * code), run nine times on each of @p threads threads at once. On a
 * shared host, co-tenants change how much CPU time the same work takes
 * by tens of percent within minutes; dividing a host time by this
 * reading, taken right after it at the same parallelism, cancels most
 * of that drift.
 */
double calibrationSeconds(int threads);

/** CPU time of the whole host so far, in clock ticks, from /proc/stat:
 *  busy (user, nice, system, irq, softirq) and stolen by the hypervisor.
 *  Zeros where /proc/stat cannot be read. */
struct HostCpuTicks
{
    std::uint64_t busy = 0;
    std::uint64_t steal = 0;
};
HostCpuTicks hostCpuTicks();

/**
 * The share of the host's runnable CPU time that the hypervisor stole
 * between two readings: steal / (busy + steal), 0 if no time passed.
 * Thread CPU time excludes steal, but wall-clock does not: a pass whose
 * threads were runnable throughout took wall × (1 − share) on a host
 * with nothing stolen.
 */
double stealShare(const HostCpuTicks &before, const HostCpuTicks &after);

}  // namespace hixbench

#endif  // HIXBENCH_PROBES_H_
