#include "probes.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "crypto/ocb.h"
#include "crypto/x25519.h"
#include "mem/phys_mem.h"
#include "os/machine.h"
#include "tracer.h"
#include "workloads/workload.h"

namespace hixbench
{

namespace
{

using Clock = std::chrono::steady_clock;

constexpr int Batches = 5;
constexpr auto BatchTime = std::chrono::milliseconds(20);

/**
 * Median over Batches batches of seconds per unit: each batch calls
 * @p step (which returns the units it did) until BatchTime passes.
 */
template <typename Step>
double
medianSecondsPerUnit(Step step)
{
    std::vector<double> per_unit;
    for (int b = 0; b < Batches; ++b) {
        double units = 0;
        const auto start = Clock::now();
        auto now = start;
        while (now - start < BatchTime) {
            units += step();
            now = Clock::now();
        }
        per_unit.push_back(
            std::chrono::duration<double>(now - start).count() / units);
    }
    std::sort(per_unit.begin(), per_unit.end());
    return per_unit[Batches / 2];
}

/** The calibration loop: 2^21 random read-modify-writes over a
 *  private 32 MiB table; CPU seconds of the calling thread. */
double
referenceLoopSeconds()
{
    constexpr std::size_t Slots = std::size_t{1} << 22;
    std::vector<std::uint64_t> table(Slots, 1);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::uint64_t acc = 0;
    const std::int64_t start = threadCpuNs();
    for (int i = 0; i < (1 << 21); ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint64_t &slot = table[x & (Slots - 1)];
        acc += slot * 0x9e3779b97f4a7c15ull + (acc >> 3);
        slot = acc;
    }
    const std::int64_t used = threadCpuNs() - start;
    volatile std::uint64_t sink = acc;
    (void)sink;
    return static_cast<double>(used) / 1e9;
}

}  // namespace

hix::Result<std::map<std::string, double>>
runLayerProbes()
{
    std::map<std::string, double> out;
    hix::Rng rng(0x9b0be);

    {
        const std::uint64_t chunk = std::max<std::uint64_t>(
            hix::os::MachineConfig{}.timing.pipelineChunkBytes /
                hix::workloads::makeRodinia("BFS")->timingScale(),
            hix::mem::PageSize);
        hix::crypto::AesKey key{};
        rng.fill(key.data(), key.size());
        const hix::crypto::Ocb ocb(key);
        const hix::Bytes pt = rng.bytes(chunk);
        hix::Bytes ct(chunk);
        std::uint8_t tag[hix::crypto::OcbTagSize];
        std::uint64_t counter = 0;
        const double s_per_byte = medianSecondsPerUnit([&] {
            ocb.encryptInto(hix::crypto::makeNonce(1, ++counter), nullptr,
                            0, pt.data(), pt.size(), ct.data(), tag);
            return static_cast<double>(chunk);
        });
        out["crypto.ocb_seal_mbps"] = 1.0 / s_per_byte / 1e6;
    }

    {
        hix::crypto::X25519Key scalar{};
        rng.fill(scalar.data(), scalar.size());
        hix::crypto::X25519Key point = hix::crypto::x25519BasePoint();
        const double s_per_call = medianSecondsPerUnit([&] {
            point = hix::crypto::x25519(scalar, point);
            return 1.0;
        });
        out["crypto.x25519_us"] = s_per_call * 1e6;
    }

    {
        constexpr std::uint64_t Size = 16ull << 20;
        constexpr std::size_t Access = 64;
        hix::mem::PhysMem ram("probe", Size);
        const hix::Bytes page = rng.bytes(hix::mem::PageSize);
        for (std::uint64_t off = 0; off < Size; off += page.size())
            HIX_RETURN_IF_ERROR(ram.writeAt(off, page.data(), page.size()));
        std::vector<std::uint64_t> offsets(4096);
        for (auto &off : offsets)
            off = rng.nextBelow(Size - Access);
        std::uint8_t buf[Access];
        std::size_t next = 0;
        hix::Status status;
        const double s_per_pair = medianSecondsPerUnit([&] {
            const std::uint64_t off = offsets[next++ % offsets.size()];
            hix::Status read = ram.readAt(off, buf, Access);
            buf[0] ^= 1;
            hix::Status write = ram.writeAt(off, buf, Access);
            if (status.isOk())
                status = read.isOk() ? write : read;
            return 1.0;
        });
        HIX_RETURN_IF_ERROR(status);
        out["mem.rw_ns"] = s_per_pair * 1e9;
    }
    return out;
}

double
calibrationSeconds(int threads)
{
    // Nine readings per thread, so that no single slow or fast reading
    // sets the median, also when only one thread runs the loop.
    constexpr int Reps = 9;
    std::vector<double> each(threads * Reps);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&each, t] {
            for (int r = 0; r < Reps; ++r)
                each[t * Reps + r] = referenceLoopSeconds();
        });
    for (auto &th : pool)
        th.join();
    std::sort(each.begin(), each.end());
    return each[each.size() / 2];
}

HostCpuTicks
hostCpuTicks()
{
    // First line: "cpu  user nice system idle iowait irq softirq steal ..."
    std::ifstream stat("/proc/stat");
    std::string label;
    std::uint64_t f[8] = {};
    stat >> label;
    for (auto &v : f)
        stat >> v;
    if (!stat || label != "cpu")
        return {};
    return {f[0] + f[1] + f[2] + f[5] + f[6], f[7]};
}

double
stealShare(const HostCpuTicks &before, const HostCpuTicks &after)
{
    if (after.busy < before.busy || after.steal < before.steal)
        return 0.0;
    const double busy = static_cast<double>(after.busy - before.busy);
    const double steal = static_cast<double>(after.steal - before.steal);
    return busy + steal > 0 ? steal / (busy + steal) : 0.0;
}

}  // namespace hixbench
