/**
 * @file
 * Outside-in layer trace for the benchmark.
 *
 * Spans are recorded from the benchmark's own code, around calls into
 * the program's public functions; nothing inside src/ is
 * instrumented. Top-level spans wrap the calls a pass makes on the
 * main thread (a service probe, planService, runSessionPool, one solo
 * runWorkload, the reduction). TracedWorkload wraps each session's
 * Workload: it delegates everything and hands run() a TimingApi, so
 * every GpuApi call the application makes becomes a child span of the
 * session's run span.
 *
 * Spans stay in memory, one buffer per session (written only by the
 * thread running that session), and are flattened once the pass is
 * over. The wrappers only observe: the simulated trace a traced pass
 * records is the one an untraced pass records.
 */

#ifndef HIXBENCH_TRACER_H_
#define HIXBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "workloads/workload.h"

namespace hixbench
{

using Clock = std::chrono::steady_clock;

/** CPU time used so far by the calling thread / by the whole process
 *  (all threads, including ended ones), in ns. */
std::int64_t threadCpuNs();
std::int64_t processCpuNs();

/**
 * One timed interval. Names are string literals. start/end place it on
 * the wall-clock timeline; cpuNs is the CPU time it used, which is
 * what the layer metrics sum: steal and waits on a shared host inflate
 * wall time but not CPU time. Spans around calls on the main thread
 * count the whole process's CPU time (the recording pool's threads
 * included); spans inside a session count its thread's.
 */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;  //!< since the tracer's epoch
    std::int64_t endNs = 0;
    std::int64_t cpuNs = 0;
    /** Index of the enclosing span in the flattened list, or -1. */
    std::int64_t parent = -1;
    /** Session (pool index or solo call index), or -1. */
    int session = -1;
    /** Payload bytes for copies, else 0. */
    std::uint64_t bytes = 0;

    double cpuMs() const { return static_cast<double>(cpuNs) / 1e6; }
};

/** Per-name CPU-time totals of the spans. */
struct SpanTotals
{
    struct Entry
    {
        double ms = 0;
        std::uint64_t count = 0;
        std::uint64_t bytes = 0;
    };
    std::map<std::string, Entry> byName;
    /** Σ top-level span CPU time, ms. */
    double topLevelMs = 0;
    /** Σ over workloads.run spans of (run - its child spans) CPU
     *  time, ms. */
    double runSelfMs = 0;
    /** Workload::run calls, and how many distinct workloads (inputs)
     *  they covered. */
    std::uint64_t runCalls = 0;
    std::uint64_t distinctWorkloads = 0;

    double
    ms(const std::string &name) const
    {
        auto it = byName.find(name);
        return it == byName.end() ? 0.0 : it->second.ms;
    }
};

class Tracer
{
  public:
    Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** RAII top-level span; open at most one at a time, on the thread
     *  that owns the tracer. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name, int session);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        std::size_t index_;
        std::int64_t cpuStart_;
    };

    Scope top(const char *name, int session = -1)
    {
        return Scope(*this, name, session);
    }

    /**
     * Wrap @p inner so its run() is traced as session @p session,
     * parented to the top-level span open now. @p fail_run makes
     * run() return an error without running the workload (fault
     * injection for the benchmark's own tests).
     */
    std::unique_ptr<hix::workloads::Workload>
    wrap(std::unique_ptr<hix::workloads::Workload> inner, int session,
         bool fail_run = false);

    /** All spans, parents resolved to flattened indices. Call only
     *  after every traced call has returned. */
    std::vector<Span> flatten() const;

    SpanTotals totals() const;

    /** Nanoseconds since the tracer's epoch. */
    std::int64_t now() const;

    /** Write flatten() as a JSON array. */
    void writeJson(std::ostream &out) const;

  private:
    friend class TracedWorkload;

    /** One session's spans; index 0 is its run span once it ran. */
    struct Buffer
    {
        int session = -1;
        /** Top-level span open when the session was created. */
        std::int64_t parentTop = -1;
        std::string workload;
        std::vector<Span> spans;
    };

    Clock::time_point epoch_;
    std::vector<Span> top_;  // owner thread only
    std::int64_t openTop_ = -1;
    std::mutex mutex_;  // guards buffers_ growth
    std::deque<Buffer> buffers_;
};

}  // namespace hixbench

#endif  // HIXBENCH_TRACER_H_
