#include "tracer.h"

#include <time.h>

#include <set>
#include <utility>

namespace hixbench
{

using hix::Addr;
using hix::Bytes;
using hix::Result;
using hix::Status;
using hix::workloads::GpuApi;
using hix::workloads::Workload;

namespace
{

std::int64_t
cpuNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 +
           ts.tv_nsec;
}

/** GpuApi decorator: every call becomes a span under the session's
 *  run span. */
class TimingApi final : public GpuApi
{
  public:
    TimingApi(GpuApi &inner, const Tracer &tracer,
              std::vector<Span> &spans, int session)
        : inner_(inner), tracer_(tracer), spans_(spans),
          session_(session)
    {}

    Result<Addr>
    memAlloc(std::uint64_t size) override
    {
        Timed t(*this, "hix.alloc", 0);
        return inner_.memAlloc(size);
    }
    Status
    memFree(Addr va) override
    {
        Timed t(*this, "hix.alloc", 0);
        return inner_.memFree(va);
    }
    Status
    memcpyHtoD(Addr dst, const Bytes &data) override
    {
        Timed t(*this, "hix.htod", data.size());
        return inner_.memcpyHtoD(dst, data);
    }
    Result<Bytes>
    memcpyDtoH(Addr src, std::uint64_t len) override
    {
        Timed t(*this, "hix.dtoh", len);
        return inner_.memcpyDtoH(src, len);
    }
    Result<hix::gpu::KernelId>
    loadModule(const std::string &name) override
    {
        Timed t(*this, "hix.module", 0);
        return inner_.loadModule(name);
    }
    Status
    launchKernel(hix::gpu::KernelId kernel,
                 const hix::gpu::KernelArgs &args) override
    {
        Timed t(*this, "hix.launch", 0);
        return inner_.launchKernel(kernel, args);
    }

  private:
    /** Records its span when it goes out of scope, i.e. after the
     *  delegated call has produced its return value. */
    class Timed
    {
      public:
        Timed(TimingApi &api, const char *name, std::uint64_t bytes)
            : api_(api), name_(name), bytes_(bytes),
              start_(api.tracer_.now()), cpuStart_(threadCpuNs())
        {}
        ~Timed()
        {
            // Parent 0 is the session's run span (buffer-local).
            api_.spans_.push_back(Span{name_, start_, api_.tracer_.now(),
                                       threadCpuNs() - cpuStart_, 0,
                                       api_.session_, bytes_});
        }
        Timed(const Timed &) = delete;
        Timed &operator=(const Timed &) = delete;

      private:
        TimingApi &api_;
        const char *name_;
        std::uint64_t bytes_;
        std::int64_t start_;
        std::int64_t cpuStart_;
    };

    GpuApi &inner_;
    const Tracer &tracer_;
    std::vector<Span> &spans_;
    int session_;
};

}  // namespace

/** Delegates everything to the wrapped workload; run() is timed. */
class TracedWorkload final : public Workload
{
  public:
    TracedWorkload(std::unique_ptr<Workload> inner, const Tracer &tracer,
                   Tracer::Buffer &buffer, bool fail_run)
        : Workload(inner->name()), inner_(std::move(inner)),
          tracer_(tracer), buffer_(buffer), fail_run_(fail_run)
    {}

    std::uint64_t
    timingScale() const override
    {
        return inner_->timingScale();
    }
    hix::workloads::TransferSpec
    nominalTransfers() const override
    {
        return inner_->nominalTransfers();
    }
    void
    registerKernels(hix::gpu::GpuDevice &device) override
    {
        inner_->registerKernels(device);
    }

    Status
    run(GpuApi &api) override
    {
        if (fail_run_)
            return hix::errInternal("injected failure in " + name());
        auto &spans = buffer_.spans;
        const std::int64_t cpu_start = threadCpuNs();
        spans.push_back(Span{"workloads.run", tracer_.now(), 0, 0, -1,
                             buffer_.session, 0});
        TimingApi timed(api, tracer_, spans, buffer_.session);
        Status status = inner_->run(timed);
        spans.front().endNs = tracer_.now();
        spans.front().cpuNs = threadCpuNs() - cpu_start;
        return status;
    }

  private:
    std::unique_ptr<Workload> inner_;
    const Tracer &tracer_;
    Tracer::Buffer &buffer_;
    bool fail_run_;
};

std::int64_t
threadCpuNs()
{
    return cpuNs(CLOCK_THREAD_CPUTIME_ID);
}

std::int64_t
processCpuNs()
{
    return cpuNs(CLOCK_PROCESS_CPUTIME_ID);
}

Tracer::Tracer() : epoch_(Clock::now()) {}

std::int64_t
Tracer::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

Tracer::Scope::Scope(Tracer &tracer, const char *name, int session)
    : tracer_(tracer), index_(tracer.top_.size()),
      cpuStart_(processCpuNs())
{
    tracer_.top_.push_back(
        Span{name, tracer_.now(), 0, 0, -1, session, 0});
    tracer_.openTop_ = static_cast<std::int64_t>(index_);
}

Tracer::Scope::~Scope()
{
    Span &span = tracer_.top_[index_];
    span.endNs = tracer_.now();
    span.cpuNs = processCpuNs() - cpuStart_;
    tracer_.openTop_ = -1;
}

std::unique_ptr<Workload>
Tracer::wrap(std::unique_ptr<Workload> inner, int session, bool fail_run)
{
    Buffer *buffer = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        buffer = &buffers_.emplace_back();
        buffer->session = session;
        buffer->parentTop = openTop_;
        buffer->workload = inner->name();
    }
    return std::make_unique<TracedWorkload>(std::move(inner), *this,
                                            *buffer, fail_run);
}

std::vector<Span>
Tracer::flatten() const
{
    std::vector<Span> out = top_;
    for (const Buffer &b : buffers_) {
        const auto base = static_cast<std::int64_t>(out.size());
        for (const Span &s : b.spans) {
            Span flat = s;
            flat.parent = s.parent < 0 ? b.parentTop : base + s.parent;
            out.push_back(flat);
        }
    }
    return out;
}

SpanTotals
Tracer::totals() const
{
    SpanTotals t;
    auto add = [&](const Span &s) {
        auto &e = t.byName[s.name];
        e.ms += s.cpuMs();
        e.count += 1;
        e.bytes += s.bytes;
    };
    for (const Span &s : top_) {
        add(s);
        t.topLevelMs += s.cpuMs();
    }
    std::set<std::string> workloads;
    for (const Buffer &b : buffers_) {
        if (b.spans.empty())
            continue;  // a fork template's instance never runs
        std::int64_t child_ns = 0;
        for (std::size_t i = 0; i < b.spans.size(); ++i) {
            add(b.spans[i]);
            if (i > 0)
                child_ns += b.spans[i].cpuNs;
        }
        t.runSelfMs +=
            static_cast<double>(b.spans.front().cpuNs - child_ns) / 1e6;
        t.runCalls += 1;
        workloads.insert(b.workload);
    }
    t.distinctWorkloads = workloads.size();
    return t;
}

void
Tracer::writeJson(std::ostream &out) const
{
    const auto spans = flatten();
    out << "[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << "{\"id\":" << i << ",\"name\":\"" << s.name
            << "\",\"start_ns\":" << s.startNs
            << ",\"end_ns\":" << s.endNs << ",\"cpu_ns\":" << s.cpuNs
            << ",\"parent\":" << s.parent
            << ",\"session\":" << s.session << ",\"bytes\":" << s.bytes
            << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]\n";
}

}  // namespace hixbench
