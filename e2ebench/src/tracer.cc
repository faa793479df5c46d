#include "tracer.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "sim/event_loop.h"

namespace e2e {

AllocCount *g_alloc_sink = nullptr;

uint64_t
host_now_ns()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

namespace {

/// Stops charging allocations to spans while the tracer does its own
/// bookkeeping, so tracing cost never shows up as a layer's allocation.
class SinkPause
{
  public:
    SinkPause() : saved_(g_alloc_sink) { g_alloc_sink = nullptr; }
    ~SinkPause() { g_alloc_sink = saved_; }
    SinkPause(const SinkPause &) = delete;
    SinkPause &operator=(const SinkPause &) = delete;

  private:
    AllocCount *saved_;
};

} // namespace

Tracer::Tracer(const raizn::EventLoop *loop, size_t max_spans)
    : loop_(loop), max_spans_(max_spans)
{
    stack_.reserve(64);
    spans_.reserve(max_spans_);
}

uint32_t
Tracer::intern(const std::string &name)
{
    SinkPause pause;
    for (uint32_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name)
            return i;
    }
    names_.push_back(name);
    totals_.emplace_back();
    return static_cast<uint32_t>(names_.size() - 1);
}

void
Tracer::open(uint32_t name, uint64_t req)
{
    g_alloc_sink = nullptr;
    uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
    stack_.push_back({next_id_++, parent, req, name, host_now_ns(),
                      loop_->now(), 0});
    g_alloc_sink = &totals_[name].alloc;
}

void
Tracer::close()
{
    uint64_t end = host_now_ns();
    g_alloc_sink = nullptr;
    Frame f = stack_.back();
    stack_.pop_back();
    uint64_t dur = end - f.host_start;
    SpanTotals &t = totals_[f.name];
    t.calls++;
    t.host_self_ns += dur - std::min(dur, f.child_ns);
    if (spans_.size() < max_spans_) {
        spans_.push_back({f.id, f.parent, f.req, f.name, f.host_start, end,
                          f.virt_start, loop_->now()});
    } else {
        dropped_++;
    }
    if (!stack_.empty()) {
        stack_.back().child_ns += dur;
        g_alloc_sink = &totals_[stack_.back().name].alloc;
    }
}

void
Tracer::reset()
{
    spans_.clear();
    std::fill(totals_.begin(), totals_.end(), SpanTotals{});
    next_id_ = 1;
    dropped_ = 0;
}

bool
Tracer::write_csv(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "id,parent,req,name,host_start_ns,host_end_ns,"
                    "virt_start_ns,virt_end_ns\n");
    for (const Span &s : spans_) {
        std::fprintf(f, "%llu,%llu,%llu,%s,%llu,%llu,%llu,%llu\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.req),
                     names_[s.name].c_str(),
                     static_cast<unsigned long long>(s.host_start),
                     static_cast<unsigned long long>(s.host_end),
                     static_cast<unsigned long long>(s.virt_start),
                     static_cast<unsigned long long>(s.virt_end));
    }
    return std::fclose(f) == 0;
}

void
TracingDevice::submit(raizn::IoRequest req, raizn::IoCallback cb)
{
    uint64_t rid = tracer_->current_req();
    raizn::IoCallback wrapped;
    {
        SinkPause pause;
        wrapped = [this, rid, cb = std::move(cb)](raizn::IoResult r) {
            service_ns_->add(r.complete_tick - r.submit_tick);
            ScopedSpan span(tracer_, complete_name_, rid);
            cb(std::move(r));
        };
    }
    ScopedSpan span(tracer_, submit_name_, rid);
    inner_->submit(std::move(req), std::move(wrapped));
}

} // namespace e2e
