/**
 * @file
 * Benchmark-side tracing: spans recorded around every call the
 * benchmark makes into a layer of the simulator, an allocation counter
 * fed by the benchmark binary's own global operator new, and a
 * forwarding BlockDevice that puts a span around each device submit and
 * each completion callback it hands back to the array.
 *
 * Everything here lives outside src/: the program under test is not
 * modified, it is only observed at its public interfaces. Spans nest
 * strictly (the simulator is single-threaded and every span is an RAII
 * scope), so a span's self time is its duration minus the durations of
 * the spans opened while it was the innermost one.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "zns/block_device.h"

namespace raizn {
class EventLoop;
} // namespace raizn

namespace e2e {

/// Allocation count and requested bytes.
struct AllocCount {
    uint64_t allocs = 0;
    uint64_t bytes = 0;
};

/// Where operator new (alloc_hook.cc) charges each allocation: the
/// innermost open span's totals, or null when no span is open.
extern AllocCount *g_alloc_sink;

/// Host steady clock in nanoseconds.
uint64_t host_now_ns();

/// One closed span, as written to the trace file.
struct Span {
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = top level
    uint64_t req = 0; ///< user operation this span serves (0 = none)
    uint32_t name = 0;
    uint64_t host_start = 0, host_end = 0;
    uint64_t virt_start = 0, virt_end = 0;
};

/// Aggregates for one span name.
struct SpanTotals {
    uint64_t calls = 0;
    uint64_t host_self_ns = 0;
    AllocCount alloc; ///< allocations made while this was innermost
};

class Tracer
{
  public:
    Tracer(const raizn::EventLoop *loop, size_t max_spans);
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /// Name id for `name` (interned once; ids stay valid across reset).
    uint32_t intern(const std::string &name);
    /// Points the virtual clock at a new loop (one loop per round).
    void set_loop(const raizn::EventLoop *loop) { loop_ = loop; }

    void open(uint32_t name, uint64_t req);
    void close();

    /// Request id of the innermost open span (0 when none).
    uint64_t
    current_req() const
    {
        return stack_.empty() ? 0 : stack_.back().req;
    }

    const SpanTotals &totals(uint32_t id) const { return totals_[id]; }
    const std::vector<Span> &spans() const { return spans_; }
    /// Spans closed after the record buffer filled (totals still count).
    uint64_t dropped() const { return dropped_; }

    /// Clears spans and totals; names stay interned.
    void reset();
    /// Writes the recorded spans as CSV; false on I/O error.
    bool write_csv(const std::string &path) const;

  private:
    struct Frame {
        uint64_t id;
        uint64_t parent;
        uint64_t req;
        uint32_t name;
        uint64_t host_start;
        uint64_t virt_start;
        uint64_t child_ns;
    };

    const raizn::EventLoop *loop_;
    size_t max_spans_;
    std::vector<std::string> names_;
    std::vector<SpanTotals> totals_;
    std::vector<Frame> stack_;
    std::vector<Span> spans_;
    uint64_t next_id_ = 1;
    uint64_t dropped_ = 0;
};

/// RAII span; a null tracer makes it a no-op (the untraced run).
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *t, uint32_t name, uint64_t req) : t_(t)
    {
        if (t_ != nullptr)
            t_->open(name, req);
    }
    ~ScopedSpan()
    {
        if (t_ != nullptr)
            t_->close();
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *t_;
};

/**
 * Forwarding device: every call goes to `inner`. submit() runs inside a
 * "<layer>.submit" span and wraps the completion callback so the array's
 * handler runs inside an "<array>.complete" span; the wrapper also
 * records each command's virtual service time (IoResult ticks).
 * set_ledger is forwarded, so the inner device records into the ledger
 * exactly as it would unwrapped.
 */
class TracingDevice : public raizn::BlockDevice
{
  public:
    TracingDevice(raizn::BlockDevice *inner, Tracer *tracer,
                  uint32_t submit_name, uint32_t complete_name,
                  raizn::Histogram *service_ns)
        : inner_(inner), tracer_(tracer), submit_name_(submit_name),
          complete_name_(complete_name), service_ns_(service_ns)
    {
    }

    const raizn::DeviceGeometry &
    geometry() const override
    {
        return inner_->geometry();
    }
    const raizn::DeviceStats &
    stats() const override
    {
        return inner_->stats();
    }
    raizn::DataMode
    data_mode() const override
    {
        return inner_->data_mode();
    }
    raizn::Result<raizn::ZoneInfo>
    zone_info(uint32_t zone) const override
    {
        return inner_->zone_info(zone);
    }
    bool failed() const override { return inner_->failed(); }
    void fail() override { inner_->fail(); }
    void
    set_ledger(raizn::obs::IoLedger *ledger, uint32_t dev_index) override
    {
        inner_->set_ledger(ledger, dev_index);
    }

    void submit(raizn::IoRequest req, raizn::IoCallback cb) override;

  private:
    raizn::BlockDevice *inner_;
    Tracer *tracer_;
    uint32_t submit_name_;
    uint32_t complete_name_;
    raizn::Histogram *service_ns_;
};

} // namespace e2e
