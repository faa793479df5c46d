#include "workloads.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "common/rng.h"
#include "common/units.h"
#include "loadgen.h"
#include "mdraid/md_volume.h"
#include "obs/ledger.h"
#include "raizn/volume.h"
#include "sim/event_loop.h"
#include "zns/conv_device.h"
#include "zns/zns_device.h"

namespace e2e {

using raizn::kSectorSize;
using raizn::Tick;

namespace {

constexpr double kMiBd = static_cast<double>(raizn::kMiB);

/// Array geometry; defaults are the figure benches' BenchScale.
struct Scale {
    uint32_t num_devices = 5;
    uint32_t zones_per_device = 24;
    uint64_t zone_cap_sectors = 8192; ///< 32 MiB zones
    uint32_t su_sectors = 16; ///< 64 KiB stripe units / chunks
    raizn::DataMode data_mode = raizn::DataMode::kNone;
};

/**
 * One array with its loop and member devices. With a tracer, each
 * member is handed to the array through a TracingDevice. Members are
 * declared so the array is destroyed first.
 */
struct Rig {
    std::unique_ptr<raizn::EventLoop> loop;
    std::vector<std::unique_ptr<raizn::ZnsDevice>> zns;
    std::vector<std::unique_ptr<raizn::ConvDevice>> conv;
    raizn::Histogram service_ns; ///< device service time (traced)
    std::vector<std::unique_ptr<TracingDevice>> wrap;
    std::unique_ptr<raizn::obs::IoLedger> ledger;
    std::unique_ptr<raizn::ZonedArray> arr;
    std::string array_layer; ///< "raizn" / "mdraid"
    std::string device_layer; ///< "zns" / "conv"
    uint32_t units = 0; ///< service units per device
    LoadSpans spans;
    uint32_t reset_span = 0; ///< <array>.reset
    uint32_t rebuild_span = 0; ///< <array>.rebuild

    bool raizn() const { return !zns.empty(); }
    uint32_t ndev() const { return static_cast<uint32_t>(
            raizn() ? zns.size() : conv.size()); }
    const raizn::DeviceStats &
    stats(uint32_t i) const
    {
        return raizn() ? zns[i]->stats() : conv[i]->stats();
    }
    void
    replace(uint32_t i)
    {
        if (raizn())
            zns[i]->replace();
        else
            conv[i]->replace();
    }
};

std::unique_ptr<Rig>
make_rig(bool raizn_array, const Scale &sc, Tracer *tracer)
{
    auto rig = std::make_unique<Rig>();
    rig->loop = std::make_unique<raizn::EventLoop>();
    rig->array_layer = raizn_array ? "raizn" : "mdraid";
    rig->device_layer = raizn_array ? "zns" : "conv";
    std::vector<raizn::BlockDevice *> members;
    for (uint32_t i = 0; i < sc.num_devices; ++i) {
        if (raizn_array) {
            raizn::ZnsDeviceConfig cfg;
            cfg.nzones = sc.zones_per_device;
            cfg.zone_size = sc.zone_cap_sectors;
            cfg.zone_capacity = sc.zone_cap_sectors;
            cfg.data_mode = sc.data_mode;
            cfg.timing = raizn::TimingParams::zns();
            cfg.name = "zns" + std::to_string(i);
            rig->units = cfg.timing.units;
            rig->zns.push_back(
                std::make_unique<raizn::ZnsDevice>(rig->loop.get(), cfg));
            members.push_back(rig->zns.back().get());
        } else {
            raizn::ConvDeviceConfig cfg;
            cfg.nsectors = static_cast<uint64_t>(sc.zones_per_device) *
                sc.zone_cap_sectors;
            cfg.data_mode = sc.data_mode;
            cfg.timing = raizn::TimingParams::conventional();
            cfg.op_ratio = 0.07;
            cfg.pages_per_block = 512; // 2 MiB erase blocks
            cfg.name = "conv" + std::to_string(i);
            rig->units = cfg.timing.units;
            rig->conv.push_back(
                std::make_unique<raizn::ConvDevice>(rig->loop.get(), cfg));
            members.push_back(rig->conv.back().get());
        }
    }
    if (tracer != nullptr) {
        tracer->set_loop(rig->loop.get());
        uint32_t submit = tracer->intern(rig->device_layer + ".submit");
        uint32_t complete = tracer->intern(rig->array_layer + ".complete");
        for (raizn::BlockDevice *&m : members) {
            rig->wrap.push_back(std::make_unique<TracingDevice>(
                m, tracer, submit, complete, &rig->service_ns));
            m = rig->wrap.back().get();
        }
        rig->spans.issue = tracer->intern("wkld.issue");
        rig->spans.complete = tracer->intern("wkld.complete");
        rig->spans.verify = tracer->intern("wkld.verify");
        rig->spans.write = tracer->intern(rig->array_layer + ".write");
        rig->spans.read = tracer->intern(rig->array_layer + ".read");
        rig->spans.sim = tracer->intern("sim.run");
        rig->reset_span = tracer->intern(rig->array_layer + ".reset");
        rig->rebuild_span = tracer->intern(rig->array_layer + ".rebuild");
    }
    if (raizn_array) {
        raizn::RaiznConfig rcfg;
        rcfg.num_devices = sc.num_devices;
        rcfg.su_sectors = sc.su_sectors;
        auto res = raizn::RaiznVolume::create(rig->loop.get(), members, rcfg);
        if (!res.is_ok())
            throw std::runtime_error("RAIZN create failed: " +
                                     res.status().to_string());
        rig->arr = std::move(res).value();
    } else {
        raizn::MdVolumeConfig mcfg;
        mcfg.chunk_sectors = sc.su_sectors;
        rig->arr = std::make_unique<raizn::MdVolume>(rig->loop.get(),
                                                      members, mcfg);
    }
    return rig;
}

/// `nops` sequential ops of `bs` sectors from `start`.
Job
seq_job(uint64_t start, uint64_t nops, uint32_t bs, uint32_t qd)
{
    Job j;
    j.qd = qd;
    j.ops.reserve(nops);
    for (uint64_t k = 0; k < nops; ++k)
        j.ops.push_back({start + k * bs, bs});
    return j;
}

struct Extent {
    uint64_t start = 0;
    uint64_t len = 0; ///< sectors
};

/// Op sizes in sectors, uniform over {lo, lo + step, ..., hi}: real
/// I/O sizes vary, and a mix keeps latency percentiles off the steps a
/// single fixed service time would put them on.
struct Sizes {
    uint32_t lo = 1, hi = 1, step = 1;

    uint32_t
    draw(raizn::Rng &rng) const
    {
        return lo + step * static_cast<uint32_t>(
                               rng.next_below((hi - lo) / step + 1));
    }
};

/// Sequential ops of drawn sizes covering exactly [start, start + len);
/// an op that would cross a `boundary`-aligned LBA (a logical zone's
/// end) or pass the end is cut there.
Job
seq_fill(raizn::Rng &rng, uint64_t start, uint64_t len, Sizes sz,
         uint64_t boundary, uint32_t qd)
{
    Job j;
    j.qd = qd;
    for (uint64_t lba = start; lba < start + len;) {
        uint64_t n = std::min<uint64_t>(sz.draw(rng), start + len - lba);
        n = std::min(n, boundary - lba % boundary);
        j.ops.push_back({lba, static_cast<uint32_t>(n)});
        lba += n;
    }
    return j;
}

/// `nops` random ops of drawn sizes at `align`-sector offsets, uniform
/// over the extents (every op fits inside its extent).
Job
rand_job(raizn::Rng &rng, const std::vector<Extent> &ext, uint64_t nops,
         Sizes sz, uint32_t align, uint32_t qd)
{
    auto slots_of = [&](const Extent &e) {
        return e.len < sz.hi ? 0 : (e.len - sz.hi) / align + 1;
    };
    uint64_t slots = 0;
    for (const Extent &e : ext)
        slots += slots_of(e);
    Job j;
    j.qd = qd;
    j.ops.reserve(nops);
    for (uint64_t k = 0; k < nops; ++k) {
        uint64_t s = rng.next_below(slots);
        for (const Extent &e : ext) {
            if (s < slots_of(e)) {
                j.ops.push_back({e.start + s * align, sz.draw(rng)});
                break;
            }
            s -= slots_of(e);
        }
    }
    return j;
}

/// 8..24 KiB, mean 16 KiB.
constexpr Sizes k16K{2, 6, 1};
/// Exactly 16 KiB: the partial-stripe write path of the paper's fio
/// jobs (a 256 KiB stripe takes 16 of them, the last one completing
/// it).
constexpr Sizes kWrite16K{4, 4, 1};

/// Queue depth of zone writer `w`: 16, except that writer 0 runs at
/// 15, 16 or 17, drawn from the seed. Any larger spread of queue depths
/// moves the write latencies more than the bound the benchmark allows.
uint32_t
writer_qd(raizn::Rng &rng, uint32_t w)
{
    return w == 0 ? static_cast<uint32_t>(15 + rng.next_below(3)) : 16;
}

/// One light foreground job per rebuild (16 KiB mean, QD4), long
/// enough to outlast it; it stops issuing when the rebuild completes.
std::vector<Job>
rebuild_load(raizn::Rng &rng, const std::vector<Extent> &ext,
             uint32_t members)
{
    std::vector<Job> fg;
    for (uint32_t i = 0; i < members; ++i)
        fg.push_back(rand_job(rng, ext, 32768, k16K, 1, 4));
    return fg;
}

/// Seed for one purpose within a round.
uint64_t
subseed(uint64_t seed, uint64_t purpose)
{
    return seed * 0x9e3779b97f4a7c15ull + purpose * 0xd1b54a32d192ed03ull;
}

/// Sum of the members' DeviceStats counters the metrics read.
struct DevTotals {
    uint64_t reads = 0, writes = 0, appends = 0, flushes = 0;
    uint64_t zone_resets = 0, sectors_read = 0, sectors_written = 0;
    uint64_t gc_page_copies = 0, busy_ns = 0;

    void
    add(const raizn::DeviceStats &s)
    {
        reads += s.reads;
        writes += s.writes;
        appends += s.appends;
        flushes += s.flushes;
        zone_resets += s.zone_resets;
        sectors_read += s.sectors_read;
        sectors_written += s.sectors_written;
        gc_page_copies += s.gc_page_copies;
        busy_ns += s.busy_ns;
    }
};

DevTotals
operator-(const DevTotals &a, const DevTotals &b)
{
    DevTotals d;
    d.reads = a.reads - b.reads;
    d.writes = a.writes - b.writes;
    d.appends = a.appends - b.appends;
    d.flushes = a.flushes - b.flushes;
    d.zone_resets = a.zone_resets - b.zone_resets;
    d.sectors_read = a.sectors_read - b.sectors_read;
    d.sectors_written = a.sectors_written - b.sectors_written;
    d.gc_page_copies = a.gc_page_copies - b.gc_page_copies;
    d.busy_ns = a.busy_ns - b.busy_ns;
    return d;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

double
per_call(const SpanTotals &t)
{
    return ratio(static_cast<double>(t.host_self_ns),
                 static_cast<double>(t.calls));
}

double
us(uint64_t ns)
{
    return static_cast<double>(ns) / 1e3;
}

/**
 * One round: set-up, then the measured phases, each step called by a
 * workload function in order. Collects what finish() needs to derive
 * the end-to-end and per-layer numbers and checks outputs on the way.
 */
class Round
{
  public:
    Round(Tracer *tracer, RoundResult *out)
        : tracer_(tracer), out_(out), t0_(host_now_ns())
    {
    }

    void
    build(bool raizn_array, const Scale &sc)
    {
        rig_ = make_rig(raizn_array, sc, tracer_);
    }
    raizn::ZonedArray &arr() { return *rig_->arr; }
    void set_image(std::unique_ptr<Image> img) { image_ = std::move(img); }
    Image &image() { return *image_; }

    /// Writes that are part of set-up (fill / prime).
    void
    setup_write(const std::vector<Job> &jobs)
    {
        account(loadgen().write(jobs), "set-up write");
    }

    /// Ends set-up: records its time, attaches the ledger, starts the
    /// measured window.
    void
    end_setup()
    {
        out_->setup_s = static_cast<double>(host_now_ns() - t0_) / 1e9;
        rig_->ledger = std::make_unique<raizn::obs::IoLedger>();
        rig_->arr->attach_ledger(rig_->ledger.get());
        s_setup_ = totals();
        raid_setup_ = raid_counters();
        events0_ = rig_->loop->events_processed();
        if (tracer_ != nullptr) {
            tracer_->reset();
            rig_->service_ns.clear();
        }
        measure0_ = host_now_ns();
    }

    void
    write(const std::vector<Job> &jobs)
    {
        PhaseResult r =
            timed(write_host_, [&] { return loadgen().write(jobs); });
        account(r, "write");
        write_.add(r);
    }

    /// Resets logical zones between write cycles; the time counts
    /// toward the write phase.
    void
    reset_zones(const std::vector<uint32_t> &zones)
    {
        write_host_.start();
        Tick v0 = rig_->loop->now();
        uint32_t bad = 0;
        for (uint32_t z : zones) {
            ScopedSpan span(tracer_, rig_->reset_span, loadgen().next_req());
            rig_->arr->reset_zone(z, [&bad](raizn::IoResult r) {
                if (!r.status.is_ok())
                    bad++;
            });
        }
        uint64_t ev = loadgen().drain();
        write_host_.stop();
        out_->attempted += zones.size();
        out_->failed += bad;
        if (bad != 0)
            problem(std::to_string(bad) + " zone resets failed");
        PhaseResult r;
        r.elapsed = rig_->loop->now() - v0;
        r.events = ev;
        write_.add(r);
    }

    /// Checks each zone's write pointer (Report Zones) against what the
    /// workload wrote into it.
    void
    check_wps(const std::vector<std::pair<uint32_t, uint64_t>> &written)
    {
        for (auto [z, n] : written) {
            auto info = rig_->arr->zone_info(z);
            if (!info.is_ok() || info.value().written() != n) {
                problem("zone " + std::to_string(z) +
                        " write pointer does not match the data written");
            }
        }
    }

    void
    end_write()
    {
        s_write_ = totals();
        raid_write_ = raid_counters();
        pp_log_bytes_ = rig_->ledger->cause_write_bytes(
            raizn::obs::Cause::kPpLog);
        parity_bytes_ = rig_->ledger->cause_write_bytes(
            raizn::obs::Cause::kParity);
    }

    void
    read(const std::vector<Job> &jobs)
    {
        PhaseResult r =
            timed(read_host_, [&] { return loadgen().read(jobs); });
        account(r, "read");
        read_.add(r);
    }

    void
    end_read()
    {
        s_read_ = totals();
        raid_read_ = raid_counters();
        service_ = rig_->service_ns;
        // Ledger bytes must equal the devices' own counters.
        DevTotals d = s_read_ - s_setup_;
        if (rig_->ledger->device_write_bytes() !=
                d.sectors_written * kSectorSize ||
            rig_->ledger->device_read_bytes() !=
                d.sectors_read * kSectorSize) {
            problem("ledger bytes differ from DeviceStats bytes");
        }
    }

    void fail(uint32_t dev) { rig_->arr->mark_device_failed(dev); }

    /**
     * Replaces each member in `order` with a blank device and rebuilds
     * it, one after another (the first may already be marked failed),
     * while foreground job fg[i] (reads, or writes when `fg_writes`)
     * runs against the array until member i's rebuild completes.
     * Rebuild times are per member.
     */
    void
    rebuild(const std::vector<uint32_t> &order, const std::vector<Job> &fg,
            bool fg_writes = false)
    {
        uint64_t survivor_reads = 0, rebuilt = 0;
        for (size_t k = 0; k < order.size(); ++k) {
            uint32_t dev = order[k];
            if (rig_->arr->failed_device() != static_cast<int>(dev))
                fail(dev);
            std::vector<uint64_t> read_before(rig_->ndev());
            for (uint32_t i = 0; i < rig_->ndev(); ++i)
                read_before[i] = rig_->stats(i).sectors_read;
            rig_->replace(dev);
            rebuild_host_.start();
            loadgen().set_meter(&rebuild_host_);
            Tick v0 = rig_->loop->now();
            Tick v_done = v0;
            bool done = false;
            raizn::Status st;
            {
                ScopedSpan span(tracer_, rig_->rebuild_span,
                                loadgen().next_req());
                rig_->arr->rebuild_device(dev, nullptr,
                                          [&](raizn::Status s) {
                                              st = s;
                                              done = true;
                                              v_done = rig_->loop->now();
                                          });
            }
            if (fg_writes) {
                account(loadgen().write({fg[k]}, &done),
                        "write during rebuild");
            } else {
                account(loadgen().read({fg[k]}, &done),
                        "read during rebuild");
            }
            loadgen().set_meter(nullptr);
            rebuild_host_.stop();
            rebuild_virt_ += v_done - v0;
            out_->attempted++;
            if (!done || !st.is_ok() || rig_->arr->failed_device() >= 0) {
                out_->failed++;
                problem("rebuild of device " + std::to_string(dev) +
                        " failed: " +
                        (done ? st.to_string()
                              : std::string("never completed")));
            }
            for (uint32_t i = 0; i < rig_->ndev(); ++i) {
                if (i != dev) {
                    survivor_reads +=
                        rig_->stats(i).sectors_read - read_before[i];
                }
            }
            rebuilt += rig_->stats(dev).sectors_written;
        }
        rebuilds_ = order.size();
        rebuild_ratio_ = ratio(static_cast<double>(survivor_reads),
                               static_cast<double>(rebuilt));
    }

    /// Verified reads that only check correctness (not timed metrics).
    void
    verify(const std::vector<Job> &jobs)
    {
        account(loadgen().read(jobs), "post-rebuild read");
    }

    void finish();

  private:
    /// Runs one load with each completion ticking `m`.
    template <typename F>
    PhaseResult
    timed(HostChunks &m, F load)
    {
        loadgen().set_meter(&m);
        m.start();
        PhaseResult r = load();
        m.stop();
        loadgen().set_meter(nullptr);
        return r;
    }

    /// RAID-layer counters the per-layer metrics read.
    struct RaidCounters {
        uint64_t reconstructed_sectors = 0;
        uint64_t rmw_reads = 0;
    };

    LoadGen &
    loadgen()
    {
        if (!loadgen_) {
            loadgen_ = std::make_unique<LoadGen>(
                rig_->loop.get(), rig_->arr.get(), image_.get(), tracer_,
                rig_->spans);
        }
        return *loadgen_;
    }

    DevTotals
    totals() const
    {
        DevTotals t;
        for (uint32_t i = 0; i < rig_->ndev(); ++i)
            t.add(rig_->stats(i));
        return t;
    }

    RaidCounters
    raid_counters() const
    {
        RaidCounters c;
        if (auto *v = dynamic_cast<raizn::RaiznVolume *>(rig_->arr.get()))
            c.reconstructed_sectors = v->stats().reconstructed_sectors;
        if (auto *v = dynamic_cast<raizn::MdVolume *>(rig_->arr.get()))
            c.rmw_reads = v->stats().rmw_reads;
        return c;
    }

    void
    account(const PhaseResult &r, const char *what)
    {
        out_->attempted += r.attempted;
        out_->failed += r.failed + r.mismatched;
        uint64_t lost = r.attempted - r.ops - r.failed - r.mismatched;
        if (r.failed != 0)
            problem(std::string(what) + ": " + std::to_string(r.failed) +
                    " ops returned an error");
        if (r.mismatched != 0)
            problem(std::string(what) + ": " + std::to_string(r.mismatched) +
                    " reads returned wrong bytes");
        if (lost != 0) {
            out_->failed += lost;
            problem(std::string(what) + ": " + std::to_string(lost) +
                    " ops never completed");
        }
    }

    void problem(std::string p) { out_->problems.push_back(std::move(p)); }
    void layer(const std::string &name, double v)
    {
        out_->layers.emplace_back(name, v);
    }

    Tracer *tracer_;
    RoundResult *out_;
    uint64_t t0_;
    std::unique_ptr<Image> image_;
    std::unique_ptr<Rig> rig_;
    std::unique_ptr<LoadGen> loadgen_;
    PhaseResult write_, read_;
    DevTotals s_setup_, s_write_, s_read_;
    RaidCounters raid_setup_, raid_write_, raid_read_;
    uint64_t pp_log_bytes_ = 0, parity_bytes_ = 0;
    raizn::Histogram service_;
    uint64_t events0_ = 0;
    uint64_t measure0_ = 0;
    HostChunks write_host_, read_host_, rebuild_host_;
    Tick rebuild_virt_ = 0;
    size_t rebuilds_ = 0;
    double rebuild_ratio_ = 0;
};

void
Round::finish()
{
    RoundResult &o = *out_;
    o.phase_host_ns = host_now_ns() - measure0_;
    o.write_mib_s = write_.mib_s();
    o.read_mib_s = read_.mib_s();
    o.write_p50_us = us(write_.latency.p50());
    o.write_p999_us = us(write_.latency.p999());
    o.read_p50_us = us(read_.latency.p50());
    o.read_p999_us = us(read_.latency.p999());
    o.write_samples = write_.latency.count();
    o.read_samples = read_.latency.count();
    DevTotals dw = s_write_ - s_setup_;
    o.waf = ratio(static_cast<double>(dw.sectors_written * kSectorSize),
                  static_cast<double>(write_.bytes));
    o.rebuilds = std::max<size_t>(rebuilds_, 1);
    o.rebuild_s = static_cast<double>(rebuild_virt_) / 1e9 /
        static_cast<double>(o.rebuilds);
    o.write_bytes = write_.bytes;
    o.read_bytes = read_.bytes;
    o.write_host_ns = write_host_.ns();
    o.read_host_ns = read_host_.ns();
    o.rebuild_host_ns = rebuild_host_.ns();
    o.host_write_mib_s = o.host_write_rate(write_host_.total());
    o.host_read_mib_s = o.host_read_rate(read_host_.total());
    o.host_rebuild_s = o.host_rebuild_time(rebuild_host_.total());

    raizn::obs::LedgerAudit audit = rig_->ledger->audit();
    if (!audit.ok())
        problem("ledger audit: " + audit.summary());
    if (tracer_ == nullptr)
        return;

    // ---- Per-layer metrics (traced rounds) ---------------------------
    const std::string &A = rig_->array_layer;
    const std::string &D = rig_->device_layer;
    auto tot = [&](const std::string &n) -> const SpanTotals & {
        return tracer_->totals(tracer_->intern(n));
    };
    double wall = static_cast<double>(o.phase_host_ns);
    double user_ops = static_cast<double>(write_.ops + read_.ops);
    double user_bytes = static_cast<double>(write_.bytes + read_.bytes);
    double write_ops = static_cast<double>(write_.ops);
    double write_bytes = static_cast<double>(write_.bytes);

    for (const char *s : {".write", ".read", ".complete"}) {
        const SpanTotals &t = tot(A + s);
        layer(A + s + ".host_self_ns", per_call(t));
        layer(A + s + ".host_self_frac",
              ratio(static_cast<double>(t.host_self_ns), wall));
    }
    const SpanTotals &sub = tot(D + ".submit");
    layer(D + ".submit.host_ns", per_call(sub));
    layer(D + ".submit.host_self_frac",
          ratio(static_cast<double>(sub.host_self_ns), wall));

    AllocCount al;
    for (const char *s :
         {".write", ".read", ".complete", ".reset", ".rebuild"}) {
        al.allocs += tot(A + s).alloc.allocs;
        al.bytes += tot(A + s).alloc.bytes;
    }
    layer(A + ".alloc_bytes_per_user_byte",
          ratio(static_cast<double>(al.bytes), user_bytes));
    layer(A + ".allocs_per_op", ratio(static_cast<double>(al.allocs),
                                      user_ops));
    layer(A + ".subios_per_write",
          ratio(static_cast<double>(dw.writes + dw.appends), write_ops));
    layer(A + ".pp_log_bytes_per_user_byte",
          ratio(static_cast<double>(pp_log_bytes_), write_bytes));
    layer(A + ".parity_bytes_per_user_byte",
          ratio(static_cast<double>(parity_bytes_), write_bytes));
    if (rig_->raizn()) {
        layer("raizn.reconstructed_sectors_per_read",
              ratio(static_cast<double>(raid_read_.reconstructed_sectors -
                                        raid_write_.reconstructed_sectors),
                    static_cast<double>(read_.ops)));
    } else {
        layer("mdraid.rmw_reads_per_write",
              ratio(static_cast<double>(raid_write_.rmw_reads -
                                        raid_setup_.rmw_reads),
                    write_ops));
    }
    layer(A + ".rebuild.dev_read_bytes_per_rebuilt_byte", rebuild_ratio_);

    DevTotals dr = s_read_ - s_setup_;
    double user_mib = user_bytes / kMiBd;
    layer(D + ".cmds_per_user_mib.read",
          ratio(static_cast<double>(dr.reads), user_mib));
    layer(D + ".cmds_per_user_mib.write",
          ratio(static_cast<double>(dr.writes), user_mib));
    layer(D + ".cmds_per_user_mib.append",
          ratio(static_cast<double>(dr.appends), user_mib));
    layer(D + ".cmds_per_user_mib.reset",
          ratio(static_cast<double>(dr.zone_resets), user_mib));
    layer(D + ".cmds_per_user_mib.flush",
          ratio(static_cast<double>(dr.flushes), user_mib));
    layer(D + ".virt_service_us.p50", us(service_.p50()));
    layer(D + ".virt_service_us.p999", us(service_.p999()));
    layer(D + ".busy_frac",
          ratio(static_cast<double>(dw.busy_ns),
                static_cast<double>(rig_->units) * rig_->ndev() *
                    static_cast<double>(write_.elapsed)));
    if (rig_->raizn()) {
        layer("zns.zone_resets", static_cast<double>(dw.zone_resets));
    } else {
        layer("conv.gc_page_copies_per_user_page",
              ratio(static_cast<double>(dw.gc_page_copies),
                    write_bytes / kSectorSize));
    }

    double events = static_cast<double>(rig_->loop->events_processed() -
                                        events0_);
    const SpanTotals &sim = tot("sim.run");
    layer("sim.events_per_user_op",
          ratio(static_cast<double>(write_.events + read_.events), user_ops));
    layer("sim.host_ns_per_event",
          ratio(static_cast<double>(sim.host_self_ns), events));
    layer("sim.host_self_frac",
          ratio(static_cast<double>(sim.host_self_ns), wall));
    layer("wkld.verify.host_ns", per_call(tot("wkld.verify")));
    layer("wkld.host_self_frac",
          ratio(static_cast<double>(tot("wkld.issue").host_self_ns +
                                    tot("wkld.complete").host_self_ns +
                                    tot("wkld.verify").host_self_ns),
                wall));
}

// ---- Workloads -------------------------------------------------------

/// Every member once, in an order drawn from the seed.
std::vector<uint32_t>
rebuild_order(raizn::Rng &rng, uint32_t ndev)
{
    std::vector<uint32_t> order(ndev);
    for (uint32_t i = 0; i < ndev; ++i)
        order[i] = i;
    for (uint32_t i = ndev - 1; i > 0; --i)
        std::swap(order[i], order[rng.next_below(i + 1)]);
    return order;
}

/// Data-mode RAIZN geometry: 5.25 MiB zones, so one logical zone holds
/// exactly 1344 16 KiB writes and stored media stays small.
Scale
data_scale()
{
    Scale sc;
    sc.zone_cap_sectors = 1344;
    sc.data_mode = raizn::DataMode::kStore;
    return sc;
}

/// RAIZN, data mode: 16 KiB zone-sequential writes (nearly all partial
/// stripes) from 8 zone writers, then verified 16 KiB random reads,
/// then every member is replaced and rebuilt in turn.
void
raizn_partial_verify(Round &rd, const RoundOptions &o)
{
    Scale sc = data_scale();
    rd.build(true, sc);
    uint64_t zc = rd.arr().zone_capacity();
    raizn::Rng rng(subseed(o.seed, 1));
    std::vector<uint64_t> written;
    std::vector<Extent> ext;
    std::vector<std::pair<uint32_t, uint64_t>> wps;
    std::vector<Job> writers;
    for (uint32_t z = 0; z < 8; ++z) {
        uint64_t n = zc - rng.next_below(97);
        written.push_back(n);
        ext.push_back({z * zc, n});
        wps.emplace_back(z, n);
        writers.push_back(seq_fill(rng, z * zc, n, kWrite16K, zc,
                                   writer_qd(rng, z)));
    }
    rd.set_image(std::make_unique<Image>(zc, written, subseed(o.seed, 2)));
    std::vector<Job> reads = {rand_job(rng, ext, 16384, k16K, 1, 24)};
    std::vector<uint32_t> order = rebuild_order(rng, sc.num_devices);
    std::vector<Job> fg = rebuild_load(rng, ext, sc.num_devices);
    rd.end_setup();

    rd.write(writers);
    rd.check_wps(wps);
    rd.end_write();
    if (o.plant_mismatch)
        rd.image().corrupt(reads[0].ops[0].lba);
    rd.read(reads);
    rd.end_read();
    rd.rebuild(order, fg);
    rd.finish();
}

/// RAIZN, timing-only: primed during set-up; then six cycles in which 8
/// jobs at QD64 reset their two logical zones and rewrite them with
/// 1 MiB (768 KiB..1.25 MiB) full-stripe sequential writes; then 64 KiB
/// (32..96 KiB) random reads at QD256; then every member is replaced
/// and rebuilt in turn.
void
raizn_fullstripe(Round &rd, const RoundOptions &o)
{
    Scale sc;
    rd.build(true, sc);
    uint64_t zc = rd.arr().zone_capacity();
    uint64_t cap = rd.arr().capacity();
    raizn::Rng rng(subseed(o.seed, 1));
    constexpr uint32_t kJobs = 8, kCycles = 6;
    constexpr Sizes kStripes{192, 320, 64}; // whole 256 KiB stripes
    uint64_t region = 2 * zc; // two logical zones per job
    std::vector<std::vector<Job>> cycles;
    for (uint32_t c = 0; c < kCycles; ++c) {
        std::vector<Job> jobs;
        for (uint32_t j = 0; j < kJobs; ++j) {
            // Every cycle but the last leaves a seeded tail unwritten.
            uint64_t n = c + 1 < kCycles
                ? region - 64 * rng.next_below(region / 64 / 8)
                : region;
            jobs.push_back(seq_fill(rng, j * region, n, kStripes, zc, 64));
        }
        cycles.push_back(std::move(jobs));
    }
    // The prime leaves a seeded part of the last zone unwritten, so
    // the amount to rebuild varies a little with the seed.
    uint64_t primed = cap - 64 * rng.next_below(zc / 64 / 2);
    std::vector<Extent> ext = {{0, primed}};
    std::vector<uint32_t> zones;
    std::vector<std::pair<uint32_t, uint64_t>> wps;
    for (uint32_t z = 0; z < cap / zc; ++z) {
        if (z < 2 * kJobs)
            zones.push_back(z);
        wps.emplace_back(z, std::min(zc, primed - std::min(primed, z * zc)));
    }
    std::vector<Job> reads = {
        rand_job(rng, ext, 196608, Sizes{8, 24, 4}, 4, 64)};
    std::vector<uint32_t> order = rebuild_order(rng, sc.num_devices);
    std::vector<Job> fg = rebuild_load(rng, ext, sc.num_devices);
    rd.setup_write({seq_fill(rng, 0, primed, Sizes{256, 256, 1}, zc, 32)});
    rd.end_setup();

    for (uint32_t c = 0; c < kCycles; ++c) {
        rd.reset_zones(zones);
        rd.write(cycles[c]);
    }
    rd.check_wps(wps);
    rd.end_write();
    rd.read(reads);
    rd.end_read();
    rd.rebuild(order, fg);
    rd.finish();
}

/// RAIZN, data mode: filled during set-up with 256 KiB writes; one
/// member fails; 16 KiB writes and verified 16 KiB reads run degraded;
/// the member is replaced and rebuilt, then every other member in
/// turn, and a sample of everything is read back and verified.
void
raizn_degraded_rebuild(Round &rd, const RoundOptions &o)
{
    Scale sc = data_scale();
    rd.build(true, sc);
    uint64_t zc = rd.arr().zone_capacity();
    raizn::Rng rng(subseed(o.seed, 1));
    constexpr uint32_t kFillZones = 2, kZones = kFillZones + 8;
    std::vector<uint64_t> written;
    std::vector<Extent> ext;
    std::vector<std::pair<uint32_t, uint64_t>> wps;
    std::vector<Job> fillers, writers;
    for (uint32_t z = 0; z < kZones; ++z) {
        // Fill zones are written whole: a partial last stripe left by
        // the fill moves degraded write p99.9 by 12% from seed to seed.
        uint64_t n = z < kFillZones ? zc : zc - rng.next_below(97);
        written.push_back(n);
        ext.push_back({z * zc, n});
        wps.emplace_back(z, n);
        if (z < kFillZones)
            fillers.push_back(
                seq_fill(rng, z * zc, n, Sizes{64, 64, 1}, zc, 8));
        else
            writers.push_back(seq_fill(rng, z * zc, n, kWrite16K, zc,
                                       writer_qd(rng, z - kFillZones)));
    }
    rd.set_image(std::make_unique<Image>(zc, written, subseed(o.seed, 2)));
    std::vector<Job> reads = {rand_job(rng, ext, 16384, k16K, 1, 24)};
    std::vector<Job> post = {rand_job(rng, ext, 4096, k16K, 1, 24)};
    // Member 0 fails: which member fails changes the degraded write
    // path enough to dominate every other seed effect. The others are
    // rebuilt afterwards in a seeded order.
    std::vector<uint32_t> order = rebuild_order(rng, sc.num_devices);
    std::swap(*std::find(order.begin(), order.end(), 0u), order[0]);
    std::vector<Job> fg = rebuild_load(rng, ext, sc.num_devices);
    rd.setup_write(fillers);
    rd.end_setup();

    rd.fail(order[0]);
    rd.write(writers);
    rd.check_wps(wps);
    rd.end_write();
    if (o.plant_mismatch)
        rd.image().corrupt(reads[0].ops[0].lba);
    rd.read(reads);
    rd.end_read();
    rd.rebuild(order, fg);
    rd.verify(post);
    rd.finish();
}

/// mdraid over conventional SSDs, timing-only: primed during set-up,
/// then 16 KiB random overwrites at QD64 past one full capacity (FTL GC
/// reaches steady state), 16 KiB random reads, and a resync of every
/// member in turn while overwrites continue at QD4.
void
mdraid_overwrite(Round &rd, const RoundOptions &o)
{
    Scale sc;
    sc.zones_per_device = 12; // 384 MiB members
    rd.build(false, sc);
    uint64_t cap = rd.arr().capacity();
    raizn::Rng rng(subseed(o.seed, 1));
    std::vector<Extent> all = {{0, cap}};
    // 4 KiB-aligned, so some writes straddle two chunks.
    std::vector<Job> writes = {rand_job(rng, all, cap * 5 / 16, k16K, 1, 64)};
    std::vector<Job> reads = {rand_job(rng, all, 131072, k16K, 1, 64)};
    std::vector<uint32_t> order = rebuild_order(rng, sc.num_devices);
    std::vector<Job> fg = rebuild_load(rng, all, sc.num_devices);
    rd.setup_write({seq_fill(rng, 0, cap, Sizes{256, 256, 1}, cap, 32)});
    rd.end_setup();

    rd.write(writes);
    rd.end_write();
    rd.read(reads);
    rd.end_read();
    rd.rebuild(order, fg, true);
    rd.finish();
}

} // namespace

bool
parse_workload(const std::string &name, Workload *out)
{
    static const std::pair<const char *, Workload> kNames[] = {
        {"raizn-partial-verify", Workload::kRaiznPartialVerify},
        {"raizn-fullstripe", Workload::kRaiznFullstripe},
        {"raizn-degraded-rebuild", Workload::kRaiznDegradedRebuild},
        {"mdraid-overwrite", Workload::kMdraidOverwrite},
    };
    for (const auto &[n, w] : kNames) {
        if (name == n) {
            *out = w;
            return true;
        }
    }
    return false;
}

double
RoundResult::host_write_rate(uint64_t ns) const
{
    return ratio(static_cast<double>(write_bytes) / kMiBd,
                 static_cast<double>(ns) / 1e9);
}

double
RoundResult::host_read_rate(uint64_t ns) const
{
    return ratio(static_cast<double>(read_bytes) / kMiBd,
                 static_cast<double>(ns) / 1e9);
}

double
RoundResult::host_rebuild_time(uint64_t ns) const
{
    return static_cast<double>(ns) / 1e9 / static_cast<double>(rebuilds);
}

std::vector<double>
RoundResult::virtual_metrics() const
{
    return {write_mib_s,  read_mib_s,    write_p50_us, write_p999_us,
            read_p50_us,  read_p999_us,  waf,          rebuild_s,
            static_cast<double>(write_samples),
            static_cast<double>(read_samples)};
}

RoundResult
run_round(Workload w, const RoundOptions &opts, Tracer *tracer)
{
    RoundResult out;
    Round rd(tracer, &out);
    switch (w) {
      case Workload::kRaiznPartialVerify:
        raizn_partial_verify(rd, opts);
        break;
      case Workload::kRaiznFullstripe:
        raizn_fullstripe(rd, opts);
        break;
      case Workload::kRaiznDegradedRebuild:
        raizn_degraded_rebuild(rd, opts);
        break;
      case Workload::kMdraidOverwrite:
        mdraid_overwrite(rd, opts);
        break;
    }
    return out;
}

FidelityResult
run_fidelity()
{
    // Exactly bench_fig9_compare's RAIZN "write" and "randread" points
    // at 1 MiB and 64 KiB (bench_util.h run_seq / run_rand_read).
    constexpr uint64_t kIosPerJob = 1500;
    FidelityResult f;
    {
        auto rig = make_rig(true, Scale{}, nullptr);
        uint64_t zc = rig->arr->zone_capacity();
        uint64_t per_job = rig->arr->capacity() / 8 / zc * zc / 256 * 256;
        std::vector<Job> jobs;
        for (uint32_t j = 0; j < 8; ++j) {
            jobs.push_back(seq_job(j * per_job,
                                   std::min(kIosPerJob, per_job / 256), 256,
                                   64));
        }
        LoadGen d(rig->loop.get(), rig->arr.get(), nullptr, nullptr, {});
        f.write_mib_s = d.write(jobs).mib_s();
    }
    {
        auto rig = make_rig(true, Scale{}, nullptr);
        uint64_t cap = rig->arr->capacity();
        LoadGen d(rig->loop.get(), rig->arr.get(), nullptr, nullptr, {});
        d.write({seq_job(0, cap / 256, 256, 32)});
        raizn::Rng rng(7);
        Job rr;
        rr.qd = 256;
        for (uint64_t k = 0; k < 8 * kIosPerJob; ++k)
            rr.ops.push_back({rng.next_below(cap / 16) * 16, 16});
        f.randread_mib_s = d.read({rr}).mib_s();
    }
    return f;
}

} // namespace e2e
