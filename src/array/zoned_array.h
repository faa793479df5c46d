/**
 * @file
 * ZonedArray: the shared interface every RAID engine in this repo sits
 * behind — the paper's RaiznVolume, the md-raid comparison stack, and
 * the generic ZonedEngine modes (RAID-0/1/5/6/10, auto). The base owns
 * everything the modes would otherwise re-implement: the retry/backoff
 * + watchdog submit path (src/fault), per-device health tracking with
 * escalation into mark_device_failed, the failure lifecycle (hot-spare
 * failover into rebuild_device, rebuild pacing against foreground
 * write latency), and the metrics/trace attachment (per-device
 * DeviceStats + latency histograms, health counters, total-latency
 * histograms).
 *
 * Subclasses provide the data path (read/write/flush/zone management),
 * the failure semantics (mark_device_failed / rebuild), and a stats
 * struct; the base reaches into that struct through StatCells so each
 * engine keeps its own counter layout and metric names.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "array/raid_mode.h"
#include "array/throttle.h"
#include "fault/health.h"
#include "fault/retry.h"
#include "zns/block_device.h"

namespace raizn {

namespace obs {
class MetricsRegistry;
class TraceRecorder;
class LatencyMetric;
class Timeline;
} // namespace obs

class EventLoop;

/// Flags on a logical sequential write (kernel REQ_FUA / REQ_PREFLUSH).
struct WriteFlags {
    bool fua = false;
    bool preflush = false;
    /// Byte-provenance of this logical write. Defaults to user data;
    /// internal writers reusing the volume write path (env GC
    /// relocation) override it so their data sub-I/Os carry the real
    /// cause and stay out of the acked-user-bytes WAF denominator.
    /// Parity/WAL fan-out keeps its own cause regardless of origin.
    obs::Cause origin = obs::Cause::kUserData;
};

using StatusCb = std::function<void(Status)>;

class ZonedArray
{
  public:
    using ProgressCb = std::function<void(uint64_t done, uint64_t total)>;

    /// Retry/backoff, watchdog, and health-escalation knobs.
    struct ResilienceConfig {
        RetryPolicy retry;
        HealthConfig health;
    };

    /// Outcome of one scrub pass over the written stripes.
    struct ScrubReport {
        uint64_t stripes_scanned = 0;
        uint64_t parity_mismatches = 0; ///< XOR(data) != parity
        uint64_t crc_mismatches = 0; ///< units failing their checksums
        uint64_t repaired_units = 0; ///< data units read-repaired
        uint64_t repaired_parity = 0; ///< parity units rewritten
        uint64_t unrecoverable = 0; ///< mismatches scrub could not fix
    };

    virtual ~ZonedArray();
    ZonedArray(const ZonedArray &) = delete;
    ZonedArray &operator=(const ZonedArray &) = delete;

    // ---- Identity / geometry ---------------------------------------
    virtual RaidMode mode() const = 0;
    /// Device failures this array keeps serving through.
    virtual uint32_t fault_tolerance() const = 0;
    /// False for arrays over conventional devices (md-raid): no zones,
    /// reset/finish are unsupported and writes may overwrite.
    virtual bool zoned() const { return true; }
    virtual uint64_t capacity() const = 0;
    virtual uint32_t num_zones() const { return 0; }
    virtual uint64_t zone_capacity() const { return 0; }
    /// Report Zones for the logical device (zoned arrays only).
    virtual Result<ZoneInfo> zone_info(uint32_t zone) const;

    // ---- Data path -------------------------------------------------
    virtual void read(uint64_t lba, uint32_t nsectors, IoCallback cb) = 0;
    /// Sequential zone write (zoned) / positional write (conventional);
    /// `data` empty = timing-only.
    virtual void write(uint64_t lba, std::vector<uint8_t> data,
                       WriteFlags flags, IoCallback cb) = 0;
    virtual void write_len(uint64_t lba, uint32_t nsectors,
                           WriteFlags flags, IoCallback cb) = 0;
    virtual void flush(IoCallback cb) = 0;
    virtual void reset_zone(uint32_t zone, IoCallback cb);
    virtual void finish_zone(uint32_t zone, IoCallback cb);

    // ---- Fault management ------------------------------------------
    /// Marks a device failed: reads reconstruct, writes omit it.
    virtual void mark_device_failed(uint32_t dev) = 0;
    /// First failed device, -1 when the array is healthy.
    virtual int failed_device() const = 0;
    virtual bool degraded() const { return failed_device() >= 0; }
    /// Rebuilds a replaced device from redundancy.
    virtual void rebuild_device(uint32_t dev, ProgressCb progress,
                                StatusCb done);
    /// Verifies redundancy (parity equations / mirror equality / CRC
    /// catalogs) across written stripes.
    virtual Status scrub_all(ScrubReport *report = nullptr);

    /// Replaces the retry policy and health thresholds (resets health
    /// history). Call before issuing IO.
    void set_resilience(const ResilienceConfig &rc);
    const HealthMonitor &health() const { return *health_; }

    /**
     * Attaches a hot spare (a fresh, formatted-blank device with the
     * same geometry). Non-owning; the spare must outlive the array or
     * be detached with set_spare(nullptr). An attached spare is the
     * failover switch: when a device is marked failed, a usable spare
     * is promoted into its slot and rebuilt in the background.
     */
    void set_spare(BlockDevice *spare) { spare_ = spare; }
    bool has_spare() const { return spare_ != nullptr; }

    // ---- Failure lifecycle -----------------------------------------
    /**
     * Policy for the automatic failure lifecycle (healthy -> suspect
     * -> failed -> rebuilding -> healthy) and for every rebuild's
     * pace. The throttle bounds rebuild traffic so degraded foreground
     * service keeps headroom; its adaptive mode backs off while the
     * foreground write latency rises above the pre-rebuild baseline.
     */
    struct LifecycleConfig {
        RebuildThrottleConfig throttle;
        /// Fired when an automatic rebuild finishes (or fails).
        std::function<void(uint32_t dev, Status s)> on_rebuild_done;
    };
    void set_lifecycle(LifecycleConfig lc) { lifecycle_ = std::move(lc); }

    // ---- Observability ---------------------------------------------
    /**
     * Hooks this array into the unified observability layer (src/obs):
     * the subclass stats struct under "<metric_prefix>.*", per-device
     * DeviceStats under "<dev_metric_prefix>.dev<i>.*" plus latency
     * histograms, and (when link_health_metrics()) per-device health
     * counters under "<metric_prefix>.health.dev<i>.*". Either pointer
     * may be null; pass nulls to detach.
     */
    void attach_observability(obs::MetricsRegistry *reg,
                              obs::TraceRecorder *trace);
    /// Registers gauge-refresh probes for timeseries sampling.
    virtual void install_timeline(obs::Timeline *tl) { (void)tl; }

    /**
     * Hooks every member device (and a later-promoted spare) into the
     * byte-provenance ledger: binds slot i to devs_[i] and installs
     * the device back-pointers, so device-layer recording and the
     * dev_submit untagged-funnel check both go live. Pass null to
     * detach. The acked-user-byte denominators (note_user_read/write)
     * are the volume subclass's job at its ack points.
     */
    void attach_ledger(obs::IoLedger *ledger);
    obs::IoLedger *ledger() const { return ledger_; }

    // ---- Introspection ---------------------------------------------
    uint32_t num_devices() const
    {
        return static_cast<uint32_t>(devs_.size());
    }
    BlockDevice *device(uint32_t i) const { return devs_[i]; }

  protected:
    /**
     * Pointers into the subclass's stats struct for the counters the
     * base maintains. Formed in the subclass's member-init list before
     * the stats struct is initialized — legal (no reads happen until
     * IO runs) and it keeps each engine's counter layout and metric
     * names intact.
     */
    struct StatCells {
        uint64_t *io_retries = nullptr;
        uint64_t *io_timeouts = nullptr;
        uint64_t *dev_errors = nullptr;
        uint64_t *spares_promoted = nullptr;
        uint64_t *auto_failovers = nullptr;
        uint64_t *throttle_stalls = nullptr; ///< rebuild IOs delayed
        /// Health edges; engines without the counters leave them null.
        uint64_t *health_suspects = nullptr;
        uint64_t *fail_slow_detected = nullptr;
    };

    ZonedArray(EventLoop *loop, std::vector<BlockDevice *> devs,
               StatCells cells);

    /// Data-path device submit: stage span + per-device latency, then
    /// the retrier/watchdog. Subclass admin paths may bypass it.
    void dev_submit(uint32_t dev, IoRequest req, IoCallback cb);

    /**
     * Called with a persistent (post-retry) device error: counts it
     * and escalates to mark_device_failed when the health evidence
     * warrants. Returns true when `dev` is now treated as failed, i.e.
     * the caller should degrade instead of propagating.
     */
    bool escalate_dev_error(uint32_t dev, const Status &s);

    /// Reports `s` to `done` (when set) one tick later, off the
    /// caller's stack.
    void complete_later(StatusCb done, Status s);

    // ---- Failure lifecycle -----------------------------------------
    /**
     * Failover entry point, called by mark_device_failed: when a spare
     * is attached and usable (not failed; zone geometry equal to a
     * zoned member's, or at least a conventional member's sectors),
     * counts an auto failover and, off the error path,
     * promotes the spare and rebuilds `dev` onto it, reporting to
     * LifecycleConfig::on_rebuild_done. Otherwise the array stays
     * degraded with the spare left attached.
     */
    void maybe_start_auto_rebuild(uint32_t dev);
    /// Whether a failover of `dev` may start (checked again when the
    /// deferred promotion runs).
    virtual bool failover_ready(uint32_t dev) const
    {
        return is_marked_failed(dev);
    }
    /// Swaps the attached spare into slot `dev` and resets its health
    /// history. Subclasses extend it with their own bookkeeping.
    virtual void promote_spare(uint32_t dev);

    /**
     * Ack bookkeeping, once per logical write at its ack: ends
     * the request span (`span` 0 = none), records the total latency
     * since `t0`, feeds it to the rebuild pacer's foreground EWMA, and
     * counts `user_sectors` acked user sectors (0 when the write failed
     * or was internal).
     */
    void note_write_ack(Tick t0, uint64_t span, uint32_t user_sectors);
    /// The same for a logical read (no pacer feed).
    void note_read_ack(Tick t0, uint64_t span, uint32_t user_sectors);

    /**
     * Rebuild pacing: rebuilds bracket their traffic with pacer_begin
     * / pacer_end, which create and drop the token bucket (when
     * LifecycleConfig::throttle sets a rate) with the foreground write
     * latency EWMA as its adaptive baseline.
     */
    void pacer_begin();
    void pacer_end();
    /**
     * The pacing gate for `sectors` of rebuild IO: true when they may
     * issue now. Otherwise counts a throttle stall and, unless a
     * wake-up is already armed, schedules `resume` for when the tokens
     * will be there; the caller stops issuing until then.
     */
    template <typename Resume>
    bool
    pacer_admit(uint64_t sectors, Resume &&resume)
    {
        if (throttle_ == nullptr || throttle_->try_acquire(sectors))
            return true;
        pacer_stall(sectors, std::forward<Resume>(resume));
        return false;
    }

    // ---- Subclass hooks --------------------------------------------
    /// Metric namespace for the array's own stats ("raizn", "raid5").
    virtual std::string metric_prefix() const = 0;
    /// Namespace for per-device stats ("zns" for raizn — historical —
    /// and the metric prefix for everything else).
    virtual std::string dev_metric_prefix() const
    {
        return metric_prefix();
    }
    /// Links the subclass stats struct into `reg` (obs::link_stats).
    virtual void link_stats_hook(obs::MetricsRegistry &reg) = 0;
    /// Whether per-device health counters get registry entries.
    virtual bool link_health_metrics() const { return true; }
    /// Re-wire anything that caches the retrier (set_resilience
    /// recreates it).
    virtual void on_resilience_changed() {}
    /// Health-monitor escalation edges land here (invoked only after
    /// construction completes): counts suspect / fail-slow verdicts and
    /// fails the device on kFailed.
    void on_health_event(uint32_t dev, HealthEvent ev);
    /// Whether `dev` is the/a failed device from escalate_dev_error's
    /// point of view. Multi-failure engines override.
    virtual bool is_marked_failed(uint32_t dev) const
    {
        return failed_device() == static_cast<int>(dev);
    }

    EventLoop *loop_;
    std::vector<BlockDevice *> devs_;
    StatCells cells_;

    // Resilience layer (hoisted from RaiznVolume / MdVolume).
    std::unique_ptr<HealthMonitor> health_;
    std::unique_ptr<IoRetrier> retrier_;
    BlockDevice *spare_ = nullptr; ///< non-owning hot spare

    // Observability: null when detached. Latency handles are resolved
    // once in attach_observability so the hot path never performs a
    // name lookup; the registry pointer is kept so health counters can
    // be re-linked when set_resilience recreates the monitor.
    obs::MetricsRegistry *reg_ = nullptr;
    obs::TraceRecorder *trace_ = nullptr;
    obs::IoLedger *ledger_ = nullptr;
    struct DevObs {
        obs::LatencyMetric *read_ns = nullptr;
        obs::LatencyMetric *write_ns = nullptr;
        obs::LatencyMetric *flush_ns = nullptr;
        obs::LatencyMetric *other_ns = nullptr;
    };
    std::vector<DevObs> dev_obs_;
    obs::LatencyMetric *write_lat_ = nullptr; ///< <prefix>.write.total_ns
    obs::LatencyMetric *read_lat_ = nullptr; ///< <prefix>.read.total_ns

    /// Guards scheduled events against array destruction.
    std::shared_ptr<bool> alive_;

  private:
    void note_foreground_write(uint64_t ns);
    void pacer_stall(uint64_t sectors, std::function<void()> resume);

    LifecycleConfig lifecycle_;
    std::unique_ptr<RebuildThrottle> throttle_; ///< while pacing
    LatencyEwma fg_write_ewma_; ///< since construction: the baseline
    bool pacer_armed_ = false; ///< a refill wake-up is scheduled
    uint64_t pacer_epoch_ = 0; ///< bumped per rebuild: stale wake-ups
};

} // namespace raizn
