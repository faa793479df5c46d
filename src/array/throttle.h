/**
 * @file
 * Token-bucket rate limiter for online rebuild/resync traffic
 * (Fig. 11/12 interplay). Rebuild I/O competes with degraded
 * foreground service; the bucket caps rebuild sector throughput, and
 * the adaptive mode additionally halves the rate whenever the
 * foreground latency EWMA rises above a configurable multiple of the
 * baseline captured at rebuild start, restoring it as latency recovers.
 *
 * Tokens are denominated in sectors and refill against the simulated
 * clock (EventLoop::now()), so behaviour is fully deterministic.
 */
#pragma once

#include <cstdint>

namespace raizn {

class EventLoop;

struct RebuildThrottleConfig {
    /// Steady-state rebuild budget in sectors per second. 0 disables
    /// throttling entirely (legacy full-speed rebuild).
    uint64_t rate_sectors_per_sec = 0;
    /// Bucket capacity: the largest burst the pump may issue at once.
    uint64_t burst_sectors = 256;
    /// When adapting, never drop below this rate (rebuild must finish).
    uint64_t min_rate_sectors_per_sec = 256;
    /// Enable latency-feedback adaptation.
    bool adaptive = false;
    /// Foreground latency EWMA above `backoff_factor * baseline` halves
    /// the rate; EWMA back under `restore_factor * baseline` doubles it
    /// (up to the configured cap).
    double backoff_factor = 2.0;
    double restore_factor = 1.25;
};

/// Foreground write latency EWMA (alpha 0.2); the first sample seeds
/// it.
struct LatencyEwma {
    double ns = 0.0;
    void add(uint64_t sample);
};

class RebuildThrottle {
  public:
    RebuildThrottle(EventLoop *loop, RebuildThrottleConfig cfg);

    bool enabled() const { return cfg_.rate_sectors_per_sec > 0; }

    /// Consumes `sectors` tokens if available (always succeeds when
    /// throttling is disabled). On failure the caller should sleep for
    /// ns_until(sectors) and retry.
    bool try_acquire(uint64_t sectors);

    /// Nanoseconds of refill needed before `sectors` tokens are
    /// available. 0 when they already are.
    uint64_t ns_until(uint64_t sectors) const;

    /// Feeds one foreground write latency sample; in adaptive mode this
    /// drives the backoff/restore state machine.
    void observe_foreground_latency(uint64_t ns);

    /// Baseline foreground latency (ns) the adaptive mode compares
    /// against; captured by the caller before rebuild load starts.
    void set_baseline_latency(double ns) { baseline_ns_ = ns; }

    uint64_t current_rate() const { return rate_; }
    uint64_t stalls() const { return stalls_; }
    uint64_t backoffs() const { return backoffs_; }

  private:
    void refill();

    EventLoop *loop_;
    RebuildThrottleConfig cfg_;
    uint64_t rate_; ///< current sectors/s (adaptive moves this)
    double tokens_;
    uint64_t last_refill_ns_ = 0;
    uint64_t stalls_ = 0;
    uint64_t backoffs_ = 0;
    LatencyEwma ewma_; ///< samples seen since the bucket was created
    double baseline_ns_ = 0.0;
};

} // namespace raizn
