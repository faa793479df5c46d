#include "array/throttle.h"

#include <algorithm>

#include "sim/event_loop.h"

namespace raizn {

namespace {
constexpr double kSecNs = 1e9;
constexpr double kEwmaAlpha = 0.2;
} // namespace

void
LatencyEwma::add(uint64_t sample)
{
    ns = ns == 0.0
        ? static_cast<double>(sample)
        : kEwmaAlpha * static_cast<double>(sample) + (1.0 - kEwmaAlpha) * ns;
}

RebuildThrottle::RebuildThrottle(EventLoop *loop, RebuildThrottleConfig cfg)
    : loop_(loop), cfg_(cfg), rate_(cfg.rate_sectors_per_sec),
      tokens_(static_cast<double>(cfg.burst_sectors)),
      last_refill_ns_(loop->now())
{
}

void
RebuildThrottle::refill()
{
    uint64_t now = loop_->now();
    if (now <= last_refill_ns_)
        return;
    double earned = static_cast<double>(now - last_refill_ns_) *
        static_cast<double>(rate_) / kSecNs;
    tokens_ = std::min(tokens_ + earned,
                       static_cast<double>(cfg_.burst_sectors));
    last_refill_ns_ = now;
}

bool
RebuildThrottle::try_acquire(uint64_t sectors)
{
    if (!enabled())
        return true;
    refill();
    if (tokens_ + 1e-9 < static_cast<double>(sectors)) {
        stalls_++;
        return false;
    }
    tokens_ -= static_cast<double>(sectors);
    return true;
}

uint64_t
RebuildThrottle::ns_until(uint64_t sectors) const
{
    if (!enabled())
        return 0;
    double deficit = static_cast<double>(sectors) - tokens_;
    if (deficit <= 0)
        return 0;
    return static_cast<uint64_t>(deficit * kSecNs /
                                 static_cast<double>(rate_)) + 1;
}

void
RebuildThrottle::observe_foreground_latency(uint64_t ns)
{
    ewma_.add(ns);
    if (!cfg_.adaptive || !enabled() || baseline_ns_ <= 0.0)
        return;
    if (ewma_.ns > cfg_.backoff_factor * baseline_ns_) {
        uint64_t next = std::max(rate_ / 2, cfg_.min_rate_sectors_per_sec);
        if (next < rate_) {
            rate_ = next;
            backoffs_++;
        }
    } else if (ewma_.ns < cfg_.restore_factor * baseline_ns_ &&
               rate_ < cfg_.rate_sectors_per_sec) {
        rate_ = std::min(rate_ * 2, cfg_.rate_sectors_per_sec);
    }
}

} // namespace raizn
