/**
 * @file
 * Closed-loop, fio-style load generator over the ZonedArray interface:
 * each job keeps up to `qd` operations in flight and issues its next
 * operation only when one completes. Concurrency is simulated on the
 * virtual clock; the host runs one thread. The issue order and completion
 * bookkeeping follow src/wkld/runner.cc exactly, so a job list shaped
 * like a figure bench's reproduces that figure's numbers.
 *
 * Operations come precomputed from the workload's seed; the generator
 * only replays them. In data mode every write carries its bytes from an
 * Image and every read is compared byte for byte against it.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "array/zoned_array.h"
#include "common/histogram.h"
#include "tracer.h"

namespace e2e {

struct Op {
    uint64_t lba = 0;
    uint32_t nsectors = 0;
};

struct Job {
    std::vector<Op> ops;
    uint32_t qd = 1;
};

/**
 * Expected contents of every written sector, stored per logical zone
 * (only the written prefix of each zone). Filled from the seed during
 * set-up; writes copy their payload from here and reads verify
 * against it.
 */
class Image
{
  public:
    /// `zone_sectors` = logical zone capacity; `written[z]` sectors of
    /// zone z will be written from its start.
    Image(uint64_t zone_sectors, const std::vector<uint64_t> &written,
          uint64_t seed);

    const uint8_t *at(uint64_t lba) const;
    /// Flips one byte of the expected data (planted-mismatch test).
    void corrupt(uint64_t lba);

  private:
    uint64_t zone_sectors_;
    std::vector<uint64_t> base_; ///< byte offset of each zone's prefix
    std::vector<uint8_t> data_;
};

/// Span names the load generator opens (interned by the workload).
struct LoadSpans {
    uint32_t issue = 0; ///< wkld.issue: building and issuing ops
    uint32_t complete = 0; ///< wkld.complete: the generator's completion
    uint32_t verify = 0; ///< wkld.verify: byte comparison
    uint32_t write = 0; ///< <array>.write: the call into the array
    uint32_t read = 0; ///< <array>.read
    uint32_t sim = 0; ///< sim.run: EventLoop::run
};

struct PhaseResult {
    uint64_t ops = 0; ///< acked operations
    uint64_t attempted = 0;
    uint64_t failed = 0; ///< error status
    uint64_t mismatched = 0; ///< acked reads whose bytes differ
    uint64_t bytes = 0; ///< acked user bytes
    raizn::Tick elapsed = 0; ///< start to last completion (virtual)
    raizn::Histogram latency; ///< per-op virtual latency (ns)
    uint64_t events = 0; ///< EventLoop::run return values

    double mib_s() const;
    void add(const PhaseResult &o); ///< sequential phases back to back
};

/**
 * Host time of one measured phase, cut into chunks of kPerChunk
 * operation completions. A seed fixes the simulated event order, so
 * chunk k covers the same work in every round of one seed, and rounds
 * can be compared chunk by chunk.
 */
class HostChunks
{
  public:
    static constexpr uint32_t kPerChunk = 32;

    /// Opens a stretch of timed work.
    void
    start()
    {
        t_ = host_now_ns();
        n_ = 0;
    }
    /// One completion; closes a chunk every kPerChunk of them.
    void
    tick()
    {
        if (++n_ == kPerChunk)
            cut();
    }
    /// Closes the stretch with its last, partial chunk.
    void stop() { cut(); }

    const std::vector<uint64_t> &ns() const { return ns_; }
    uint64_t total() const;

  private:
    void cut();

    uint64_t t_ = 0;
    uint32_t n_ = 0;
    std::vector<uint64_t> ns_;
};

class LoadGen
{
  public:
    /// `image` null = timing-only; `tracer` null = untraced.
    LoadGen(raizn::EventLoop *loop, raizn::ZonedArray *arr,
            const Image *image, Tracer *tracer, const LoadSpans &spans)
        : loop_(loop), arr_(arr), image_(image), tracer_(tracer),
          spans_(spans)
    {
    }

    /// With `stop`, jobs issue nothing more once *stop is true (a
    /// foreground load that runs until a background task finishes).
    PhaseResult write(const std::vector<Job> &jobs,
                      const bool *stop = nullptr);
    PhaseResult read(const std::vector<Job> &jobs,
                     const bool *stop = nullptr);
    /// EventLoop::run inside a sim.run span; returns events processed.
    uint64_t drain();
    Tracer *tracer() const { return tracer_; }
    /// Each completion from now on ticks `m` (null = none).
    void set_meter(HostChunks *m) { meter_ = m; }
    uint64_t next_req() { return ++req_seq_; }

  private:
    struct JobState;
    PhaseResult run(const std::vector<Job> &jobs, bool is_write,
                    const bool *stop);
    void issue(JobState &js, PhaseResult &res, bool is_write);

    raizn::EventLoop *loop_;
    raizn::ZonedArray *arr_;
    const Image *image_;
    Tracer *tracer_;
    LoadSpans spans_;
    uint64_t req_seq_ = 0;
    const bool *stop_ = nullptr;
    HostChunks *meter_ = nullptr;
    /// Completion handler of the phase in progress (set by run()).
    std::function<void(JobState &, const Op &, raizn::Tick, uint64_t,
                       raizn::IoResult)>
        done_;
};

} // namespace e2e
