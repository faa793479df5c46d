#include "wkld/runner.h"

#include <cassert>
#include <memory>

#include "common/rng.h"
#include "obs/prof/prof.h"
#include "sim/event_loop.h"

namespace raizn {

namespace {

/// Per-job driver: keeps queue_depth IOs outstanding until the stop
/// condition fires.
struct JobState {
    JobSpec spec;
    Rng rng;
    uint64_t next_off; ///< sequential position (sectors)
    uint64_t issued = 0;
    uint32_t outstanding = 0;
    bool stopped = false;
    bool finished = false;
    JobResult result;
    Tick start = 0;

    explicit JobState(const JobSpec &s)
        : spec(s), rng(s.seed), next_off(s.region_start)
    {
    }
};

} // namespace

WorkloadRunner::WorkloadRunner(EventLoop *loop, IoTarget *target)
    : loop_(loop), target_(target)
{
}

std::vector<JobResult>
WorkloadRunner::run(const std::vector<JobSpec> &jobs, Sampler *sampler)
{
    PROF_SCOPE("wkld.run");
    auto states = std::make_shared<std::vector<JobState>>();
    states->reserve(jobs.size());
    for (const JobSpec &s : jobs) {
        JobSpec spec = s;
        if (spec.region_len == 0)
            spec.region_len = target_->capacity() - spec.region_start;
        states->emplace_back(spec);
    }
    auto active = std::make_shared<size_t>(states->size());

    // One issuing function per job, kept alive by shared_ptr.
    auto issue = std::make_shared<std::function<void(JobState &)>>();
    *issue = [this, sampler, issue, active](JobState &job) {
        const JobSpec &s = job.spec;
        while (!job.stopped && job.outstanding < s.queue_depth) {
            // Stop conditions.
            if (s.io_limit && job.issued >= s.io_limit) {
                job.stopped = true;
                break;
            }
            if (s.time_limit && loop_->now() - job.start >= s.time_limit) {
                job.stopped = true;
                break;
            }
            uint64_t lba = 0;
            switch (s.mode) {
              case RwMode::kSeqWrite:
              case RwMode::kSeqRead:
                if (job.next_off + s.block_sectors >
                    s.region_start + s.region_len) {
                    job.stopped = true;
                    break;
                }
                lba = job.next_off;
                job.next_off += s.block_sectors;
                break;
              case RwMode::kRandRead:
              case RwMode::kRandWrite: {
                uint64_t slots = s.region_len / s.block_sectors;
                if (slots == 0) {
                    job.stopped = true;
                    break;
                }
                if (s.align_random) {
                    lba = s.region_start +
                        job.rng.next_below(slots) * s.block_sectors;
                } else {
                    lba = s.region_start +
                        job.rng.next_below(s.region_len -
                                           s.block_sectors + 1);
                }
                break;
              }
            }
            if (job.stopped)
                break;

            job.issued++;
            job.outstanding++;
            Tick submit = loop_->now();
            auto cb = [this, sampler, issue, active, &job,
                       submit](IoResult r) {
                Tick lat = loop_->now() - submit;
                job.outstanding--;
                if (r.status.is_ok()) {
                    job.result.ios++;
                    job.result.bytes +=
                        static_cast<uint64_t>(job.spec.block_sectors) *
                        kSectorSize;
                    job.result.latency.add(lat);
                    if (sampler) {
                        sampler->record(
                            loop_->now(),
                            static_cast<uint64_t>(
                                job.spec.block_sectors) *
                                kSectorSize,
                            lat);
                    }
                } else {
                    job.result.errors++;
                }
                (*issue)(job);
                if (job.stopped && job.outstanding == 0 &&
                    !job.finished) {
                    job.finished = true;
                    job.result.elapsed = loop_->now() - job.start;
                    (*active)--;
                }
            };
            bool is_write = s.mode == RwMode::kSeqWrite ||
                s.mode == RwMode::kRandWrite;
            if (is_write)
                target_->write(lba, s.block_sectors, cb);
            else
                target_->read(lba, s.block_sectors, cb);
        }
        if (job.stopped && job.outstanding == 0 && !job.finished) {
            job.finished = true;
            job.result.elapsed = loop_->now() - job.start;
            (*active)--;
        }
    };

    for (JobState &job : *states) {
        job.start = loop_->now();
        (*issue)(job);
    }
    loop_->run_until_pred([&] { return *active == 0; });
    // Break the issue-function's self-reference cycle (it captures its
    // own shared_ptr so completions can re-enter it).
    *issue = [](JobState &) {};

    std::vector<JobResult> out;
    out.reserve(states->size());
    for (JobState &job : *states)
        out.push_back(std::move(job.result));
    return out;
}

JobResult
WorkloadRunner::run_merged(const std::vector<JobSpec> &jobs,
                           Sampler *sampler)
{
    return merge_results(run(jobs, sampler));
}

std::vector<JobSpec>
seq_jobs(RwMode mode, uint32_t block_sectors, uint32_t njobs, uint32_t qd,
         uint64_t capacity, uint64_t region_align)
{
    std::vector<JobSpec> out;
    if (region_align == 0)
        region_align = block_sectors;
    uint64_t per_job = capacity / njobs;
    // Align regions (zone capacity for zoned write targets).
    per_job = per_job / region_align * region_align;
    per_job = per_job / block_sectors * block_sectors;
    for (uint32_t j = 0; j < njobs; ++j) {
        JobSpec s;
        s.mode = mode;
        s.block_sectors = block_sectors;
        s.queue_depth = qd;
        s.region_start = static_cast<uint64_t>(j) * per_job;
        s.region_len = per_job;
        s.seed = 1000 + j;
        out.push_back(s);
    }
    return out;
}

JobSpec
rand_read_job(uint32_t block_sectors, uint32_t qd, uint64_t capacity,
              uint64_t seed)
{
    JobSpec s;
    s.mode = RwMode::kRandRead;
    s.block_sectors = block_sectors;
    s.queue_depth = qd;
    s.region_start = 0;
    s.region_len = capacity;
    s.seed = seed;
    return s;
}

} // namespace raizn
