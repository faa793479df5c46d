#include "loadgen.h"

#include <cstring>

#include "sim/event_loop.h"

namespace e2e {

using raizn::kSectorSize;

namespace {

uint64_t
splitmix64(uint64_t &x)
{
    uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Image::Image(uint64_t zone_sectors, const std::vector<uint64_t> &written,
             uint64_t seed)
    : zone_sectors_(zone_sectors)
{
    uint64_t total = 0;
    for (uint64_t w : written) {
        base_.push_back(total * kSectorSize);
        total += w;
    }
    data_.resize(total * kSectorSize);
    uint64_t x = seed;
    for (size_t i = 0; i + 8 <= data_.size(); i += 8) {
        uint64_t v = splitmix64(x);
        std::memcpy(&data_[i], &v, 8);
    }
}

const uint8_t *
Image::at(uint64_t lba) const
{
    uint64_t z = lba / zone_sectors_;
    return data_.data() + base_[z] + (lba % zone_sectors_) * kSectorSize;
}

void
Image::corrupt(uint64_t lba)
{
    data_[at(lba) - data_.data()] ^= 0x5a;
}

uint64_t
HostChunks::total() const
{
    uint64_t t = 0;
    for (uint64_t ns : ns_)
        t += ns;
    return t;
}

void
HostChunks::cut()
{
    uint64_t t = host_now_ns();
    ns_.push_back(t - t_);
    t_ = t;
    n_ = 0;
}

double
PhaseResult::mib_s() const
{
    return raizn::mib_per_sec(bytes, elapsed);
}

void
PhaseResult::add(const PhaseResult &o)
{
    ops += o.ops;
    attempted += o.attempted;
    failed += o.failed;
    mismatched += o.mismatched;
    bytes += o.bytes;
    elapsed += o.elapsed;
    latency.merge(o.latency);
    events += o.events;
}

struct LoadGen::JobState {
    const Job *job = nullptr;
    size_t next = 0;
    uint32_t outstanding = 0;
};

PhaseResult
LoadGen::write(const std::vector<Job> &jobs, const bool *stop)
{
    return run(jobs, true, stop);
}

PhaseResult
LoadGen::read(const std::vector<Job> &jobs, const bool *stop)
{
    return run(jobs, false, stop);
}

uint64_t
LoadGen::drain()
{
    ScopedSpan span(tracer_, spans_.sim, 0);
    return loop_->run();
}

PhaseResult
LoadGen::run(const std::vector<Job> &jobs, bool is_write, const bool *stop)
{
    PhaseResult res;
    stop_ = stop;
    raizn::Tick start = loop_->now();
    raizn::Tick last_done = start;
    std::vector<JobState> states(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i)
        states[i].job = &jobs[i];
    // Completions capture this frame by reference: drain() returns only
    // once the loop is empty, i.e. after every completion has run.
    done_ = [&](JobState &js, const Op &op, raizn::Tick submit,
                uint64_t req, raizn::IoResult r) {
        ScopedSpan span(tracer_, spans_.complete, req);
        raizn::Tick lat = loop_->now() - submit;
        js.outstanding--;
        if (r.status.is_ok()) {
            bool same = true;
            if (!is_write && image_ != nullptr) {
                ScopedSpan v(tracer_, spans_.verify, req);
                size_t len = static_cast<size_t>(op.nsectors) * kSectorSize;
                same = r.data.size() == len &&
                    std::memcmp(r.data.data(), image_->at(op.lba), len) == 0;
            }
            if (same) {
                res.ops++;
                res.bytes += static_cast<uint64_t>(op.nsectors) * kSectorSize;
                res.latency.add(lat);
            } else {
                res.mismatched++;
            }
        } else {
            res.failed++;
        }
        last_done = loop_->now();
        if (meter_ != nullptr)
            meter_->tick();
        issue(js, res, is_write);
    };
    for (JobState &js : states)
        issue(js, res, is_write);
    res.events = drain();
    done_ = nullptr;
    stop_ = nullptr;
    res.elapsed = last_done - start;
    return res;
}

void
LoadGen::issue(JobState &js, PhaseResult &res, bool is_write)
{
    ScopedSpan span(tracer_, spans_.issue, 0);
    const Job &job = *js.job;
    while (js.outstanding < job.qd && js.next < job.ops.size() &&
           !(stop_ != nullptr && *stop_)) {
        const Op &op = job.ops[js.next++];
        js.outstanding++;
        res.attempted++;
        uint64_t req = next_req();
        raizn::Tick submit = loop_->now();
        raizn::IoCallback cb = [this, &js, &op, submit,
                                req](raizn::IoResult r) {
            done_(js, op, submit, req, std::move(r));
        };
        if (!is_write) {
            ScopedSpan call(tracer_, spans_.read, req);
            arr_->read(op.lba, op.nsectors, std::move(cb));
        } else if (image_ != nullptr) {
            const uint8_t *p = image_->at(op.lba);
            std::vector<uint8_t> data(
                p, p + static_cast<size_t>(op.nsectors) * kSectorSize);
            ScopedSpan call(tracer_, spans_.write, req);
            arr_->write(op.lba, std::move(data), {}, std::move(cb));
        } else {
            ScopedSpan call(tracer_, spans_.write, req);
            arr_->write_len(op.lba, op.nsectors, {}, std::move(cb));
        }
    }
}

} // namespace e2e
