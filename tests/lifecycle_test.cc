/**
 * @file
 * Failure-lifecycle tests: health-driven automatic failover onto a hot
 * spare, crash-resumable checkpointed rebuild, token-bucket rebuild
 * throttling, and the mdraid auto-resync parity path. The spare check
 * and the rebuild pacer live in ZonedArray, so they are exercised on
 * RAIZN, mdraid and a raid5 ZonedEngine alike.
 */
#include <gtest/gtest.h>

#include "array/engine.h"
#include "array/throttle.h"
#include "mdraid/md_volume.h"
#include "raizn_test_util.h"
#include "zns/conv_device.h"

namespace raizn {
namespace {

/// A 4-member raid5 ZonedEngine over data-storing ZNS devices.
struct Raid5Array {
    EventLoop loop;
    std::vector<std::unique_ptr<ZnsDevice>> devs;
    std::unique_ptr<ZonedEngine> eng;

    static ZnsDeviceConfig
    device_config(uint32_t nzones = 5)
    {
        return TestArray::device_config(nzones, 64);
    }

    Raid5Array()
    {
        std::vector<BlockDevice *> ptrs;
        for (int i = 0; i < 4; ++i) {
            devs.push_back(
                std::make_unique<ZnsDevice>(&loop, device_config()));
            ptrs.push_back(devs.back().get());
        }
        EngineConfig cfg;
        cfg.mode = RaidMode::kRaid5;
        cfg.su_sectors = 4;
        auto res = ZonedEngine::create(&loop, ptrs, cfg);
        EXPECT_TRUE(res.is_ok()) << res.status().to_string();
        if (res.is_ok())
            eng = std::move(res).value();
    }

    void
    write_pattern(uint64_t lba, uint32_t nsectors, uint64_t seed)
    {
        bool done = false;
        eng->write(lba, pattern_data(nsectors, seed), WriteFlags{},
                   [&](IoResult r) {
                       EXPECT_TRUE(r.status.is_ok()) << r.status.to_string();
                       done = true;
                   });
        loop.run_until_pred([&] { return done; });
    }

    Status
    rebuild(uint32_t dev)
    {
        Status out;
        bool done = false;
        eng->rebuild_device(dev, nullptr, [&](Status s) {
            out = s;
            done = true;
        });
        loop.run_until_pred([&] { return done; });
        return out;
    }
};

/// Conventional members for the mdraid baseline.
ConvDeviceConfig
conv_config(const std::string &name, uint64_t bytes = 4 * kMiB)
{
    ConvDeviceConfig cfg;
    cfg.nsectors = bytes / kSectorSize;
    cfg.pages_per_block = 64;
    cfg.name = name;
    return cfg;
}

class LifecycleTest : public ::testing::Test
{
  protected:
    void SetUp() override { arr_.make(); }

    /// A standby device with the same geometry as the array members.
    std::unique_ptr<ZnsDevice>
    make_spare()
    {
        ZnsDeviceConfig dc = TestArray::device_config();
        dc.name = "spare";
        return std::make_unique<ZnsDevice>(arr_.loop.get(), dc);
    }

    TestArray arr_;
};

TEST_F(LifecycleTest, AutoFailoverPromotesSpareAndRebuilds)
{
    arr_.write_pattern(0, 128, 1);
    arr_.write_pattern(512, 64, 2);
    ASSERT_TRUE(arr_.flush().status.is_ok());

    auto spare = make_spare();
    arr_.vol->set_spare(spare.get());
    bool done = false;
    Status st;
    uint32_t done_dev = ~0u;
    RaiznVolume::LifecycleConfig lc;
    lc.on_rebuild_done = [&](uint32_t dev, Status s) {
        done_dev = dev;
        st = s;
        done = true;
    };
    arr_.vol->set_lifecycle(std::move(lc));

    // The device dies at the device level; nobody tells the volume.
    // The next read hits persistent errors, the health monitor trips,
    // and failover + spare promotion + rebuild run with zero manual
    // calls — data stays readable the whole time.
    uint32_t victim = arr_.vol->layout().data_dev(0, 0, 0);
    arr_.devs[victim]->fail();
    arr_.expect_pattern(0, 128, 1);
    EXPECT_EQ(arr_.vol->failed_device(), static_cast<int>(victim));
    EXPECT_EQ(arr_.vol->stats().auto_failovers, 1u);

    // Mid-lifecycle reads are served (degraded or from rebuilt zones).
    arr_.expect_pattern(512, 64, 2);

    arr_.loop->run_until_pred([&] { return done; });
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_EQ(done_dev, victim);
    EXPECT_EQ(arr_.vol->failed_device(), -1);
    EXPECT_EQ(arr_.vol->stats().spares_promoted, 1u);
    EXPECT_FALSE(arr_.vol->has_spare()) << "spare consumed";
    EXPECT_GT(arr_.vol->stats().zones_rebuilt, 0u);

    // Redundancy restored onto the spare: reads need no reconstruction.
    uint64_t degraded_before = arr_.vol->stats().degraded_reads;
    arr_.expect_pattern(0, 128, 1);
    arr_.expect_pattern(512, 64, 2);
    EXPECT_EQ(arr_.vol->stats().degraded_reads, degraded_before);

    // And survives a second, different failure.
    arr_.vol->mark_device_failed((victim + 1) % 5);
    arr_.expect_pattern(0, 128, 1);
}

TEST_F(LifecycleTest, NoSpareStaysDegraded)
{
    arr_.write_pattern(0, 64, 3);
    uint32_t victim = arr_.vol->layout().data_dev(0, 0, 0);
    arr_.devs[victim]->fail();
    arr_.expect_pattern(0, 64, 3);
    EXPECT_EQ(arr_.vol->failed_device(), static_cast<int>(victim));
    // Nothing to promote: stays degraded, no failover counted.
    arr_.loop->run();
    EXPECT_EQ(arr_.vol->stats().auto_failovers, 0u);
    EXPECT_EQ(arr_.vol->failed_device(), static_cast<int>(victim));
    arr_.expect_pattern(0, 64, 3);
}

TEST_F(LifecycleTest, UnusableSpareStaysDegraded)
{
    // One spare check for every engine: a failed spare, or a zoned
    // spare whose geometry differs from the members' (fewer or more
    // zones), is refused, so the array stays degraded and keeps the
    // spare attached instead of promoting a device it cannot use.
    for (bool bigger : {false, true}) {
        SCOPED_TRACE(bigger ? "raizn, bigger spare" : "raizn, failed spare");
        TestArray a;
        a.make();
        ZnsDeviceConfig dc = TestArray::device_config(bigger ? 9 : 8);
        dc.name = "spare";
        ZnsDevice spare(a.loop.get(), dc);
        if (!bigger)
            spare.fail();
        a.vol->set_spare(&spare);
        a.vol->mark_device_failed(1);
        a.loop->run();
        EXPECT_EQ(a.vol->failed_device(), 1);
        EXPECT_TRUE(a.vol->has_spare());
        EXPECT_EQ(a.vol->stats().auto_failovers, 0u);
        EXPECT_EQ(a.vol->stats().spares_promoted, 0u);
    }

    {
        EventLoop loop;
        std::vector<std::unique_ptr<ConvDevice>> devs;
        std::vector<BlockDevice *> ptrs;
        for (int i = 0; i < 5; ++i) {
            devs.push_back(std::make_unique<ConvDevice>(
                &loop, conv_config("conv" + std::to_string(i))));
            ptrs.push_back(devs.back().get());
        }
        ConvDevice md_spare(&loop, conv_config("spare"));
        md_spare.fail();
        MdVolume vol(&loop, ptrs, MdVolumeConfig{});
        vol.set_spare(&md_spare);
        vol.mark_device_failed(0);
        loop.run();
        EXPECT_EQ(vol.failed_device(), 0);
        EXPECT_TRUE(vol.has_spare());
        EXPECT_EQ(vol.stats().auto_failovers, 0u);
        EXPECT_EQ(vol.stats().spares_promoted, 0u);
    }

    for (uint32_t spare_zones : {5u, 4u, 6u}) {
        const bool failed = spare_zones == 5;
        SCOPED_TRACE(failed ? "raid5, failed spare"
                            : spare_zones < 5 ? "raid5, small spare"
                                              : "raid5, bigger spare");
        Raid5Array a;
        a.write_pattern(0, 24, 70);
        ZnsDevice eng_spare(&a.loop, Raid5Array::device_config(spare_zones));
        if (failed)
            eng_spare.fail();
        a.eng->set_spare(&eng_spare);
        a.eng->mark_device_failed(2);
        a.loop.run();
        EXPECT_TRUE(a.eng->degraded());
        EXPECT_TRUE(a.eng->device_failed(2));
        EXPECT_TRUE(a.eng->has_spare());
        EXPECT_EQ(a.eng->stats().auto_failovers, 0u);
        EXPECT_EQ(a.eng->stats().spares_promoted, 0u);
    }
}

TEST_F(LifecycleTest, HealthCountersSurfaceInStats)
{
    arr_.write_pattern(0, 64, 4);
    uint32_t victim = arr_.vol->layout().data_dev(0, 0, 0);
    arr_.devs[victim]->fail();
    arr_.expect_pattern(0, 64, 4);
    const DeviceHealth &h = arr_.vol->health().device(victim);
    EXPECT_GT(h.op_failures, 0u);
    std::string dump = arr_.vol->stats().dump();
    EXPECT_NE(dump.find("auto_failovers"), std::string::npos);
    EXPECT_NE(dump.find("rebuild_checkpoints"), std::string::npos);
}

TEST_F(LifecycleTest, CheckpointResumeAfterPowerCut)
{
    // Three zones of data so the rebuild spans several checkpoints.
    arr_.write_pattern(0, 512, 5);
    arr_.write_pattern(512, 512, 6);
    arr_.write_pattern(1024, 512, 7);
    ASSERT_TRUE(arr_.flush().status.is_ok());

    uint32_t victim = 1;
    arr_.vol->mark_device_failed(victim);
    arr_.devs[victim]->replace();

    uint64_t zones_done = 0;
    bool done = false;
    Status st;
    arr_.vol->rebuild_device(
        victim, [&](uint64_t d, uint64_t) { zones_done = d; },
        [&](Status s) {
            st = s;
            done = true;
        });
    // Let two of three zones finish: the first zone's completion
    // checkpoint had a full zone's worth of rebuild IO to become
    // durable before the cut.
    arr_.loop->run_until_pred([&] { return zones_done >= 2 || done; });
    ASSERT_FALSE(done) << "rebuild finished before the cut";
    EXPECT_GT(arr_.vol->stats().rebuild_checkpoints, 1u);

    ASSERT_TRUE(
        arr_.crash_and_remount({PowerLossSpec::Policy::kDropCache, 11})
            .is_ok());
    ASSERT_TRUE(arr_.vol->has_pending_rebuild());
    EXPECT_EQ(arr_.vol->pending_rebuild_device(),
              static_cast<int>(victim));
    EXPECT_EQ(arr_.vol->failed_device(), static_cast<int>(victim));

    bool rdone = false;
    Status rst;
    arr_.vol->resume_rebuild(nullptr, [&](Status s) {
        rst = s;
        rdone = true;
    });
    arr_.loop->run_until_pred([&] { return rdone; });
    ASSERT_TRUE(rst.is_ok()) << rst.to_string();
    EXPECT_EQ(arr_.vol->failed_device(), -1);
    EXPECT_GE(arr_.vol->stats().rebuild_zones_resumed, 1u)
        << "resume re-rebuilt everything instead of using the checkpoint";

    arr_.expect_pattern(0, 512, 5);
    arr_.expect_pattern(512, 512, 6);
    arr_.expect_pattern(1024, 512, 7);

    // Redundancy is fully restored: lose a different device and read.
    arr_.vol->mark_device_failed((victim + 2) % 5);
    arr_.expect_pattern(0, 512, 5);
    arr_.expect_pattern(1024, 512, 7);
}

TEST_F(LifecycleTest, ResumeRebuildWithoutCheckpointIsRejected)
{
    bool done = false;
    Status st;
    arr_.vol->resume_rebuild(nullptr, [&](Status s) {
        st = s;
        done = true;
    });
    arr_.loop->run_until_pred([&] { return done; });
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(LifecycleTest, BlankReplacementDetectedAtMount)
{
    // Power fails after the dead disk was swapped but before the
    // rebuild's first checkpoint became durable: the replacement
    // carries no superblock, and mount must treat it as the absent
    // device rather than trusting its empty zones.
    arr_.write_pattern(0, 256, 8);
    ASSERT_TRUE(arr_.flush().status.is_ok());
    uint32_t victim = 3;
    arr_.vol->mark_device_failed(victim);
    arr_.devs[victim]->replace();
    ASSERT_TRUE(
        arr_.crash_and_remount({PowerLossSpec::Policy::kDropCache, 13})
            .is_ok());
    EXPECT_EQ(arr_.vol->failed_device(), static_cast<int>(victim));
    EXPECT_FALSE(arr_.vol->has_pending_rebuild());
    arr_.expect_pattern(0, 256, 8);
    // A from-scratch rebuild completes and heals the array.
    ASSERT_TRUE(arr_.rebuild(victim).is_ok());
    EXPECT_EQ(arr_.vol->failed_device(), -1);
    arr_.expect_pattern(0, 256, 8);
}

TEST_F(LifecycleTest, ThrottleTokenBucket)
{
    EventLoop loop;
    RebuildThrottleConfig cfg;
    cfg.rate_sectors_per_sec = 1000;
    cfg.burst_sectors = 64;
    RebuildThrottle th(&loop, cfg);

    EXPECT_TRUE(th.try_acquire(64)); // full burst available
    EXPECT_FALSE(th.try_acquire(1)); // bucket empty
    EXPECT_EQ(th.stalls(), 1u);
    uint64_t wait = th.ns_until(10);
    EXPECT_GT(wait, 0u);
    EXPECT_LE(wait, 10 * kNsPerMs + 1);

    // Refill against virtual time: after 20ms, 20 tokens accrued.
    loop.schedule_after(20 * kNsPerMs, [] {});
    loop.run();
    EXPECT_TRUE(th.try_acquire(10));
    EXPECT_FALSE(th.try_acquire(64));
}

TEST_F(LifecycleTest, ThrottleAdaptiveBackoffAndRestore)
{
    EventLoop loop;
    RebuildThrottleConfig cfg;
    cfg.rate_sectors_per_sec = 1024;
    cfg.min_rate_sectors_per_sec = 128;
    cfg.adaptive = true;
    RebuildThrottle th(&loop, cfg);
    th.set_baseline_latency(1000.0);

    // Foreground latency 5x baseline: rate halves per sample down to
    // the floor.
    th.observe_foreground_latency(5000);
    EXPECT_EQ(th.current_rate(), 512u);
    th.observe_foreground_latency(5000);
    EXPECT_EQ(th.current_rate(), 256u);
    th.observe_foreground_latency(5000);
    EXPECT_EQ(th.current_rate(), 128u);
    th.observe_foreground_latency(5000);
    EXPECT_EQ(th.current_rate(), 128u) << "never below the floor";
    EXPECT_GE(th.backoffs(), 3u);

    // Latency recovers: the EWMA decays below restore_factor*baseline
    // and the rate doubles back up to the configured cap.
    for (int i = 0; i < 20; ++i)
        th.observe_foreground_latency(500);
    EXPECT_EQ(th.current_rate(), 1024u);
}

TEST_F(LifecycleTest, ThrottledRebuildStallsAndTakesLonger)
{
    struct Out {
        Tick elapsed;
        uint64_t stalls;
    };
    RaiznVolume::LifecycleConfig lc;
    lc.throttle.burst_sectors = 32;
    auto raizn_rebuild = [&lc](uint64_t rate) {
        TestArray a;
        a.make();
        a.write_pattern(0, 512, 9);
        a.write_pattern(512, 512, 10);
        EXPECT_TRUE(a.flush().status.is_ok());
        uint32_t victim = 2;
        a.vol->mark_device_failed(victim);
        a.devs[victim]->replace();
        lc.throttle.rate_sectors_per_sec = rate;
        a.vol->set_lifecycle(lc);
        Tick start = a.loop->now();
        Status st = a.rebuild(victim);
        EXPECT_TRUE(st.is_ok()) << st.to_string();
        return Out{a.loop->now() - start,
                   a.vol->stats().rebuild_throttle_stalls};
    };
    // The generic engine's zone/stripe rebuild goes through the same
    // pacer.
    auto raid5_rebuild = [&lc](uint64_t rate) {
        Raid5Array a;
        a.write_pattern(0, 192, 9);
        a.write_pattern(192, 120, 10);
        uint32_t victim = 2;
        a.eng->mark_device_failed(victim);
        a.devs[victim]->replace();
        lc.throttle.rate_sectors_per_sec = rate;
        a.eng->set_lifecycle(lc);
        Tick start = a.loop.now();
        Status st = a.rebuild(victim);
        EXPECT_TRUE(st.is_ok()) << st.to_string();
        EXPECT_FALSE(a.eng->degraded());
        return Out{a.loop.now() - start,
                   a.eng->stats().rebuild_throttle_stalls};
    };
    for (bool raid5 : {false, true}) {
        SCOPED_TRACE(raid5 ? "raid5" : "raizn");
        auto run = [&](uint64_t rate) {
            return raid5 ? raid5_rebuild(rate) : raizn_rebuild(rate);
        };
        auto fast = run(0);
        auto slow = run(10000);
        EXPECT_EQ(fast.stalls, 0u);
        EXPECT_GT(slow.stalls, 0u);
        EXPECT_GT(slow.elapsed, fast.elapsed);
    }
}

TEST_F(LifecycleTest, MdVolumeAutoResyncPromotesSpare)
{
    EventLoop loop;
    std::vector<std::unique_ptr<ConvDevice>> devs;
    std::vector<BlockDevice *> ptrs;
    for (int i = 0; i < 5; ++i) {
        devs.push_back(std::make_unique<ConvDevice>(
            &loop, conv_config("conv" + std::to_string(i))));
        ptrs.push_back(devs.back().get());
    }
    auto spare =
        std::make_unique<ConvDevice>(&loop, conv_config("spare"));
    MdVolumeConfig mcfg;
    mcfg.chunk_sectors = 16;
    mcfg.stripe_cache_bytes = 128 * kKiB;
    MdVolume vol(&loop, ptrs, mcfg);
    vol.set_spare(spare.get());
    bool done = false;
    Status st;
    MdVolume::LifecycleConfig lc;
    lc.throttle.rate_sectors_per_sec = 0;
    lc.on_rebuild_done = [&](uint32_t, Status s) {
        st = s;
        done = true;
    };
    vol.set_lifecycle(std::move(lc));

    bool wdone = false;
    vol.write(0, pattern_data(64, 21), [&](IoResult r) {
        EXPECT_TRUE(r.status.is_ok());
        wdone = true;
    });
    loop.run_until_pred([&] { return wdone; });

    vol.mark_device_failed(0);
    EXPECT_EQ(vol.stats().auto_failovers, 1u);
    loop.run_until_pred([&] { return done; });
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_EQ(vol.failed_device(), -1);
    EXPECT_EQ(vol.stats().spares_promoted, 1u);
    EXPECT_FALSE(vol.has_spare());
    EXPECT_GT(vol.stats().resynced_sectors, 0u);

    bool rdone = false;
    vol.read(0, 64, [&](IoResult r) {
        EXPECT_TRUE(r.status.is_ok());
        EXPECT_EQ(r.data, pattern_data(64, 21));
        rdone = true;
    });
    loop.run_until_pred([&] { return rdone; });
}

TEST_F(LifecycleTest, MdVolumeThrottledResyncStalls)
{
    EventLoop loop;
    std::vector<std::unique_ptr<ConvDevice>> devs;
    std::vector<BlockDevice *> ptrs;
    for (int i = 0; i < 5; ++i) {
        devs.push_back(std::make_unique<ConvDevice>(
            &loop, conv_config("conv" + std::to_string(i), 2 * kMiB)));
        ptrs.push_back(devs.back().get());
    }
    MdVolumeConfig mcfg;
    mcfg.chunk_sectors = 16;
    MdVolume vol(&loop, ptrs, mcfg);
    MdVolume::LifecycleConfig lc;
    lc.throttle.rate_sectors_per_sec = 100000;
    lc.throttle.burst_sectors = 64;
    vol.set_lifecycle(std::move(lc));

    vol.mark_device_failed(0);
    devs[0]->replace();
    bool done = false;
    Status st;
    vol.resync_device(0, nullptr, [&](Status s) {
        st = s;
        done = true;
    });
    loop.run_until_pred([&] { return done; });
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_EQ(vol.failed_device(), -1);
    EXPECT_GT(vol.stats().resync_throttle_stalls, 0u);
}

} // namespace
} // namespace raizn
