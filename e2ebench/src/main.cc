/**
 * @file
 * End-to-end benchmark entry point.
 *
 *   e2ebench --workload NAME --seed N --seconds S --trace 0|1
 *            [--trace-out spans.csv] [--plant-mismatch]
 *   e2ebench --fidelity
 *
 * Repeats whole rounds (fresh arrays, set-up, write, read, rebuild) of
 * one workload until S host seconds have passed, at least three times
 * after one warm-up round. Virtual-clock metrics are exact functions of
 * the seed, so every round must report the same ones. Host-clock phase
 * metrics take each chunk of a phase from its fastest round
 * (BestChunks), set-up time is the median round. With
 * --trace 1 untraced and traced rounds alternate: the per-layer metrics
 * come from the traced ones, and the virtual-clock metrics of both
 * kinds must agree. The last line of stdout is one JSON object; the
 * exit code is 0 only when every output was correct.
 */
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "tracer.h"
#include "workloads.h"

namespace {

using e2e::RoundResult;

struct Metric {
    const char *name;
    const char *unit;
    const char *clock; ///< "virt", "host" or "count"
    const char *better;
};

const Metric kEndToEnd[] = {
    {"write_mib_s", "MiB/s", "virt", "higher"},
    {"read_mib_s", "MiB/s", "virt", "higher"},
    {"write_p50_us", "us", "virt", "lower"},
    {"write_p999_us", "us", "virt", "lower"},
    {"read_p50_us", "us", "virt", "lower"},
    {"read_p999_us", "us", "virt", "lower"},
    {"waf", "ratio", "count", "lower"},
    {"rebuild_s", "s", "virt", "lower"},
    {"host_write_mib_s", "MiB/s", "host", "higher"},
    {"host_read_mib_s", "MiB/s", "host", "higher"},
    {"host_rebuild_s", "s", "host", "lower"},
    {"peak_rss_mib", "MiB", "host", "lower"},
    {"setup_s", "s", "host", "lower"},
};

/// Every per-layer metric, in output order. A layer a workload does not
/// run reports 0.
std::vector<std::pair<std::string, std::string>>
layer_metrics()
{
    std::vector<std::pair<std::string, std::string>> m;
    for (std::string a : {"raizn", "mdraid"}) {
        for (std::string s : {".write", ".read", ".complete"}) {
            m.emplace_back(a + s + ".host_self_ns", "ns");
            m.emplace_back(a + s + ".host_self_frac", "ratio");
        }
        m.emplace_back(a + ".alloc_bytes_per_user_byte", "B/B");
        m.emplace_back(a + ".allocs_per_op", "allocs/op");
        m.emplace_back(a + ".subios_per_write", "cmds/op");
        m.emplace_back(a + ".pp_log_bytes_per_user_byte", "B/B");
        m.emplace_back(a + ".parity_bytes_per_user_byte", "B/B");
        if (a == "raizn")
            m.emplace_back("raizn.reconstructed_sectors_per_read",
                           "sectors/op");
        else
            m.emplace_back("mdraid.rmw_reads_per_write", "cmds/op");
        m.emplace_back(a + ".rebuild.dev_read_bytes_per_rebuilt_byte", "B/B");
    }
    for (std::string d : {"zns", "conv"}) {
        m.emplace_back(d + ".submit.host_ns", "ns");
        m.emplace_back(d + ".submit.host_self_frac", "ratio");
        for (const char *op : {"read", "write", "append", "reset", "flush"})
            m.emplace_back(d + ".cmds_per_user_mib." + op, "cmds/MiB");
        m.emplace_back(d + ".virt_service_us.p50", "us");
        m.emplace_back(d + ".virt_service_us.p999", "us");
        m.emplace_back(d + ".busy_frac", "ratio");
        if (d == "zns")
            m.emplace_back("zns.zone_resets", "count");
        else
            m.emplace_back("conv.gc_page_copies_per_user_page", "ratio");
    }
    m.emplace_back("sim.events_per_user_op", "events/op");
    m.emplace_back("sim.host_ns_per_event", "ns");
    m.emplace_back("sim.host_self_frac", "ratio");
    m.emplace_back("wkld.verify.host_ns", "ns");
    m.emplace_back("wkld.host_self_frac", "ratio");
    m.emplace_back("trace.overhead_frac", "ratio");
    return m;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

template <typename F>
double
median_of(const std::vector<RoundResult> &rounds, F f)
{
    std::vector<double> v;
    for (const RoundResult &r : rounds)
        v.push_back(f(r));
    return median(v);
}

/**
 * Host time of each phase taken chunk by chunk from the fastest round:
 * chunk k covers the same simulated work in every round of one seed
 * (HostChunks), so its shortest time is its least disturbed
 * measurement. Other tenants of a shared machine only ever slow work
 * down, in bursts that come and go within a round: on a shared 4-core
 * VM the best whole round still spread across seeds by up to a third,
 * because a single burst spoils a whole round.
 */
struct BestChunks {
    std::vector<uint64_t> write, read, rebuild;
    size_t rounds = 0;
    /// False once two rounds cut a phase into different numbers of
    /// chunks.
    bool same = true;

    /// Folds in one round's chunk times and frees them, so memory does
    /// not grow with the number of rounds (it would show in peak RSS).
    void
    add(RoundResult &r)
    {
        fold(&write, &r.write_host_ns);
        fold(&read, &r.read_host_ns);
        fold(&rebuild, &r.rebuild_host_ns);
        rounds++;
    }

    static uint64_t
    total(const std::vector<uint64_t> &chunks)
    {
        uint64_t t = 0;
        for (uint64_t c : chunks)
            t += c;
        return t;
    }

  private:
    void
    fold(std::vector<uint64_t> *best, std::vector<uint64_t> *round)
    {
        if (rounds == 0) {
            *best = *round;
        } else if (best->size() != round->size()) {
            same = false;
        } else {
            for (size_t k = 0; k < best->size(); ++k)
                (*best)[k] = std::min((*best)[k], (*round)[k]);
        }
        std::vector<uint64_t>().swap(*round);
    }
};

double
peak_rss_mib()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out spans.csv] [--plant-mismatch]\n"
                 "       %s --fidelity\n"
                 "workloads: raizn-partial-verify raizn-fullstripe "
                 "raizn-degraded-rebuild mdraid-overwrite\n",
                 argv0, argv0);
    return 2;
}

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string trace_out;
    bool plant_mismatch = false;
    bool fidelity = false;
};

bool
parse_args(int argc, char **argv, Args *a)
{
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        bool has_value = i + 1 < argc;
        if (k == "--workload" && has_value) {
            a->workload = argv[++i];
        } else if (k == "--seed" && has_value) {
            a->seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (k == "--seconds" && has_value) {
            a->seconds = std::strtod(argv[++i], nullptr);
        } else if (k == "--trace" && has_value) {
            a->trace = std::string(argv[++i]) != "0";
        } else if (k == "--trace-out" && has_value) {
            a->trace_out = argv[++i];
        } else if (k == "--plant-mismatch") {
            a->plant_mismatch = true;
        } else if (k == "--fidelity") {
            a->fidelity = true;
        } else {
            return false;
        }
    }
    return a->fidelity || !a->workload.empty();
}

void
print_json(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<std::pair<std::string, double>> &metrics,
           const std::map<std::string, std::string> &units)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].first.c_str(), metrics[i].second,
                    units.at(metrics[i].first).c_str());
    }
    std::printf("}}\n");
}

int
run(const Args &args)
{
    e2e::Workload w;
    if (!e2e::parse_workload(args.workload, &w)) {
        std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    e2e::RoundOptions opts;
    opts.seed = args.seed;
    opts.plant_mismatch = args.plant_mismatch;

    // Untraced and traced rounds alternate in a traced run; spans of
    // the last traced round stay in memory for --trace-out.
    constexpr size_t kMinRounds = 3;
    constexpr size_t kMaxSpans = 1u << 18;
    e2e::Tracer tracer(nullptr, kMaxSpans);
    std::vector<RoundResult> warm, plain, traced;
    BestChunks best;
    uint64_t deadline = e2e::host_now_ns() +
        static_cast<uint64_t>(args.seconds * 1e9);
    // A warm-up round fills the allocator and caches; it is checked
    // like every round but kept out of the host-clock medians.
    warm.push_back(e2e::run_round(w, opts, nullptr));
    do {
        plain.push_back(e2e::run_round(w, opts, nullptr));
        best.add(plain.back());
        if (args.trace) {
            tracer.reset();
            traced.push_back(e2e::run_round(w, opts, &tracer));
        }
    } while (e2e::host_now_ns() < deadline || plain.size() < kMinRounds);

    // ---- Correctness -------------------------------------------------
    std::vector<std::string> problems;
    uint64_t attempted = 0, failed = 0;
    const std::vector<double> virt = plain[0].virtual_metrics();
    bool drift = false;
    for (const auto *set : {&warm, &plain, &traced}) {
        for (const RoundResult &r : *set) {
            attempted += r.attempted;
            failed += r.failed;
            for (const std::string &p : r.problems) {
                if (std::find(problems.begin(), problems.end(), p) ==
                    problems.end())
                    problems.push_back(p);
            }
            drift = drift || r.virtual_metrics() != virt;
        }
    }
    // p99.9 needs at least ten samples beyond it.
    constexpr uint64_t kMinSamples = 10000;
    if (plain[0].write_samples < kMinSamples ||
        plain[0].read_samples < kMinSamples) {
        problems.push_back("fewer than 10000 latency samples in a phase");
    }
    if (drift) {
        problems.push_back(args.trace
                               ? "virtual-clock metrics differ between "
                                 "traced and untraced rounds"
                               : "virtual-clock metrics differ between "
                                 "rounds of one seed");
    }

    // ---- Metrics -----------------------------------------------------
    std::vector<std::pair<std::string, double>> metrics;
    std::map<std::string, std::string> units;
    const RoundResult &v = plain[0];
    std::printf("workload %s seed %llu: 1 warm-up + %zu untraced + %zu "
                "traced rounds\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), plain.size(),
                traced.size());
    if (!args.trace) {
        if (!best.same) {
            problems.push_back("rounds of one seed cut a phase into "
                               "different numbers of host-time chunks");
        }
        double values[] = {
            v.write_mib_s,
            v.read_mib_s,
            v.write_p50_us,
            v.write_p999_us,
            v.read_p50_us,
            v.read_p999_us,
            v.waf,
            v.rebuild_s,
            v.host_write_rate(BestChunks::total(best.write)),
            v.host_read_rate(BestChunks::total(best.read)),
            v.host_rebuild_time(BestChunks::total(best.rebuild)),
            peak_rss_mib(),
            median_of(plain, [](const RoundResult &r) { return r.setup_s; }),
        };
        std::printf("%-18s %14s %-6s %-5s %s\n", "metric", "value", "unit",
                    "clock", "better");
        for (size_t i = 0; i < std::size(kEndToEnd); ++i) {
            const Metric &m = kEndToEnd[i];
            metrics.emplace_back(m.name, values[i]);
            units[m.name] = m.unit;
            std::printf("%-18s %14.4f %-6s %-5s %s\n", m.name, values[i],
                        m.unit, m.clock, m.better);
        }
        std::printf("%-18s %14.6f %-6s %-5s %s\n", "failed_op_frac",
                    attempted ? static_cast<double>(failed) /
                            static_cast<double>(attempted)
                              : 0.0,
                    "ratio", "count", "lower");
        std::printf("samples: %llu writes, %llu reads per round; host-time "
                    "chunks: %zu write, %zu read, %zu rebuild\n",
                    static_cast<unsigned long long>(v.write_samples),
                    static_cast<unsigned long long>(v.read_samples),
                    best.write.size(), best.read.size(),
                    best.rebuild.size());
        auto by_round = [&](const char *name, auto f) {
            std::printf("%s by round:", name);
            for (const RoundResult &r : plain)
                std::printf(" %.4g", f(r));
            std::printf("\n");
        };
        by_round("host_write_mib_s",
                 [](const RoundResult &r) { return r.host_write_mib_s; });
        by_round("host_read_mib_s",
                 [](const RoundResult &r) { return r.host_read_mib_s; });
        by_round("host_rebuild_s",
                 [](const RoundResult &r) { return r.host_rebuild_s; });
        by_round("setup_s", [](const RoundResult &r) { return r.setup_s; });
    } else {
        std::map<std::string, std::vector<double>> by_name;
        for (const RoundResult &r : traced) {
            for (const auto &[n, x] : r.layers)
                by_name[n].push_back(x);
        }
        double overhead =
            median_of(traced, [](const RoundResult &r) {
                return static_cast<double>(r.phase_host_ns);
            }) / median_of(plain, [](const RoundResult &r) {
                return static_cast<double>(r.phase_host_ns);
            }) - 1.0;
        by_name["trace.overhead_frac"] = {overhead};
        for (const auto &[n, unit] : layer_metrics()) {
            auto it = by_name.find(n);
            double x = it == by_name.end() ? 0.0 : median(it->second);
            if (it != by_name.end())
                by_name.erase(it);
            metrics.emplace_back(n, x);
            units[n] = unit;
            std::printf("%-48s %16.6f %s\n", n.c_str(), x, unit.c_str());
        }
        for (const auto &kv : by_name)
            problems.push_back("per-layer metric not declared: " + kv.first);
        if (!args.trace_out.empty()) {
            if (tracer.write_csv(args.trace_out)) {
                std::printf("spans: %s (%zu spans, %llu beyond the cap)\n",
                            args.trace_out.c_str(), tracer.spans().size(),
                            static_cast<unsigned long long>(tracer.dropped()));
            } else {
                std::fprintf(stderr, "cannot write %s\n",
                             args.trace_out.c_str());
            }
        }
    }
    for (const std::string &p : problems)
        std::printf("PROBLEM: %s\n", p.c_str());
    bool correct = problems.empty() && failed == 0;
    print_json(correct, attempted, failed, metrics, units);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parse_args(argc, argv, &args))
        return usage(argv[0]);
    // Keep freed memory in the heap instead of returning it to the
    // kernel, so every round after the warm-up reuses pages that are
    // already mapped and host times do not depend on glibc's adaptive
    // mmap threshold.
    mallopt(M_MMAP_THRESHOLD, 1 << 30);
    mallopt(M_TRIM_THRESHOLD, -1);
    try {
        if (args.fidelity) {
            e2e::FidelityResult f = e2e::run_fidelity();
            std::printf("fidelity raizn write_1m_mib_s %.0f "
                        "randread_64k_mib_s %.0f\n",
                        f.write_mib_s, f.randread_mib_s);
            return 0;
        }
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "e2ebench: %s\n", e.what());
        return 1;
    }
}
