/**
 * @file
 * The benchmark's four workloads. One call to run_round() builds fresh
 * arrays from the seed, runs set-up, the write, read and rebuild
 * phases, checks every output, and returns the end-to-end numbers; with
 * a tracer it also returns the per-layer numbers.
 */
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tracer.h"

namespace e2e {

enum class Workload {
    kRaiznPartialVerify,
    kRaiznFullstripe,
    kRaiznDegradedRebuild,
    kMdraidOverwrite,
};

/// Parses a workload name; false when unknown.
bool parse_workload(const std::string &name, Workload *out);

/// End-to-end numbers of one round.
struct RoundResult {
    // Virtual clock: exact functions of the seed.
    double write_mib_s = 0;
    double read_mib_s = 0;
    double write_p50_us = 0;
    double write_p999_us = 0;
    double read_p50_us = 0;
    double read_p999_us = 0;
    double waf = 0;
    double rebuild_s = 0;
    uint64_t write_bytes = 0; ///< acked user bytes of the write phase
    uint64_t read_bytes = 0;
    size_t rebuilds = 1; ///< members rebuilt
    uint64_t write_samples = 0;
    uint64_t read_samples = 0;
    // Host clock. Each phase's host time is also kept chunk by chunk
    // (HostChunks), to be compared across rounds.
    std::vector<uint64_t> write_host_ns, read_host_ns, rebuild_host_ns;
    double host_write_mib_s = 0;
    double host_read_mib_s = 0;
    double host_rebuild_s = 0;
    double setup_s = 0;
    uint64_t phase_host_ns = 0; ///< write + read + rebuild phases
    // Correctness.
    uint64_t attempted = 0;
    uint64_t failed = 0; ///< error status or wrong bytes
    std::vector<std::string> problems;
    /// Per-layer metrics (traced rounds only), by name.
    std::vector<std::pair<std::string, double>> layers;

    /// Host metrics of a phase from its host time in ns.
    double host_write_rate(uint64_t ns) const;
    double host_read_rate(uint64_t ns) const;
    double host_rebuild_time(uint64_t ns) const;

    /// The virtual-clock metrics, for determinism checks.
    std::vector<double> virtual_metrics() const;
};

struct RoundOptions {
    uint64_t seed = 1;
    /// Corrupts one expected payload byte after the writes, so a
    /// verified read must report a mismatch (benchmark self-test).
    bool plant_mismatch = false;
};

/// `tracer` null = untraced round.
RoundResult run_round(Workload w, const RoundOptions &opts, Tracer *tracer);

/// fig9's RAIZN points (1 MiB seq write 8 x QD64; 64 KiB randread QD256
/// after a full prime), driven through this benchmark's load generator.
struct FidelityResult {
    double write_mib_s = 0;
    double randread_mib_s = 0;
};
FidelityResult run_fidelity();

} // namespace e2e
