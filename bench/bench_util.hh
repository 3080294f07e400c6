/**
 * @file
 * Shared plumbing for the experiment harnesses in bench/: protocol
 * sweeps over the 28-benchmark roster with progress reporting.
 *
 * Every harness honours PROTOZOA_SCALE (workload size multiplier,
 * default 1.0) and PROTOZOA_JOBS (sweep worker threads, default
 * hardware concurrency) so a quick smoke pass and a high-fidelity
 * pass use the same binaries. Sweeps fan out through runSweep(); the
 * row order — and every statistic — is identical to a serial run.
 */

#ifndef PROTOZOA_BENCH_BENCH_UTIL_HH
#define PROTOZOA_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "protozoa/protozoa.hh"

namespace protozoa {
namespace bench {

/** One benchmark's results across every protocol. */
struct ProtocolSweepRow
{
    std::string bench;
    RunStats stats[kProtocolTable.size()];

    const RunStats &
    operator[](ProtocolKind kind) const
    {
        return stats[static_cast<unsigned>(kind)];
    }
};

/**
 * Run every paper benchmark under every protocol, fanned across
 * PROTOZOA_JOBS worker threads (one System per job; results land in
 * deterministic row order). Progress and the kernel-health summary go
 * to stderr so stdout stays a clean table.
 */
inline std::vector<ProtocolSweepRow>
sweepAllBenchmarks(double scale)
{
    const auto &specs = paperBenchmarks();

    std::vector<SweepJob> jobs;
    jobs.reserve(specs.size() * kAllProtocols.size());
    for (const auto &spec : specs) {
        for (ProtocolKind kind : kAllProtocols) {
            SweepJob job;
            job.bench = spec.name;
            job.cfg.protocol = kind;
            job.scale = scale;
            jobs.push_back(std::move(job));
        }
    }

    const unsigned workers = envJobs();
    std::fprintf(stderr, "  sweep: %zu runs on %u worker thread(s)\n",
                 jobs.size(), workers);
    auto stats = runSweep(
        jobs, workers, [](std::size_t, const SweepJob &job) {
            std::fprintf(stderr, "  running %-18s %-8s...\n",
                         job.bench.c_str(),
                         protocolTraits(job.cfg.protocol).label);
        });

    std::vector<ProtocolSweepRow> rows;
    rows.reserve(specs.size());
    KernelStats kernel;
    std::size_t j = 0;
    for (const auto &spec : specs) {
        ProtocolSweepRow row;
        row.bench = spec.name;
        for (ProtocolKind kind : kAllProtocols) {
            kernel.merge(stats[j].kernel);
            row.stats[static_cast<unsigned>(kind)] = std::move(stats[j]);
            ++j;
        }
        rows.push_back(std::move(row));
    }
    std::fprintf(stderr, "  %s\n", kernelSummary(kernel).c_str());
    return rows;
}

/** Abbreviate a benchmark name to the paper's axis style. */
inline std::string
axisName(const std::string &name)
{
    if (name.size() <= 6)
        return name;
    return name.substr(0, 6) + ".";
}

} // namespace bench
} // namespace protozoa

#endif // PROTOZOA_BENCH_BENCH_UTIL_HH
