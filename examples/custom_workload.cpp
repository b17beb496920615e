/**
 * @file
 * Custom workload: shows how a downstream user plugs their own
 * application into the simulator: a generator function plus a
 * wl::WorkloadSpec row naming it, run as a wl::Workload.
 *
 * The example models a two-phase pipeline — a producer kernel that
 * writes a tensor partition-local, then consumer kernels that read it
 * with a rotated partition map (an all-to-all shuffle as in
 * distributed DNN training). Under the baseline the tensor stays
 * where the producer first touched it; Griffin re-homes it to the
 * consumers.
 */

#include <algorithm>
#include <iostream>

#include "src/sys/multi_gpu_system.hh"
#include "src/sys/report.hh"
#include "src/workloads/workload.hh"

using namespace griffin;

namespace {

/**
 * Producer/consumer shuffle over one tensor.
 */
wl::KernelLaunch
shuffleKernel(const wl::Workload &app, unsigned k)
{
    const std::uint64_t lines = app.footprintBytes() / lineBytes;
    const unsigned wgs = app.workgroupsPerKernel();
    const std::uint64_t part = lines / wgs;
    wl::KernelLaunch launch;
    for (unsigned w = 0; w < wgs; ++w) {
        wl::TraceBuilder tb = app.builder();
        // Kernel 0 produces partition w; kernel k consumes the
        // partition of workgroup (w + k * 17) % wgs — a rotating
        // shuffle, so each partition's reader changes per phase.
        const unsigned src = (w + k * 17) % wgs;
        const std::uint64_t begin = src * part;
        const std::uint64_t end = (src + 1 == wgs) ? lines : begin + part;
        for (std::uint64_t line = begin; line < end; ++line) {
            // Consumers re-read each line of their partition (a
            // reduction over the tensor slice).
            tb.add(line * lineBytes, k == 0);
            if (k > 0)
                tb.add(line * lineBytes, false);
        }
        launch.workgroups.push_back(tb.finishWorkgroup(w));
    }
    return launch;
}

/** The application's facts in Table III's columns, plus its generator. */
const wl::WorkloadSpec shuffleSpec = {
    "SHUF", "Tensor Shuffle", "custom", "Shuffle", 48ull << 20,
    /*numKernels=*/5, /*workgroupsPerKernel=*/61, shuffleKernel};

} // namespace

int
main(int argc, char **argv)
{
    const unsigned scale = argc > 1 ? unsigned(std::stoul(argv[1])) : 32;
    wl::WorkloadConfig wcfg;
    wcfg.scaleDiv = scale;

    std::cout << "=== Custom workload: producer/consumer tensor "
                 "shuffle ===\n\n";

    wl::Workload shuffle(shuffleSpec, wcfg);
    sys::MultiGpuSystem baseline(sys::SystemConfig::baseline());
    const auto base = baseline.run(shuffle);

    sys::MultiGpuSystem griffin(sys::SystemConfig::griffinDefault());
    const auto grif = griffin.run(shuffle);

    sys::Table table({"System", "Cycles", "Local%", "InterGPU",
                      "MaxShare%"});
    table.addRow({"baseline", std::to_string(base.cycles),
                  sys::Table::num(100 * base.localFraction(), 1), "0",
                  sys::Table::num(100 * base.maxGpuShare(), 1)});
    table.addRow({"griffin", std::to_string(grif.cycles),
                  sys::Table::num(100 * grif.localFraction(), 1),
                  std::to_string(grif.pagesMigratedInterGpu),
                  sys::Table::num(100 * grif.maxGpuShare(), 1)});
    std::cout << table.str() << "\n";
    std::cout << "speedup: "
              << sys::Table::num(double(base.cycles) /
                                 double(grif.cycles))
              << "x — Griffin re-homes each partition to its consumer "
                 "of the phase.\n";
    return 0;
}
