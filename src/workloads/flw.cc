#include "src/workloads/suite.hh"

namespace griffin::wl {

/**
 * Floyd-Warshall (AMDAPPSDK, Distributed, 44 MB): every pivot kernel
 * broadcasts one pivot row (hot shared pages that rotate per kernel)
 * while each workgroup updates its own row set.
 */
KernelLaunch
flwKernel(const Workload &app, unsigned k)
{
    const std::uint64_t lines = app.footprintBytes() / lineBytes;
    // One matrix row spans one page worth of lines: pivot-row sharing
    // then maps onto a small, rotating set of hot pages.
    const std::uint64_t row_lines = 64;
    const std::uint64_t num_rows = lines / row_lines;
    const Addr base = 0;

    const unsigned wgs = app.workgroupsPerKernel();
    // Each kernel stands for a group of pivots around row p_k; every
    // workgroup reads the pivot row (Distributed: one hot row shared
    // by everyone) and relaxes a sampled half of its own rows.
    const std::uint64_t pivot_row =
        (std::uint64_t(k) * num_rows) / app.numKernels();
    const Addr pivot_base = base + pivot_row * row_lines * lineBytes;

    KernelLaunch launch;
    launch.workgroups.reserve(wgs);
    for (unsigned w = 0; w < wgs; ++w) {
        TraceBuilder tb = app.builder();

        // Own rows: row indices congruent to w mod wgs; alternate
        // kernels relax alternate halves to bound the trace size.
        // Every relaxation re-reads a slice of the shared pivot row
        // (Distributed: the pivot page stays hot across the whole
        // kernel from every GPU).
        for (std::uint64_t row = w; row < num_rows; row += wgs) {
            if ((row / wgs + k) % 2 != 0)
                continue;
            const Addr row_base = base + row * row_lines * lineBytes;
            for (std::uint64_t l = 0; l < row_lines; ++l) {
                if (l % 8 == 0)
                    tb.add(pivot_base + (l % row_lines) * lineBytes,
                           false);
                tb.add(row_base + l * lineBytes, false);
                tb.add(row_base + l * lineBytes, true);
            }
        }
        launch.workgroups.push_back(tb.finishWorkgroup(w));
    }
    return launch;
}

} // namespace griffin::wl
