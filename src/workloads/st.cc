#include "src/workloads/suite.hh"

namespace griffin::wl {

/**
 * Stencil 2D (SHOC, Adjacent, 33 MB): iterative 5-point stencil over
 * row bands with halo rows exchanged between neighbouring workgroups
 * (ping-pong buffers).
 */
KernelLaunch
stKernel(const Workload &app, unsigned k)
{
    const std::uint64_t lines = app.footprintBytes() / lineBytes;
    const std::uint64_t grid_lines = lines / 2; ///< per buffer
    const Addr a_base = 0;
    const Addr b_base = grid_lines * lineBytes;

    const unsigned wgs = app.workgroupsPerKernel();
    const std::uint64_t band = grid_lines / wgs;
    constexpr std::uint64_t halo = 16; ///< boundary rows per neighbour
    // Ping-pong: even iterations read A write B, odd the reverse.
    const Addr src = (k % 2 == 0) ? a_base : b_base;
    const Addr dst = (k % 2 == 0) ? b_base : a_base;

    KernelLaunch launch;
    launch.workgroups.reserve(wgs);
    for (unsigned w = 0; w < wgs; ++w) {
        TraceBuilder tb = app.builder();

        const std::uint64_t begin = w * band;
        const std::uint64_t end =
            (w + 1 == wgs) ? grid_lines : begin + band;

        // 5-point stencil over rows: each output row reads the row
        // above (halo at the band edge — a neighbouring workgroup's
        // pages, usually a neighbouring GPU's), itself, and the row
        // below. Each source line is therefore read three times over
        // the sweep, keeping the band pages hot.
        for (std::uint64_t line = begin; line < end; ++line) {
            const std::uint64_t up = (line >= halo) ? line - halo : 0;
            const std::uint64_t down =
                std::min(line + halo, grid_lines - 1);
            tb.add(src + up * lineBytes, false);
            tb.add(src + line * lineBytes, false);
            tb.add(src + down * lineBytes, false);
            tb.add(dst + line * lineBytes, true);
        }

        launch.workgroups.push_back(tb.finishWorkgroup(w));
    }
    return launch;
}

} // namespace griffin::wl
