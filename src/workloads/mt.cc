#include "src/workloads/suite.hh"

namespace griffin::wl {

/**
 * Matrix Transpose (AMDAPPSDK, Scatter-Gather, 44 MB): reads row
 * bands sequentially and writes column-scattered lines; pages are
 * touched few times and never reused — the workload where DFTM and
 * fault batching matter most (paper: 2.9x peak speedup).
 */
KernelLaunch
mtKernel(const Workload &app, unsigned k)
{
    const std::uint64_t lines = app.footprintBytes() / lineBytes;
    const std::uint64_t in_lines = lines / 2;
    const std::uint64_t out_lines = lines - in_lines;
    const Addr in_base = 0;
    const Addr out_base = in_lines * lineBytes;

    const unsigned wgs = app.workgroupsPerKernel();
    const std::uint64_t band = in_lines / wgs;
    // Kernel 1 transposes back (out -> in), exercising the same
    // scatter-gather in the opposite direction.
    const bool forward = (k % 2 == 0);
    const Addr src = forward ? in_base : out_base;
    const Addr dst = forward ? out_base : in_base;
    const std::uint64_t dst_lines = forward ? out_lines : in_lines;

    KernelLaunch launch;
    launch.workgroups.reserve(wgs);
    for (unsigned w = 0; w < wgs; ++w) {
        TraceBuilder tb = app.builder();
        const std::uint64_t begin = w * band;
        const std::uint64_t end = (w + 1 == wgs) ? in_lines : begin + band;
        const std::uint64_t len = end - begin;
        // Workgroups start their sweep at staggered offsets (they
        // transpose independent tiles), so at any instant different
        // workgroups scatter into different destination pages.
        const std::uint64_t stagger = (std::uint64_t(w) * 13) % len;
        for (std::uint64_t j = 0; j < len; ++j) {
            const std::uint64_t line = begin + (j + stagger) % len;
            // Gather: read of the row band (each input line touched
            // exactly once in the whole kernel).
            tb.add(src + line * lineBytes, false);
            // Scatter: the transposed line lands at a column-major
            // position, interleaving every workgroup's writes across
            // all destination pages.
            const std::uint64_t out_line =
                ((line - begin) * wgs + w) % dst_lines;
            tb.add(dst + out_line * lineBytes, true);
        }
        launch.workgroups.push_back(tb.finishWorkgroup(w));
    }
    return launch;
}

} // namespace griffin::wl
