#include "src/workloads/suite.hh"

namespace griffin::wl {

/**
 * Simple Convolution (AMDAPPSDK, Adjacent, 41 MB): tiled convolution
 * passes; the workgroup count is coprime with the GPU count, so the
 * tile-to-GPU mapping rotates every kernel — the owner-shifting
 * behaviour of paper Figures 1 and 10.
 */
KernelLaunch
scKernel(const Workload &app, unsigned k)
{
    const std::uint64_t lines = app.footprintBytes() / lineBytes;
    // One filter page + two image buffers.
    const std::uint64_t img_lines = (lines - 64) / 2; ///< per image buffer
    const Addr filter_base = 0;
    const Addr in_base = 64 * lineBytes;
    const Addr out_base = in_base + img_lines * lineBytes;

    const unsigned wgs = app.workgroupsPerKernel();
    const std::uint64_t tile = img_lines / wgs;
    // Successive passes alternate the image buffers.
    const Addr src = (k % 2 == 0) ? in_base : out_base;
    const Addr dst = (k % 2 == 0) ? out_base : in_base;

    KernelLaunch launch;
    launch.workgroups.reserve(wgs);
    for (unsigned w = 0; w < wgs; ++w) {
        TraceBuilder tb = app.builder();

        // Because 61 workgroups % 4 GPUs != 0, the dispatcher cursor
        // rotates this tile to a different GPU every kernel — the
        // tile pages' dominant accessor shifts over time (the paper's
        // Figure 1/10 behaviour).
        const std::uint64_t begin = w * tile;
        const std::uint64_t end =
            (w + 1 == wgs) ? img_lines : begin + tile;
        for (std::uint64_t line = begin; line < end; ++line) {
            // The filter coefficients are re-read throughout the
            // tile sweep: page 0 stays hot for the whole kernel.
            if ((line - begin) % 32 == 0) {
                const std::uint64_t fl = ((line - begin) / 32) % 8;
                tb.add(filter_base + fl * lineBytes, false);
            }
            // 3-row convolution window: each source line is read by
            // three neighbouring output rows, so tile pages sustain
            // a high post-coalescing access rate while in the window.
            // A tile's last rows read the next tile's first 2 lines.
            for (std::uint64_t d = 0; d < 3; ++d) {
                const std::uint64_t sl = std::min(line + d, img_lines - 1);
                tb.add(src + sl * lineBytes, false);
            }
            tb.add(dst + line * lineBytes, true);
        }

        launch.workgroups.push_back(tb.finishWorkgroup(w));
    }
    return launch;
}

} // namespace griffin::wl
