#include "src/workloads/suite.hh"

namespace griffin::wl {

/**
 * Finite Impulse Response (Hetero-Mark, Adjacent, 64 MB): batched
 * streaming filter; each workgroup reads a contiguous input slice
 * plus a tap halo and writes the matching output slice.
 */
KernelLaunch
firKernel(const Workload &app, unsigned k)
{
    const std::uint64_t lines = app.footprintBytes() / lineBytes;
    const std::uint64_t in_lines = lines / 2;
    const Addr in_base = 0;
    const Addr out_base = in_lines * lineBytes;

    // Each kernel filters one batch (a quarter of the signal).
    const unsigned kernels = app.numKernels();
    const unsigned wgs = app.workgroupsPerKernel();
    const std::uint64_t batch_lines = in_lines / kernels;
    const std::uint64_t batch_begin = k * batch_lines;
    const std::uint64_t slice = batch_lines / wgs;
    constexpr std::uint64_t tap_halo = 16; ///< filter taps past the slice

    KernelLaunch launch;
    launch.workgroups.reserve(wgs);
    for (unsigned w = 0; w < wgs; ++w) {
        TraceBuilder tb = app.builder();
        // A 16-tap filter does substantial MAC work per transaction.
        tb.setComputeDelay(app.config().computeDelay * 2);
        const std::uint64_t begin = batch_begin + w * slice;
        const std::uint64_t end = (w + 1 == wgs)
            ? batch_begin + batch_lines
            : begin + slice;
        // Sliding tap window: each output line convolves four input
        // lines, the last of which reaches into the next workgroup's
        // slice (the tap halo). Input lines are re-read by adjacent
        // windows, sustaining the per-page access rate.
        for (std::uint64_t line = begin; line < end; ++line) {
            for (std::uint64_t t = 0; t < 4; ++t) {
                const std::uint64_t il =
                    std::min(line + t * (tap_halo / 4), in_lines - 1);
                tb.add(in_base + il * lineBytes, false);
            }
            tb.add(out_base + line * lineBytes, true);
        }
        launch.workgroups.push_back(tb.finishWorkgroup(w));
    }
    return launch;
}

} // namespace griffin::wl
