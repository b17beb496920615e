#include "src/workloads/suite.hh"

namespace griffin::wl {

/**
 * Bitonic Sort (AMDAPPSDK, Random, 36 MB): stride-halving compare-
 * exchange stages; partners land in distant pages at early stages.
 */
KernelLaunch
bsKernel(const Workload &app, unsigned k)
{
    const std::uint64_t lines = app.footprintBytes() / lineBytes;
    const Addr base = 0;
    const unsigned wgs = app.workgroupsPerKernel();
    const std::uint64_t chunk = lines / wgs;

    // Compare-exchange stride (in lines), halving across stages: early
    // stages pair lines that live on distant pages, later stages stay
    // within a page — the "Random" flavour of Table III.
    std::uint64_t stride = lines >> (2 + k);
    if (stride == 0)
        stride = 1;

    KernelLaunch launch;
    launch.workgroups.reserve(wgs);
    for (unsigned w = 0; w < wgs; ++w) {
        TraceBuilder tb = app.builder();
        const std::uint64_t begin = w * chunk;
        const std::uint64_t end = (w + 1 == wgs) ? lines : begin + chunk;
        // Process every other line: each compare-exchange covers a
        // pair, so half the indices issue the pair's transactions.
        for (std::uint64_t line = begin; line < end; line += 2) {
            const std::uint64_t partner = (line ^ stride) % lines;
            tb.add(base + line * lineBytes, false);
            if (partner != line)
                tb.add(base + partner * lineBytes, false);
            tb.add(base + line * lineBytes, true);
        }
        launch.workgroups.push_back(tb.finishWorkgroup(w));
    }
    return launch;
}

} // namespace griffin::wl
