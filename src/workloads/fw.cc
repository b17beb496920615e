#include "src/workloads/suite.hh"

namespace griffin::wl {

/**
 * Fast Walsh Transform (AMDAPPSDK, Adjacent, 40 MB): butterfly stages
 * with doubling stride; each workgroup combines its own chunk with a
 * stage-dependent partner chunk.
 */
KernelLaunch
fwKernel(const Workload &app, unsigned k)
{
    const std::uint64_t lines = app.footprintBytes() / lineBytes;
    const Addr base = 0;
    const unsigned wgs = app.workgroupsPerKernel();
    const std::uint64_t chunk = lines / wgs;

    // Butterfly stride doubles per stage; by the late stages the
    // partner lines live in another workgroup's chunk (and usually on
    // another GPU), producing the cross-GPU reads of the transform.
    std::uint64_t stride = std::uint64_t(8) << k;
    if (stride >= lines)
        stride = lines / 2;

    KernelLaunch launch;
    launch.workgroups.reserve(wgs);
    for (unsigned w = 0; w < wgs; ++w) {
        TraceBuilder tb = app.builder();
        const std::uint64_t begin = w * chunk;
        const std::uint64_t end = (w + 1 == wgs) ? lines : begin + chunk;
        // Each pair (line, line^stride) is processed once: the lower
        // index issues it, every other line to bound the trace.
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
