#include "src/workloads/suite.hh"

namespace griffin::wl {

/**
 * KMeans Clustering (Hetero-Mark, Partition, 51 MB): each workgroup
 * owns a point partition (dedicated pages) and every workgroup reads
 * the small centroid table (heavily shared pages) each iteration.
 */
KernelLaunch
kmKernel(const Workload &app, unsigned k)
{
    (void)k; // every iteration touches the same partitions
    const std::uint64_t lines = app.footprintBytes() / lineBytes;
    // The centroid table is small (two pages) and hammered by every
    // workgroup each iteration: the canonical Shared pages.
    const std::uint64_t centroid_lines = 128;
    const std::uint64_t assign_lines = lines / 8;
    const std::uint64_t point_lines = lines - centroid_lines - assign_lines;
    const Addr points_base = 0;
    const Addr centroids_base = point_lines * lineBytes;
    const Addr assign_base = (point_lines + centroid_lines) * lineBytes;

    const unsigned wgs = app.workgroupsPerKernel();
    const std::uint64_t part = point_lines / wgs;

    KernelLaunch launch;
    launch.workgroups.reserve(wgs);
    for (unsigned w = 0; w < wgs; ++w) {
        TraceBuilder tb = app.builder();

        // The workgroup's own point partition (Partition pattern:
        // dedicated pages, same owner every iteration), with the
        // shared centroid table re-read throughout the sweep so the
        // centroid pages stay hot for the whole kernel.
        const std::uint64_t begin = w * part;
        const std::uint64_t end =
            (w + 1 == wgs) ? point_lines : begin + part;
        for (std::uint64_t line = begin; line < end; ++line) {
            tb.add(points_base + line * lineBytes, false);
            if (line % 4 == 0) {
                // Distance computation against a batch of centroids.
                const std::uint64_t cl =
                    ((line - begin) / 4 * 8) % centroid_lines;
                for (std::uint64_t c = 0; c < 4; ++c)
                    tb.add(centroids_base +
                               ((cl + c) % centroid_lines) * lineBytes,
                           false);
            }
            if (line % 8 == 0) {
                const std::uint64_t al = (line / 8) % assign_lines;
                tb.add(assign_base + al * lineBytes, true);
            }
        }
        launch.workgroups.push_back(tb.finishWorkgroup(w));
    }
    return launch;
}

} // namespace griffin::wl
