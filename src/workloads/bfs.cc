#include "src/workloads/suite.hh"

namespace griffin::wl {

namespace {
/** Frontier share of the nodes per BFS level (bell-shaped). */
constexpr double frontierFraction[8] = {0.02, 0.08, 0.20, 0.30,
                                        0.20, 0.10, 0.06, 0.04};
} // namespace

/**
 * Breadth First Search (SHOC, Random, 32 MB): level-synchronized CSR
 * traversal. Each level scans the dense label array sequentially and
 * the frontier nodes pull random column-array lines.
 */
KernelLaunch
bfsKernel(const Workload &app, unsigned k)
{
    const std::uint64_t lines = app.footprintBytes() / lineBytes;
    // CSR split: 20% dense labels/rowptr, 80% edge (column) array.
    const std::uint64_t label_lines = lines / 5;
    const std::uint64_t col_lines = lines - label_lines;
    const Addr labels_base = 0;
    const Addr cols_base = label_lines * lineBytes;

    const unsigned wgs = app.workgroupsPerKernel();
    const double frontier = frontierFraction[k % 8];
    const std::uint64_t slice = label_lines / wgs;

    KernelLaunch launch;
    launch.workgroups.reserve(wgs);
    for (unsigned w = 0; w < wgs; ++w) {
        sim::Rng rng = app.rngFor(k, w);
        TraceBuilder tb = app.builder();

        const std::uint64_t begin = w * slice;
        const std::uint64_t end =
            (w + 1 == wgs) ? label_lines : begin + slice;
        for (std::uint64_t line = begin; line < end; ++line) {
            // Scan the level's labels sequentially.
            tb.add(labels_base + line * lineBytes, false);
            if (rng.nextDouble() < frontier) {
                // Frontier node: pull its adjacency list (random
                // column lines) and relax a random neighbour label.
                for (int e = 0; e < 2; ++e) {
                    const std::uint64_t cl = rng.nextBelow(col_lines);
                    tb.add(cols_base + cl * lineBytes, false);
                }
                const std::uint64_t nl = rng.nextBelow(label_lines);
                tb.add(labels_base + nl * lineBytes, true);
            }
        }
        launch.workgroups.push_back(tb.finishWorkgroup(w));
    }
    return launch;
}

} // namespace griffin::wl
