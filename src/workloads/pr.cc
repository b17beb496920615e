#include "src/workloads/suite.hh"

namespace griffin::wl {

/**
 * PageRank (Hetero-Mark, Random, 38 MB): per-iteration random pulls
 * of neighbour ranks across the whole rank array; the access pattern
 * re-randomizes every iteration, which defeats history-based
 * placement (the paper's one slowdown case).
 */
KernelLaunch
prKernel(const Workload &app, unsigned k)
{
    const std::uint64_t lines = app.footprintBytes() / lineBytes;
    const std::uint64_t rank_lines = lines / 10; ///< per rank buffer
    const std::uint64_t col_lines = lines - 2 * rank_lines;
    const Addr rank_a_base = 0;
    const Addr rank_b_base = rank_lines * lineBytes;
    const Addr cols_base = 2 * rank_lines * lineBytes;

    const unsigned wgs = app.workgroupsPerKernel();
    const std::uint64_t chunk = rank_lines / wgs;
    // Ping-pong the rank buffers each iteration.
    const Addr old_ranks = (k % 2 == 0) ? rank_a_base : rank_b_base;
    const Addr new_ranks = (k % 2 == 0) ? rank_b_base : rank_a_base;

    KernelLaunch launch;
    launch.workgroups.reserve(wgs);
    for (unsigned w = 0; w < wgs; ++w) {
        // The workgroup streams its own edge-list region (stable
        // mapping, correctly placed after the first iteration). The
        // irregularity is in the *pulls*: each vertex group pulls a
        // burst of in-neighbour ranks from a random page of the rank
        // array. A burst is hot for a couple of collection periods —
        // long enough for the DPC to classify the page as dedicated
        // to the puller, but cold again before the migration lands.
        // Every iteration re-randomizes the bursts, so Griffin keeps
        // migrating rank pages after the fact and never profits: the
        // paper's explanation for PageRank's slowdown.
        sim::Rng rng = app.rngFor(k, w);
        TraceBuilder tb = app.builder();

        const std::uint64_t col_region = col_lines / wgs;
        const std::uint64_t col_begin = w * col_region;
        const std::uint64_t col_end =
            (w + 1 == wgs) ? col_lines : col_begin + col_region;
        const std::uint64_t begin = w * chunk;
        const std::uint64_t end =
            (w + 1 == wgs) ? rank_lines : begin + chunk;

        std::uint64_t rank_cursor = begin;
        for (std::uint64_t cl = col_begin; cl < col_end; ++cl) {
            tb.add(cols_base + cl * lineBytes, false);
            if ((cl - col_begin) % 12 == 0) {
                // In-neighbour pull burst: 24 lines of one random
                // rank page.
                const std::uint64_t base =
                    rng.nextBelow(std::max<std::uint64_t>(
                        rank_lines - 24, 1));
                for (std::uint64_t b = 0; b < 24; ++b)
                    tb.add(old_ranks + (base + b) * lineBytes, false);
            }
            if ((cl - col_begin) % 4 == 0 && rank_cursor < end)
                tb.add(old_ranks + rank_cursor * lineBytes, false);
            if ((cl - col_begin) % 16 == 0 && rank_cursor < end) {
                tb.add(new_ranks + rank_cursor * lineBytes, true);
                ++rank_cursor;
            }
        }
        launch.workgroups.push_back(tb.finishWorkgroup(w));
    }
    return launch;
}

} // namespace griffin::wl
