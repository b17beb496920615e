#include "src/core/cpms.hh"

#include <algorithm>
#include <cassert>
#include <map>
#include <unordered_set>

#include "src/obs/pagestats.hh"

namespace griffin::core {

Cpms::Cpms(unsigned max_pages_per_period, unsigned max_source_gpus)
    : _maxPages(max_pages_per_period), _maxSources(max_source_gpus)
{
    assert(max_pages_per_period > 0 && max_source_gpus > 0);
}

std::vector<MigrationBatch>
Cpms::schedule(const std::vector<MigrationCandidate> &candidates,
               Tick now)
{
    ++phases;

    // Group by source GPU, preserving the caller's score order.
    std::map<DeviceId, std::vector<MigrationCandidate>> by_source;
    for (const auto &cand : candidates)
        by_source[cand.from].push_back(cand);

    // Drain the sources with the most candidate pages first: one
    // drain there amortizes over the most transfers.
    std::vector<DeviceId> sources;
    sources.reserve(by_source.size());
    for (const auto &[src, moves] : by_source)
        sources.push_back(src);
    std::sort(sources.begin(), sources.end(),
              [&](DeviceId a, DeviceId b) {
                  const auto na = by_source[a].size();
                  const auto nb = by_source[b].size();
                  if (na != nb)
                      return na > nb;
                  return a < b;
              });

    std::vector<MigrationBatch> batches;
    unsigned pages_total = 0;
    for (const DeviceId src : sources) {
        if (batches.size() >= _maxSources || pages_total >= _maxPages)
            break;
        MigrationBatch batch;
        batch.source = src;
        for (const auto &cand : by_source[src]) {
            if (pages_total >= _maxPages)
                break;
            batch.moves.push_back(cand);
            ++pages_total;
        }
        if (!batch.moves.empty())
            batches.push_back(std::move(batch));
    }

    pagesScheduled += pages_total;
    pagesDeferred += candidates.size() - pages_total;
    batchesEmitted += batches.size();

    if (obs::Telemetry::current().pages && pages_total < candidates.size()) {
        std::unordered_set<PageId> scheduled;
        for (const auto &batch : batches)
            for (const auto &move : batch.moves)
                scheduled.insert(move.page);
        for (const auto &cand : candidates) {
            if (!scheduled.count(cand.page)) {
                obs::PageStats::recordActive(
                    obs::PageEvent::MigrationDeferred, cand.page,
                    cand.from, cand.to, now);
            }
        }
    }
    return batches;
}

} // namespace griffin::core
