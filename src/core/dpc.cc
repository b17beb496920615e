#include "src/core/dpc.hh"

#include <algorithm>
#include <cassert>

#include "src/obs/trace.hh"
#include "src/sim/engine.hh"

namespace griffin::core {

namespace {

/** Counts below this are treated as silence for trend detection. */
constexpr double trendEps = 0.5;
/** Pages whose every filtered count falls below this are dropped. */
constexpr double gcThreshold = 0.01;

} // namespace

const char *
pageClassName(PageClass cls)
{
    switch (cls) {
      case PageClass::MostlyDedicated: return "mostly-dedicated";
      case PageClass::Shared:          return "shared";
      case PageClass::Streaming:       return "streaming";
      case PageClass::OwnerShifting:   return "owner-shifting";
      case PageClass::OutOfInterest:   return "out-of-interest";
    }
    return "?";
}

Dpc::Dpc(unsigned num_gpus, const GriffinConfig &config,
         const sim::Engine *clock)
    : _numGpus(num_gpus), _config(config), _clock(clock)
{
    assert(num_gpus >= 2 && "classification needs at least two GPUs");
}

void
Dpc::addCounts(DeviceId gpu, const std::vector<gpu::PageCount> &counts)
{
    const unsigned g = gpuIndex(gpu);
    assert(g < _numGpus);
    for (const auto &pc : counts) {
        auto it = _pages.find(pc.page);
        if (it == _pages.end()) {
            // A dropped page's node comes back vectors and all.
            it = _stock.insert(_pages, pc.page);
            PageState &st = it->second;
            st.filtered.assign(_numGpus, 0.0);
            st.previous.assign(_numGpus, 0.0);
            st.pending.assign(_numGpus, 0);
            st.lastClass = -1;
        }
        it->second.pending[g] += pc.count;
    }
}

std::vector<MigrationCandidate>
Dpc::endPeriod(const mem::PageTable &pt)
{
    ++periods;
    std::vector<MigrationCandidate> candidates;

    for (auto it = _pages.begin(); it != _pages.end();) {
        PageState &st = it->second;

        // EWMA update; unreported GPUs contribute N = 0 and decay.
        bool any_alive = false;
        for (unsigned g = 0; g < _numGpus; ++g) {
            st.previous[g] = st.filtered[g];
            st.filtered[g] = (1.0 - _config.alpha) * st.filtered[g] +
                             _config.alpha * double(st.pending[g]);
            st.pending[g] = 0;
            any_alive = any_alive || st.filtered[g] >= gcThreshold;
        }
        if (!any_alive) {
            it = _stock.retire(_pages, it);
            continue;
        }

        const PageId page = it->first;
        const mem::PageInfo &pi = pt.info(page);

        // Only GPU-resident, stable pages are inter-GPU candidates;
        // CPU-resident pages are DFTM's business.
        if (pi.location != cpuDeviceId && !pi.migrating &&
            !pi.migrationPending && !pi.pinned) {
            unsigned best_gpu = 0;
            const PageClass cls = classifyState(st, pi.location,
                                                &best_gpu);
            ++classCounts[std::size_t(cls)];

            if (int(cls) != st.lastClass) {
                if (_clock) {
                    if (auto *tr = obs::TraceSession::activeFor(
                            obs::CatPolicy)) {
                        tr->instant(obs::CatPolicy, "dpc",
                                    "class_change", _clock->now(),
                                    obs::TraceArgs()
                                        .add("page", page)
                                        .add("class",
                                             pageClassName(cls)));
                    }
                }
                st.lastClass = int(cls);
            }

            const DeviceId target = DeviceId(best_gpu + 1);
            const bool wants_move =
                (cls == PageClass::MostlyDedicated ||
                 cls == PageClass::Shared ||
                 cls == PageClass::OwnerShifting) &&
                target != pi.location;
            if (wants_move) {
                candidates.push_back(MigrationCandidate{
                    page, pi.location, target, cls,
                    st.filtered[best_gpu]});
            }
        }
        ++it;
    }

    std::sort(candidates.begin(), candidates.end(),
              [](const auto &a, const auto &b) {
                  if (a.score != b.score)
                      return a.score > b.score;
                  return a.page < b.page;
              });
    candidatesEmitted += candidates.size();
    return candidates;
}

PageClass
Dpc::classifyState(const PageState &st, DeviceId location,
                   unsigned *best_gpu) const
{
    // Rank the GPUs by filtered count.
    unsigned max_g = 0;
    double max_c = -1.0, second_c = 0.0;
    for (unsigned g = 0; g < _numGpus; ++g) {
        if (st.filtered[g] > max_c) {
            second_c = max_c;
            max_c = st.filtered[g];
            max_g = g;
        } else if (st.filtered[g] > second_c) {
            second_c = st.filtered[g];
        }
    }
    if (second_c < 0.0)
        second_c = 0.0;
    *best_gpu = max_g;

    const bool owner_is_gpu = location != cpuDeviceId;
    const unsigned owner_g = owner_is_gpu ? unsigned(location - 1) : 0;
    const double owner_c = owner_is_gpu ? st.filtered[owner_g] : 0.0;

    // Streaming: the rate stays below lambda_t accesses/cycle — not
    // enough locality to amortize a migration.
    if (max_c / double(_config.tAc) < _config.lambdaT)
        return PageClass::Streaming;

    // Mostly Dedicated: one GPU dominates by at least lambda_d.
    if (max_c >= _config.lambdaD * std::max(second_c, 1.0))
        return PageClass::MostlyDedicated;

    // Shared: flat distribution. Worth moving only off a cold owner.
    if (max_c <= _config.lambdaS * std::max(second_c, 1.0)) {
        if (owner_is_gpu && owner_c * _config.lambdaD < max_c)
            return PageClass::Shared; // cold owner: candidate
        // Warm owner: staying put; report it as shared but the caller
        // sees target == location for the hottest-on-owner case...
        if (owner_is_gpu && owner_g != max_g) {
            // Not worth the overhead: pretend best is the owner.
            *best_gpu = owner_g;
        }
        return PageClass::Shared;
    }

    // Owner-Shifting: the owner's count is falling while another
    // GPU's count is rising above the owner's. In predictive mode
    // (paper SS VII future work) the riser only needs to be projected
    // to overtake the owner within the look-ahead window.
    if (owner_is_gpu &&
        st.filtered[owner_g] < st.previous[owner_g] - trendEps) {
        const double owner_fall =
            st.previous[owner_g] - st.filtered[owner_g];
        double best_rise = 0.0;
        unsigned riser = owner_g;
        for (unsigned g = 0; g < _numGpus; ++g) {
            if (g == owner_g)
                continue;
            const double rise = st.filtered[g] - st.previous[g];
            if (rise <= trendEps || rise <= best_rise)
                continue;
            const bool overtakes_now = st.filtered[g] > owner_c;
            // Linear extrapolation: riser climbs by `rise` per period
            // while the owner keeps falling by `owner_fall`.
            const bool overtakes_soon =
                _config.enablePredictiveMigration &&
                st.filtered[g] +
                        _config.predictiveLookahead * rise >
                    owner_c - _config.predictiveLookahead * owner_fall;
            if (overtakes_now || overtakes_soon) {
                best_rise = rise;
                riser = g;
            }
        }
        if (riser != owner_g) {
            *best_gpu = riser;
            return PageClass::OwnerShifting;
        }
    }

    return PageClass::OutOfInterest;
}

PageClass
Dpc::classify(PageId page, DeviceId location) const
{
    auto it = _pages.find(page);
    if (it == _pages.end())
        return PageClass::OutOfInterest;
    unsigned best = 0;
    return classifyState(it->second, location, &best);
}

std::vector<double>
Dpc::filteredCounts(PageId page) const
{
    auto it = _pages.find(page);
    if (it == _pages.end())
        return std::vector<double>(_numGpus, 0.0);
    return it->second.filtered;
}

} // namespace griffin::core
