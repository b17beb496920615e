/**
 * @file
 * Convolution locality study: watch Griffin's DPC chase the owner of
 * the hottest Simple Convolution page in real time (the scenario of
 * paper Figures 1 and 10).
 *
 * The example installs a per-access probe to find the hottest page,
 * then re-runs with a DPC period probe on that page and prints an
 * ASCII strip chart of each GPU's filtered access rate with the
 * page's location overlaid.
 */

#include <iostream>
#include <map>
#include <set>
#include <vector>

#include "src/sys/multi_gpu_system.hh"
#include "src/sys/report.hh"
#include "src/workloads/workload.hh"

using namespace griffin;

namespace {

/**
 * Pick the page whose dominant accessor changes the most over time —
 * the paper plots exactly such an owner-shifting page. Returns the
 * hottest page among those with the most distinct bucket winners.
 */
PageId
findOwnerShiftingPage(const std::map<PageId,
                                     std::map<std::uint64_t,
                                              std::vector<std::uint64_t>>>
                          &counts)
{
    PageId best_page = 0;
    std::size_t best_shifts = 0;
    std::uint64_t best_total = 0;
    for (const auto &[page, buckets] : counts) {
        std::set<std::size_t> winners;
        std::uint64_t total = 0;
        for (const auto &[bucket, row] : buckets) {
            std::size_t win = 0;
            std::uint64_t win_n = 0, bucket_n = 0;
            for (std::size_t g = 0; g < row.size(); ++g) {
                bucket_n += row[g];
                if (row[g] > win_n) {
                    win_n = row[g];
                    win = g;
                }
            }
            total += bucket_n;
            // Count a winner only when it truly dominates the bucket:
            // symmetric shared pages (the filter) never qualify.
            if (bucket_n >= 32 && win_n * 10 >= bucket_n * 6)
                winners.insert(win);
        }
        if (winners.size() > best_shifts ||
            (winners.size() == best_shifts && total > best_total)) {
            best_shifts = winners.size();
            best_total = total;
            best_page = page;
        }
    }
    return best_page;
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned scale = argc > 1 ? unsigned(std::stoul(argv[1])) : 32;
    wl::WorkloadConfig wcfg;
    wcfg.scaleDiv = scale;

    const auto sc = wl::makeWorkload("SC", wcfg);

    // Pass 1: find the page whose dominant accessor shifts the most.
    PageId hot = 0;
    {
        sys::MultiGpuSystem sys1(sys::SystemConfig::baseline());
        std::map<PageId,
                 std::map<std::uint64_t, std::vector<std::uint64_t>>>
            counts;
        sys1.setAccessProbe([&](Tick t, DeviceId gpu, PageId page) {
            auto &row = counts[page][t / 20000];
            if (row.empty())
                row.assign(4, 0);
            ++row[gpu - 1];
        });
        sys1.run(*sc);
        hot = findOwnerShiftingPage(counts);
        std::cout << "owner-shifting page: " << hot << "\n\n";
    }

    // Pass 2: chart that page's per-GPU rates and location.
    sys::MultiGpuSystem system(sys::SystemConfig::griffinDefault());

    struct Sample
    {
        Tick t;
        std::vector<double> rates;
        DeviceId loc;
    };
    std::vector<Sample> samples;
    system.griffinPolicy()->setPeriodProbe(
        [&](Tick t, PageId, const std::vector<double> &c, DeviceId loc) {
            samples.push_back({t, c, loc});
        },
        {hot});

    const auto result = system.run(*sc);

    std::cout << "time      owner   per-GPU filtered counts\n";
    double max_c = 1.0;
    for (const auto &s : samples)
        for (const double c : s.rates)
            max_c = std::max(max_c, c);

    DeviceId last = invalidDeviceId;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const auto &s = samples[i];
        const bool moved = s.loc != last;
        last = s.loc;
        if (!moved && i % 20 != 0)
            continue;
        double total = 0;
        for (const double c : s.rates)
            total += c;
        if (!moved && total < 0.5)
            continue;
        std::cout << sys::Table::num(double(s.t) / 1000.0, 0) << "k\t"
                  << (s.loc == cpuDeviceId
                          ? std::string("CPU ")
                          : "GPU" + std::to_string(s.loc))
                  << (moved ? "*" : " ") << "  ";
        for (std::size_t g = 0; g < s.rates.size(); ++g) {
            std::cout << "G" << (g + 1)
                      << sys::asciiBar(s.rates[g], max_c, 12) << " ";
        }
        std::cout << "\n";
    }

    std::cout << "\n(* = the page moved; " << result.pagesMigratedInterGpu
              << " pages migrated between GPUs in total)\n";
    return 0;
}
