/**
 * @file
 * The experiment registry behind `griffin run`: one entry per paper
 * figure, table and ablation, plus the CI perf gate. Most entries are
 * one of two table shapes:
 *
 *   rows    one row per workload from its runs under a fixed list of
 *           config variants (Figs. 2, 8, 9, 11-13 and the component /
 *           predictive ablations)
 *   points  one row per parameter point: Griffin's speedup over the
 *           baseline on each workload (the parameter sweeps)
 *
 * Figs. 1 and 10, Table III and the perf gate are bespoke.
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <tuple>

#include "tools/run.hh"

namespace griffin::cli {

namespace {

using sys::SystemConfig;
using sys::Table;
using Runs = const sys::RunResult *;

/** Griffin's default config with one knob set. */
template <typename T>
SystemConfig
griffinWith(T core::GriffinConfig::*knob, T value)
{
    SystemConfig cfg = SystemConfig::griffinDefault();
    cfg.griffin.*knob = value;
    return cfg;
}

double
speedup(const sys::RunResult &base, const sys::RunResult &run)
{
    return double(base.cycles) / double(run.cycles);
}

/** One table row; a mean() cell feeds its column's geomean footer. */
struct Row
{
    std::vector<std::string> cells;
    std::vector<std::pair<std::size_t, double>> means;

    Row &
    operator<<(std::string cell)
    {
        cells.push_back(std::move(cell));
        return *this;
    }

    Row &
    mean(double v)
    {
        means.emplace_back(cells.size(), v);
        return *this << Table::num(v);
    }
};

struct Variant
{
    std::string dim;
    SystemConfig cfg;
};

/**
 * A workload-rows entry: one row per selected workload, holding its
 * name, then whatever @p row makes of its runs under @p variants (in
 * variant order). A footer row holds the geomean of every mean()
 * column. @p scaleLine adds the footprint scale under the title.
 */
Experiment
rows(std::string name, std::string paper, std::vector<std::string> header,
     std::vector<Variant> variants, void (*row)(Row &, Runs),
     std::string note = "", bool scaleLine = false)
{
    return {name, paper, {}, {}, {}, [=](Sweep &sweep) {
        const auto &names = sweep.opt.workloads;
        std::cout << "=== " << paper << " ===\n";
        if (scaleLine)
            std::cout << "(scale 1/" << sweep.opt.workload.scaleDiv
                      << " of paper footprints)\n";
        std::cout << "\n";
        for (const std::string &w : names) {
            for (const Variant &v : variants)
                sweep.add(w, v.cfg, v.dim);
        }
        const auto results = sweep.run();

        std::vector<std::vector<double>> columns(header.size());
        bool footer = false;
        Table table(header);
        for (std::size_t i = 0; i < names.size(); ++i) {
            Row r;
            row(r << names[i], &results[i * variants.size()]);
            for (const auto &[c, v] : r.means)
                columns[c].push_back(v);
            footer |= !r.means.empty();
            table.addRow(std::move(r.cells));
        }
        if (footer) {
            std::vector<std::string> geo{"geomean"};
            for (std::size_t c = 1; c < columns.size(); ++c) {
                geo.push_back(columns[c].empty()
                                  ? ""
                                  : Table::num(sys::geomean(columns[c])));
            }
            table.addRow(std::move(geo));
        }
        sweep.emit(table, note);
    }};
}

struct Point
{
    /** The row's leading cells. */
    std::vector<std::string> labels;
    std::string dim;
    SystemConfig cfg;
    /** Its own baseline; else the shared default baseline. */
    std::optional<SystemConfig> base = std::nullopt;
};

/**
 * A parameter sweep entry: one row per point, holding its labels,
 * then Griffin's speedup over the baseline on each selected workload
 * (plus an @p extra cell, in a column named after the workload and
 * @p suffix), then optionally the row's geomean. The shared baselines
 * run first, a point's own baseline just before it.
 */
Experiment
points(std::string name, std::string paper,
       std::vector<std::string> subset, std::vector<std::string> header,
       std::vector<Point> grid, bool geomean, std::string suffix = "",
       std::string (*extra)(const sys::RunResult &) = nullptr,
       std::string note = "")
{
    return {name, paper, {}, subset, {}, [=](Sweep &sweep) {
        const auto &names = sweep.opt.workloads;
        std::cout << "=== " << paper << " ===\n\n";
        std::vector<std::size_t> shared;
        for (std::size_t i = 0; !grid[0].base && i < names.size(); ++i)
            shared.push_back(sweep.add(names[i], SystemConfig::baseline()));
        std::vector<std::pair<std::size_t, std::size_t>> runs;
        for (const Point &p : grid) {
            for (std::size_t i = 0; i < names.size(); ++i) {
                const std::size_t base =
                    p.base ? sweep.add(names[i], *p.base, p.dim) : shared[i];
                runs.emplace_back(base, sweep.add(names[i], p.cfg, p.dim));
            }
        }
        const auto results = sweep.run();

        std::vector<std::string> columns = header;
        for (const std::string &n : names) {
            columns.push_back(extra ? n + " spd" : n);
            if (extra)
                columns.push_back(n + suffix);
        }
        if (geomean)
            columns.push_back("geomean");
        Table table(columns);
        auto run = runs.begin();
        for (const Point &p : grid) {
            std::vector<std::string> cells = p.labels;
            std::vector<double> speedups;
            for (; speedups.size() < names.size(); ++run) {
                const auto &r = results[run->second];
                speedups.push_back(speedup(results[run->first], r));
                cells.push_back(Table::num(speedups.back()));
                if (extra)
                    cells.push_back(extra(r));
            }
            if (geomean)
                cells.push_back(Table::num(sys::geomean(speedups)));
            table.addRow(std::move(cells));
        }
        sweep.emit(table, note);
    }};
}

/** Per-page, per-bucket, per-GPU access counts. */
using AccessCounts =
    std::map<PageId, std::map<std::uint64_t, std::vector<std::uint64_t>>>;

std::uint64_t
sum(const std::vector<std::uint64_t> &counts)
{
    return std::accumulate(counts.begin(), counts.end(), std::uint64_t(0));
}

/**
 * Submit an SC run under @p cfg that counts its accesses per page,
 * per @p bucket cycles and per GPU into @p counts. A single-job sweep
 * runs inline on this thread, so the probe may write to @p counts.
 */
void
countAccesses(Sweep &sweep, const SystemConfig &cfg, const std::string &dim,
              Tick bucket, AccessCounts &counts)
{
    sweep.add("SC", cfg, dim, [&counts, bucket](sys::MultiGpuSystem &s) {
        s.setAccessProbe([&counts, bucket, gpus = s.numGpus()](
                             Tick t, DeviceId gpu, PageId page) {
            auto &row = counts[page][t / bucket];
            if (row.empty())
                row.assign(gpus, 0);
            ++row[gpu - 1];
        });
    });
}

/**
 * Fig. 1: the per-GPU access mix of SC's hottest page over time under
 * the baseline. The dominant accessor changes, but first touch pins
 * the page forever.
 */
void
fig01(Sweep &sweep)
{
    AccessCounts counts;
    countAccesses(sweep, SystemConfig::baseline(), "", 10000, counts);
    const auto result = sweep.run().at(0);

    PageId hot = 0;
    std::uint64_t best = 0;
    for (const auto &[page, buckets] : counts) {
        std::uint64_t n = 0;
        for (const auto &[t, row] : buckets)
            n += sum(row);
        if (n > best) {
            best = n;
            hot = page;
        }
    }
    std::cout << "=== Figure 1: accesses to the hottest SC page (" << hot
              << ", " << best << " accesses) per GPU over time ===\n"
              << "(baseline first-touch; " << result.cycles
              << " total cycles)\n\n";

    std::vector<std::string> header{"t(x10k cyc)"};
    for (unsigned g = 1; g <= SystemConfig::baseline().numGpus; ++g)
        header.push_back("GPU" + std::to_string(g) + "%");
    Table table(header);
    for (const auto &[t, row] : counts[hot]) {
        const double total = double(sum(row));
        std::vector<std::string> cells{std::to_string(t)};
        for (const auto v : row)
            cells.push_back(Table::num(100.0 * double(v) / total, 1));
        table.addRow(std::move(cells));
    }
    sweep.emit(table);
}

/**
 * The page whose dominant accessor changes the most over time: the
 * hottest page among those with the most distinct bucket winners.
 */
PageId
findOwnerShiftingPage(const AccessCounts &counts)
{
    PageId bestPage = 0;
    std::size_t bestShifts = 0;
    std::uint64_t bestTotal = 0;
    for (const auto &[page, buckets] : counts) {
        std::set<std::size_t> winners;
        std::uint64_t total = 0;
        for (const auto &[t, row] : buckets) {
            const auto win = std::max_element(row.begin(), row.end());
            const std::uint64_t bucketN = sum(row);
            total += bucketN;
            // Count a winner only when it truly dominates the bucket:
            // symmetric shared pages (the filter) never qualify.
            if (bucketN >= 32 && *win * 10 >= bucketN * 6)
                winners.insert(std::size_t(win - row.begin()));
        }
        if (winners.size() > bestShifts ||
            (winners.size() == bestShifts && total > bestTotal)) {
            bestShifts = winners.size();
            bestTotal = total;
            bestPage = page;
        }
    }
    return bestPage;
}

/**
 * Fig. 10: the DPC's filtered per-GPU access rates of an
 * owner-shifting SC page over time, with the page's location. The
 * migration lags the access-pattern change slightly: Griffin is
 * reactive, not predictive (paper §V).
 */
void
fig10(Sweep &sweep)
{
    // Pass 1 finds the page under the baseline, where nothing migrates
    // to confound it; pass 2 probes that page's DPC state every period.
    AccessCounts counts;
    countAccesses(sweep, SystemConfig::baseline(), "pass=probe", 20000,
                  counts);
    sweep.run();
    const PageId hot = findOwnerShiftingPage(counts);

    // The single-job sweep runs inline, so the probe may fill the
    // table: every 10th sample plus every location change.
    const SystemConfig cfg = SystemConfig::griffinDefault();
    std::vector<std::string> header{"time"};
    for (unsigned g = 1; g <= cfg.numGpus; ++g)
        header.push_back("GPU" + std::to_string(g) + " apc");
    header.push_back("location");
    Table table(header);
    const Tick tAc = cfg.griffin.tAc;
    std::size_t sample = 0;
    DeviceId lastLoc = invalidDeviceId;
    sweep.add("SC", cfg, "", [&](sys::MultiGpuSystem &system) {
        system.griffinPolicy()->setPeriodProbe(
            [&](Tick t, PageId, const std::vector<double> &rates,
                DeviceId loc) {
                const bool moved = loc != lastLoc;
                lastLoc = loc;
                if (sample++ % 10 != 0 && !moved)
                    return;
                std::vector<std::string> cells{std::to_string(t)};
                for (const double r : rates)
                    cells.push_back(Table::num(r / double(tAc), 4));
                cells.push_back((loc == cpuDeviceId
                                     ? "CPU"
                                     : "GPU" + std::to_string(loc)) +
                                (moved ? "  <- moved" : ""));
                table.addRow(std::move(cells));
            },
            {hot});
    });
    const auto result = sweep.run().at(0);
    std::cout << "=== Figure 10: DPC tracking of an owner-shifting SC page ("
              << hot << ") ===\n"
              << "(" << result.cycles << " cycles, "
              << result.pagesMigratedInterGpu
              << " inter-GPU migrations total)\n\n";
    sweep.emit(table, "(apc = filtered accesses per cycle, the paper's "
                      "y-axis; the location column is the dotted line)\n");
}

/**
 * Table III: the workload roster, plus the generated trace volume at
 * the current scale (a check that the generators match their spec).
 */
void
tab03(Sweep &sweep)
{
    std::cout << "=== Table III: workloads ===\n\n";
    Table table({"Abbv", "Application", "Suite", "Pattern", "PaperMB",
                 "ScaledMB", "Kernels", "WGs/kernel", "Ops(k0)"});
    for (const std::string &name : sweep.opt.workloads) {
        const auto w = wl::makeWorkload(name, sweep.opt.workload);
        table.addRow({w->name(), w->fullName(), w->suite(),
                      w->accessPattern(),
                      std::to_string(w->paperFootprintBytes() >> 20),
                      Table::num(double(w->footprintBytes()) / (1 << 20), 1),
                      std::to_string(w->numKernels()),
                      std::to_string(w->workgroupsPerKernel()),
                      std::to_string(w->makeKernel(0).totalOps())});
    }
    sweep.emit(table);
}

/**
 * The CI perf-regression gate: MT, BFS and SC under both policies at
 * a pinned scale, seed and sampling period. `griffin compare` checks
 * its --report against the committed BENCH_*.json; the simulator is
 * deterministic, so any drift is a behaviour change, not noise.
 * Regenerate a reference after an intentional change with
 *   build/tools/griffin run perf_gate --workload=MT --report=BENCH_MT.json
 * (and likewise BFS and SC).
 */
void
perfGate(Sweep &sweep)
{
    Table table({"Workload", "Policy", "Cycles", "Faults", "FaultP95",
                 "Local%"});
    const SystemConfig configs[] = {SystemConfig::baseline(),
                                    SystemConfig::griffinDefault()};
    // No dims: the committed references pin the labels ("MT/griffin").
    for (const std::string &name : sweep.opt.workloads) {
        for (const SystemConfig &cfg : configs)
            sweep.add(name, cfg);
    }
    const auto results = sweep.run();
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        table.addRow(
            {sweep.opt.workloads[i / 2],
             sys::policyName(configs[i % 2].policy),
             std::to_string(r.cycles),
             std::to_string(std::uint64_t(r.faultBreakdown.faults())),
             Table::num(r.latency.faultLatency.percentile(95.0), 0),
             Table::num(r.localFraction() * 100.0, 1)});
    }
    sweep.emit(table, "(pinned gate config: scale=64 seed=42; compare the "
                      "--report output against BENCH_*.json with "
                      "griffin compare)\n");
}

/** The percentage of @p r's GPU-resident pages on each GPU. */
void
pageShares(Row &row, const sys::RunResult &r)
{
    std::uint64_t onGpus = 0;
    for (std::size_t dev = 1; dev < r.pagesPerDevice.size(); ++dev)
        onGpus += r.pagesPerDevice[dev];
    for (std::size_t dev = 1; dev < r.pagesPerDevice.size(); ++dev) {
        row << Table::num(onGpus ? 100.0 * double(r.pagesPerDevice[dev]) /
                                       double(onGpus)
                                 : 0.0,
                          1);
    }
}

std::vector<Experiment>
makeRegistry()
{
    using G = core::GriffinConfig;
    const SystemConfig base = SystemConfig::baseline();
    const SystemConfig grif = SystemConfig::griffinDefault();
    const SystemConfig noAcud = griffinWith(&G::useAcud, false);
    const SystemConfig noDftm = griffinWith(&G::enableDftm, false);
    const SystemConfig noInterGpu =
        griffinWith(&G::enableInterGpuMigration, false);
    SystemConfig batchOnly = noDftm, hbwBase = base, hbwGrif = grif;
    batchOnly.griffin.enableInterGpuMigration = false;
    hbwBase.withHighBandwidthFabric();
    hbwGrif.withHighBandwidthFabric();

    std::vector<Point> alphas, nptws, periods, lambdas, pageSizes, gpus;
    for (const double alpha : {0.01, 0.03, 0.1, 0.25, 0.5, 0.8}) {
        const std::string a = Table::num(alpha);
        alphas.push_back({{a}, "alpha=" + a, griffinWith(&G::alpha, alpha)});
    }
    for (const unsigned n : {1, 2, 4, 8, 16, 32}) {
        const std::string v = std::to_string(n);
        nptws.push_back({{v}, "nptw=" + v, griffinWith(&G::nPtw, n)});
    }
    for (const Tick tAc : {500, 1000, 2000, 4000}) {
        for (const unsigned mig : {1, 4, 8, 16}) {
            SystemConfig cfg = griffinWith(&G::tAc, tAc);
            cfg.griffin.migrationInterval = mig;
            const std::string t = std::to_string(tAc),
                              m = std::to_string(mig);
            periods.push_back({{t, m}, "tac=" + t + ",mig=" + m, cfg});
        }
    }
    for (const auto &[d, s, t] :
         {std::tuple{1.5, 1.2, 0.001}, {2.0, 1.3, 0.001}, {2.0, 1.3, 0.002},
          {2.0, 1.3, 0.01}, {2.0, 1.3, 0.03}, {3.0, 1.1, 0.002},
          {4.0, 1.5, 0.002}}) {
        SystemConfig cfg = griffinWith(&G::lambdaD, d);
        cfg.griffin.lambdaS = s;
        cfg.griffin.lambdaT = t;
        const std::string ld = Table::num(d, 1), ls = Table::num(s, 1),
                          lt = Table::num(t, 3);
        lambdas.push_back(
            {{ld, ls, lt}, "ld=" + ld + ",ls=" + ls + ",lt=" + lt, cfg});
    }
    for (const unsigned shift : {12, 13, 14, 16}) {
        const std::string kb = std::to_string((1u << shift) / 1024);
        for (SystemConfig cfg : {base, grif}) {
            cfg.gpu.pageShift = shift;
            pageSizes.push_back(
                {{kb, cfg.policy == base.policy ? "baseline" : "griffin"},
                 "page=" + kb + "KB", cfg});
        }
    }
    for (const unsigned n : {2, 4, 8}) {
        SystemConfig b = base, g = grif;
        b.numGpus = g.numGpus = n;
        const std::string v = std::to_string(n);
        gpus.push_back({{v}, "gpus=" + v, g, b});
    }

    return {
        {"fig01_page_access_timeline",
         "Figure 1: accesses to the hottest SC page per GPU over time",
         {"SC"}, {}, {}, fig01},
        rows("fig02_first_touch_imbalance",
             "Figure 2: first-touch page placement per GPU",
             {"Benchmark", "GPU1%", "GPU2%", "GPU3%", "GPU4%", "onCPU",
              "maxShare"},
             {{"", base}}, [](Row &row, Runs r) {
                 pageShares(row, r[0]);
                 row << std::to_string(r[0].pagesPerDevice[0])
                     << Table::num(100.0 * r[0].maxGpuShare(), 1);
             },
             "(uniform would be 25% per GPU; larger maxShare = worse "
             "imbalance)\n"),
        rows("fig08_occupancy_balance",
             "Figure 8: occupancy balance, baseline vs Griffin",
             {"Benchmark", "B:G1%", "B:G2%", "B:G3%", "B:G4%", "B:max",
              "G:G1%", "G:G2%", "G:G3%", "G:G4%", "G:max"},
             {{"", base}, {"", grif}}, [](Row &row, Runs r) {
                 for (int k = 0; k < 2; ++k) {
                     pageShares(row, r[k]);
                     row << Table::num(100.0 * r[k].maxGpuShare(), 1);
                 }
             },
             "(uniform = 25% per GPU; Griffin's max share should sit close "
             "to 25%)\n"),
        rows("fig09_tlb_shootdowns",
             "Figure 9: TLB shootdowns, Griffin normalized to baseline",
             {"Benchmark", "Base(cpu)", "Grif(cpu)", "Grif(gpu)",
              "Normalized", ""},
             {{"", base}, {"", grif}}, [](Row &row, Runs r) {
                 const double before = double(r[0].totalShootdowns());
                 const double norm =
                     before ? double(r[1].totalShootdowns()) / before : 0.0;
                 row << std::to_string(r[0].cpuShootdowns)
                     << std::to_string(r[1].cpuShootdowns)
                     << std::to_string(r[1].gpuShootdowns)
                     << Table::num(norm) << sys::asciiBar(norm, 1.0, 30);
             },
             "(baseline has no GPU-side shootdowns: it never migrates "
             "between GPUs)\n"),
        {"fig10_dpc_timeline",
         "Figure 10: DPC tracking of an owner-shifting SC page", {"SC"}, {},
         {}, fig10},
        rows("fig11_acud_vs_flush",
             "Figure 11: Griffin+Flush vs Griffin+ACUD",
             {"Benchmark", "Flush(cyc)", "ACUD(cyc)", "Speedup",
              "Discarded", "Migrations", ""},
             {{"acud=off", noAcud}, {"acud=on", grif}},
             [](Row &row, Runs r) {
                 // Work thrown away by the flush-based scheme.
                 double discarded = 0;
                 for (unsigned g = 1; g <= 4; ++g) {
                     discarded += r[0].stats.get(
                         "gpu" + std::to_string(g) + ".opsDiscarded");
                 }
                 const double s = speedup(r[0], r[1]);
                 row << std::to_string(r[0].cycles)
                     << std::to_string(r[1].cycles);
                 row.mean(s) << Table::num(discarded, 0)
                             << std::to_string(r[1].pagesMigratedInterGpu)
                             << sys::asciiBar(s, 2.0, 30);
             }),
        rows("fig12_speedup", "Figure 12: Speedup of Griffin vs Baseline",
             {"Benchmark", "Baseline(cyc)", "Griffin(cyc)", "Speedup",
              "Local%Base", "Local%Grif", ""},
             {{"", base}, {"", grif}}, [](Row &row, Runs r) {
                 const double s = speedup(r[0], r[1]);
                 row << std::to_string(r[0].cycles)
                     << std::to_string(r[1].cycles);
                 row.mean(s) << Table::num(100.0 * r[0].localFraction(), 1)
                             << Table::num(100.0 * r[1].localFraction(), 1)
                             << sys::asciiBar(s, 3.0, 30);
             }, "", true),
        rows("fig13_highbw_speedup",
             "Figure 13: speedup with a high-bandwidth fabric",
             {"Benchmark", "Base(cyc)", "Griffin(cyc)", "Speedup",
              "Spd(PCIe)", ""},
             {{"fabric=hbw", hbwBase}, {"fabric=hbw", hbwGrif},
              {"fabric=pcie", base}, {"fabric=pcie", grif}},
             [](Row &row, Runs r) {
                 const double s = speedup(r[0], r[1]);
                 row << std::to_string(r[0].cycles)
                     << std::to_string(r[1].cycles);
                 row.mean(s) << Table::num(speedup(r[2], r[3]))
                             << sys::asciiBar(s, 2.0, 30);
             }),
        {"tab03_workloads", "Table III: workloads", {}, {}, {}, tab03},
        points("abl_alpha_sweep", "Ablation: DPC filter alpha",
               {"SC", "KM", "ST", "PR"}, {"alpha"}, alphas, true),
        points("abl_nptw_sweep", "Ablation: CPMS fault batch size (N_PTW)",
               {"MT", "FIR", "SC", "BFS"}, {"N_PTW"}, nptws, true),
        points("abl_period_sweep",
               "Ablation: collection period T_ac and migration interval",
               {"SC", "ST", "KM"}, {"T_ac", "migInterval"}, periods, true),
        rows("abl_components",
             "Ablation: Griffin components (speedup over baseline)",
             {"Benchmark", "full", "-DFTM", "-interGPU", "-ACUD",
              "batchOnly"},
             // -DFTM: plain first-touch migration on the CPU fault
             // path; -interGPU: no periodic classification or inter-GPU
             // migration; -ACUD: inter-GPU migration flushes the
             // pipeline; batchOnly: fault batching alone.
             {{"", base}, {"variant=full", grif}, {"variant=-DFTM", noDftm},
              {"variant=-interGPU", noInterGpu}, {"variant=-ACUD", noAcud},
              {"variant=batchOnly", batchOnly}},
             [](Row &row, Runs r) {
                 for (std::size_t v = 1; v <= 5; ++v)
                     row.mean(speedup(r[0], r[v]));
             }),
        points("abl_thresholds",
               "Ablation: DPC thresholds (speedup / migrations)",
               {"SC", "PR"}, {"l_d", "l_s", "l_t"}, lambdas, false, " mig",
               [](const sys::RunResult &r) {
                   return std::to_string(r.pagesMigratedInterGpu);
               }),
        rows("abl_predictive", "Extension: reactive vs predictive migration",
             {"Benchmark", "Reactive", "Predictive", "P/R", "Mig(R)",
              "Mig(P)"},
             {{"", base},
              {"", grif},
              {"mode=predictive",
               griffinWith(&G::enablePredictiveMigration, true)}},
             [](Row &row, Runs r) {
                 const double reactive = speedup(r[0], r[1]);
                 const double predictive = speedup(r[0], r[2]);
                 row << Table::num(reactive) << Table::num(predictive);
                 row.mean(predictive / reactive)
                     << std::to_string(r[1].pagesMigratedInterGpu)
                     << std::to_string(r[2].pagesMigratedInterGpu);
             },
             "(P/R > 1: prediction helped; < 1: it chased noise)\n"),
        points("abl_page_size",
               "Extension: page-size sweep (speedup of Griffin over the "
               "4KB baseline)",
               {"SC", "MT", "KM"}, {"pageKB", "policy"}, pageSizes, false),
        points("abl_gpu_count", "Extension: scaling the GPU count",
               {"SC", "KM", "ST", "MT"}, {"GPUs"}, gpus, false, " loc%",
               [](const sys::RunResult &r) {
                   return Table::num(100 * r.localFraction(), 0);
               },
               "(loc% = Griffin's local-access share; the fair share per "
               "GPU shrinks as 1/N)\n"),
        {"perf_gate", "CI perf gate: MT, BFS, SC under both policies",
         {"MT", "BFS", "SC"}, {}, {"--scale=64", "--seed=42", "--sample=0"},
         perfGate},
    };
}

} // namespace

const std::vector<Experiment> &
experiments()
{
    static const std::vector<Experiment> registry = makeRegistry();
    return registry;
}

} // namespace griffin::cli
