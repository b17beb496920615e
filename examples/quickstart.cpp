/**
 * @file
 * Quickstart: build a paper-configuration 4-GPU system, run one
 * workload under the baseline and under Griffin, and compare.
 *
 *   ./examples/quickstart [workload] [scaleDiv]
 *                         [--trace=FILE] [--report=FILE]
 *
 * This is the smallest end-to-end use of the library's public API:
 * SystemConfig -> MultiGpuSystem -> Workload -> run() -> RunResult.
 * With --trace the two runs are recorded as Chrome trace-event JSON
 * (open in ui.perfetto.dev); with --report a JSON run report with
 * counters and latency percentiles is written.
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/obs/trace.hh"
#include "src/sys/multi_gpu_system.hh"
#include "src/sys/report.hh"
#include "src/workloads/workload.hh"

using namespace griffin;

int
main(int argc, char **argv)
{
    std::string trace_file, report_file;
    std::vector<std::string> positional;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--trace=", 0) == 0)
            trace_file = arg.substr(8);
        else if (arg.rfind("--report=", 0) == 0)
            report_file = arg.substr(9);
        else
            positional.push_back(arg);
    }
    const std::string name = !positional.empty() ? positional[0] : "SC";
    const unsigned scale = positional.size() > 1
        ? unsigned(std::stoul(positional[1]))
        : 32;

    obs::TraceSession trace;
    if (!trace_file.empty())
        trace.attach();

    wl::WorkloadConfig wcfg;
    wcfg.scaleDiv = scale;

    std::cout << "Running " << name << " at 1/" << scale
              << " of the paper footprint on a 4-GPU PCIe system...\n\n";

    // --- Baseline: first-touch demand paging + pinning + DCA. ------
    auto workload = wl::makeWorkload(name, wcfg);
    if (!workload) {
        std::cerr << "unknown workload '" << name << "'; pick one of:";
        for (const auto &n : wl::workloadNames())
            std::cerr << " " << n;
        std::cerr << "\n";
        return 1;
    }
    trace.beginProcess(name + "/first-touch");
    sys::MultiGpuSystem baseline(sys::SystemConfig::baseline());
    const auto base = baseline.run(*workload);

    // --- Griffin: DFTM + CPMS + DPC + ACUD. -------------------------
    trace.beginProcess(name + "/griffin");
    auto workload2 = wl::makeWorkload(name, wcfg);
    sys::MultiGpuSystem griffin(sys::SystemConfig::griffinDefault());
    const auto grif = griffin.run(*workload2);

    std::cout << "baseline : " << base.cycles << " cycles, "
              << sys::Table::num(100 * base.localFraction(), 1)
              << "% local accesses, " << base.cpuShootdowns
              << " CPU shootdowns\n";
    std::cout << "griffin  : " << grif.cycles << " cycles, "
              << sys::Table::num(100 * grif.localFraction(), 1)
              << "% local accesses, " << grif.totalShootdowns()
              << " total shootdowns, " << grif.pagesMigratedInterGpu
              << " inter-GPU migrations\n\n";
    std::cout << "speedup  : "
              << sys::Table::num(double(base.cycles) /
                                 double(grif.cycles))
              << "x\n\n";

    std::cout << "final page distribution (GPU1..GPU4):\n";
    for (int which = 0; which < 2; ++which) {
        const auto &r = which ? grif : base;
        std::cout << (which ? "  griffin : " : "  baseline: ");
        for (std::size_t dev = 1; dev < r.pagesPerDevice.size(); ++dev)
            std::cout << r.pagesPerDevice[dev] << " ";
        std::cout << "(max share "
                  << sys::Table::num(100 * r.maxGpuShare(), 1)
                  << "%)\n";
    }

    if (!trace_file.empty()) {
        trace.detach();
        std::ofstream os(trace_file);
        obs::TraceSession::writeMerged(os, {&trace});
        std::cout << "\nwrote trace: " << trace_file << " ("
                  << trace.eventCount()
                  << " events; open in ui.perfetto.dev)\n";
    }
    if (!report_file.empty()) {
        obs::json::Value runs = obs::json::Value::array();
        runs.push(sys::runReportJson(name + "/first-touch",
                                     sys::SystemConfig::baseline(),
                                     base));
        runs.push(sys::runReportJson(name + "/griffin",
                                     sys::SystemConfig::griffinDefault(),
                                     grif));
        obs::json::Value doc = sys::reportDocument(std::move(runs));
        std::ofstream os(report_file);
        os << doc.dump(2) << "\n";
        std::cout << "wrote report: " << report_file << "\n";
    }
    return 0;
}
