/**
 * @file
 * Policy playground: sweep Griffin's mechanisms and hyperparameters
 * on one workload and print a comparison matrix — the entry point for
 * anyone extending the policy (e.g. toward the paper's future-work
 * predictive migration).
 *
 *   ./examples/policy_playground [workload] [scaleDiv]
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "src/sys/multi_gpu_system.hh"
#include "src/sys/report.hh"
#include "src/sys/sweep_runner.hh"
#include "src/workloads/workload.hh"

using namespace griffin;

namespace {

struct Variant
{
    std::string name;
    sys::SystemConfig config;
};

} // namespace

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "KM";
    const unsigned scale = argc > 2 ? unsigned(std::stoul(argv[2])) : 32;
    const std::vector<std::string> names = wl::workloadNames();
    if (std::find(names.begin(), names.end(), name) == names.end()) {
        std::cerr << "unknown workload '" << name << "'\n";
        return 1;
    }

    std::vector<Variant> variants;
    variants.push_back({"baseline", sys::SystemConfig::baseline()});
    variants.push_back({"griffin", sys::SystemConfig::griffinDefault()});

    {
        auto cfg = sys::SystemConfig::griffinDefault();
        cfg.griffin.enableDftm = false;
        variants.push_back({"griffin -DFTM", cfg});
    }
    {
        auto cfg = sys::SystemConfig::griffinDefault();
        cfg.griffin.enableInterGpuMigration = false;
        variants.push_back({"griffin -interGPU", cfg});
    }
    {
        auto cfg = sys::SystemConfig::griffinDefault();
        cfg.griffin.useAcud = false;
        variants.push_back({"griffin +flush", cfg});
    }
    {
        auto cfg = sys::SystemConfig::griffinDefault();
        cfg.griffin.alpha = 0.03; // paper Table I's value, untuned
        variants.push_back({"griffin alpha=.03", cfg});
    }
    {
        auto cfg = sys::SystemConfig::griffinDefault();
        cfg.withHighBandwidthFabric();
        variants.push_back({"griffin NVLink-class", cfg});
    }

    std::cout << "=== " << name << " under different policies (1/"
              << scale << " scale) ===\n\n";
    sys::Table table({"Variant", "Cycles", "Speedup", "Local%",
                      "InterGPU", "Shootdowns"});

    // All variants are independent: fan them out across the hardware
    // threads, each writing its result at its own index.
    sys::SweepRunner runner;
    wl::WorkloadConfig wcfg;
    wcfg.scaleDiv = scale;
    std::vector<sys::RunResult> results(variants.size());
    for (std::size_t i = 0; i < variants.size(); ++i) {
        runner.submit([&, i] {
            const auto workload = wl::makeWorkload(name, wcfg);
            sys::MultiGpuSystem system(variants[i].config);
            results[i] = system.run(*workload);
        });
    }
    runner.run();

    double base_cycles = 0;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        const auto &r = results[i];
        if (base_cycles == 0)
            base_cycles = double(r.cycles);
        table.addRow({variants[i].name, std::to_string(r.cycles),
                      sys::Table::num(base_cycles / double(r.cycles)),
                      sys::Table::num(100 * r.localFraction(), 1),
                      std::to_string(r.pagesMigratedInterGpu),
                      std::to_string(r.totalShootdowns())});
    }
    std::cout << table.str();
    return 0;
}
