/**
 * @file
 * The CI perf-regression gate workload set: a pinned, deterministic
 * trio of workloads (MT, BFS, SC) run under both policies at a fixed
 * scale and seed. The emitted --report JSON is compared against the
 * committed BENCH_*.json references with `griffin compare`; because the
 * simulator is fully deterministic, any drift is a real behaviour
 * change, not noise.
 *
 * Regenerating the references after an intentional change:
 *   build/bench/perf_gate --workload=MT  --report=BENCH_MT.json
 *   build/bench/perf_gate --workload=BFS --report=BENCH_BFS.json
 *   build/bench/perf_gate --workload=SC  --report=BENCH_SC.json
 *
 * The scale, seed and sampling period are pinned here and ignore the
 * usual flags, so a reference is reproducible from the command alone.
 */

#include <iostream>

#include "bench/common.hh"

using namespace griffin;

int
main(int argc, char **argv)
{
    auto opt = bench::Options::parse(
        argc, argv,
        "perf_gate pins --scale=64 --seed=42 --sample=0 (the committed "
        "BENCH_*.json references depend on them); --workload selects "
        "from the gate set {MT, BFS, SC}; --host-prof/--host-gate=N "
        "add a host-time summary on stderr without touching the "
        "deterministic stdout/report bytes");

    // Pin everything that shapes the numbers. CI runs must match the
    // committed references bit for bit when nothing changed.
    opt.scaleDiv = 64;
    opt.seed = 42;
    opt.samplePeriod = 0; // samples bloat the reference for no signal

    const std::vector<std::string> gateSet = {"MT", "BFS", "SC"};
    std::vector<std::string> selected;
    for (const auto &w : gateSet) {
        bool wanted = false;
        for (const auto &req : opt.workloads)
            wanted = wanted || req == w;
        if (wanted)
            selected.push_back(w);
    }
    // Options::parse defaults to all ten workloads; reduce to the
    // gate set unless specific gate members were requested.
    if (selected.empty() || opt.workloads.size() > gateSet.size())
        selected = gateSet;

    sys::Table table({"Workload", "Policy", "Cycles", "Faults",
                      "FaultP95", "Local%"});

    // No dims here: the gate labels ("MT/griffin", ...) are pinned by
    // the committed BENCH_*.json references.
    bench::Sweep sweep(opt);
    for (const auto &name : selected) {
        sweep.add(name, sys::SystemConfig::baseline());
        sweep.add(name, sys::SystemConfig::griffinDefault());
    }
    const auto results = sweep.run();

    for (std::size_t i = 0; i < selected.size(); ++i) {
        for (const bool griffin_run : {false, true}) {
            const auto &res = results[2 * i + (griffin_run ? 1 : 0)];
            table.addRow(
                {selected[i], griffin_run ? "griffin" : "first-touch",
                 std::to_string(res.cycles),
                 std::to_string(std::uint64_t(
                     res.faultBreakdown.faults())),
                 sys::Table::num(
                     res.latency.faultLatency.percentile(95.0), 0),
                 sys::Table::num(res.localFraction() * 100.0, 1)});
        }
    }

    bench::emit(table, opt);
    std::cout << "(pinned gate config: scale=64 seed=42; compare the "
                 "--report output against BENCH_*.json with "
                 "griffin compare)\n";
    bench::emitHostSummary(results, opt);
    return 0;
}
