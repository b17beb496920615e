/**
 * @file
 * Seeded scenario generation for fuzzing the whole simulator.
 *
 * A Scenario is a complete, runnable experiment — SystemConfig,
 * workload choice, workload generation parameters, chaos spec — drawn
 * deterministically from a single 64-bit seed. Every knob draws from
 * a valid-by-construction range, so any seed yields a configuration
 * the system accepts; there is no rejection loop and no way for the
 * generator to produce an "invalid" run.
 *
 * Shrinking: each knob draws from its own RNG substream (derived from
 * the seed and the knob's index), so pinning one knob to its default
 * never perturbs what the other knobs draw. A failing seed shrinks by
 * re-running with knobs pinned one at a time, keeping each pin that
 * preserves the failure — the surviving unpinned knobs are the
 * minimal trigger. See tools/fuzz.cc (griffin fuzz) and DESIGN.md §15.
 */

#ifndef GRIFFIN_SYS_SCENARIO_GEN_HH
#define GRIFFIN_SYS_SCENARIO_GEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/sys/system_config.hh"
#include "src/workloads/workload.hh"

namespace griffin::sys {

/** One generated experiment: everything needed to run and replay it. */
struct Scenario
{
    /** The seed that generated this scenario. */
    std::uint64_t seed = 0;

    /** Table III workload abbreviation ("MT", "BFS", ...). */
    std::string workload = "MT";

    wl::WorkloadConfig workloadConfig{};

    SystemConfig config{};

    /** Knobs held at their defaults instead of drawing (shrinking). */
    std::vector<std::string> pinned;

    /** Report/sweep label, unique per seed: "fuzz/0x<seed>". */
    std::string label() const;

    /** One-line human-readable knob dump for failure reports. */
    std::string describe() const;

    /** One-line griffin fuzz invocation that replays this scenario. */
    std::string reproCommand() const;
};

/**
 * The shrinkable knob names, in generation order. Each name is
 * accepted by makeScenario()'s @p pinned list and by the fuzz CLI's
 * --pin flag.
 */
const std::vector<std::string> &scenarioKnobs();

/** True when @p knob names an entry of scenarioKnobs(). */
bool isScenarioKnob(const std::string &knob);

/**
 * Draw the scenario for @p seed. Knobs named in @p pinned keep their
 * default value (the baseline system, MT at the fuzz scale, chaos and
 * telemetry off); unknown names in @p pinned are ignored so a repro
 * command survives knob renames. Deterministic: same (seed, pinned)
 * always yields the same scenario.
 */
Scenario makeScenario(std::uint64_t seed,
                      const std::vector<std::string> &pinned = {});

/**
 * The pinned fuzz corpus: 16 seeds chosen to cover both policies,
 * every GPU count, chaos on and off, and the telemetry sections.
 * tests/integration/fuzz_corpus_test.cc runs them under every oracle
 * on every ctest invocation; `griffin fuzz --corpus` replays them
 * with a per-seed result table. Grow-only: appending a seed is cheap,
 * replacing one silently retires the regression it was pinned for.
 */
const std::vector<std::uint64_t> &fuzzCorpusSeeds();

} // namespace griffin::sys

#endif // GRIFFIN_SYS_SCENARIO_GEN_HH
