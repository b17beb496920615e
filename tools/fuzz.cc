/**
 * @file
 * griffin fuzz: randomized differential testing for the simulator.
 *
 *   griffin fuzz [--seeds=N] [--seed=S] [--jobs=N] [--batch=K]
 *                [--duration=SECS] [--shrink] [--pin=KNOB[,KNOB...]]
 *                [--corpus] [--list-knobs] [--describe] [--quiet]
 *
 * Draws one scenario per seed (sys/scenario_gen.hh), runs each under
 * every invariant oracle plus the --jobs=1 vs --jobs=N vs
 * reference-scheduler differentials (sys/oracle.hh), and prints a
 * one-line repro command for every failure. Seeds run in batches of
 * --batch so the parallel differential actually exercises concurrent
 * sweeps.
 *
 *  --seeds=N      seeds to run (default 16), starting at --seed
 *  --seed=S       first seed (default 1; 0x-prefixed hex accepted)
 *  --jobs=N       worker threads for the parallel differential
 *  --duration=S   keep fuzzing fresh seeds until S wall seconds pass
 *                 (overrides --seeds as the stop condition)
 *  --shrink       after a failure, pin knobs to defaults one at a
 *                 time and keep each pin that preserves the failure;
 *                 prints the minimized repro
 *  --pin=A,B      pin the named knobs to defaults up front (replay of
 *                 a shrunk repro)
 *  --corpus       run the 16 pinned corpus seeds instead of a range,
 *                 with a per-seed result table
 *  --describe     print each scenario without running it
 *  --list-knobs   print the shrinkable knob names
 *
 * Exit status: 0 all scenarios clean, 1 at least one oracle finding,
 * 2 usage error.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "src/sys/oracle.hh"
#include "src/sys/scenario_gen.hh"
#include "tools/cli.hh"

namespace griffin::cli {

namespace {

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t from = 0;
    while (from <= text.size()) {
        const std::size_t comma = text.find(',', from);
        const std::size_t to =
            comma == std::string::npos ? text.size() : comma;
        if (to > from)
            out.push_back(text.substr(from, to - from));
        if (comma == std::string::npos)
            break;
        from = comma + 1;
    }
    return out;
}

void
printFailure(const sys::ScenarioVerdict &verdict)
{
    for (const auto &f : verdict.findings) {
        std::printf("FAIL seed=0x%llx oracle=%s\n",
                    static_cast<unsigned long long>(
                        verdict.scenario.seed),
                    f.oracle.c_str());
        std::printf("     %s\n", f.detail.c_str());
    }
    std::printf("     scenario: %s\n",
                verdict.scenario.describe().c_str());
    std::printf("repro: %s\n", verdict.scenario.reproCommand().c_str());
}

/** One row of the --corpus table: the scenario and how it ran. */
void
addCorpusRow(sys::Table &table, const sys::ScenarioVerdict &v)
{
    const auto &s = v.scenario;
    const auto &r = v.result;
    char seedbuf[24];
    std::snprintf(seedbuf, sizeof(seedbuf), "0x%llx",
                  static_cast<unsigned long long>(s.seed));
    table.addRow(
        {seedbuf, s.workload,
         s.config.policy == sys::PolicyKind::Griffin ? "griffin"
                                                     : "first-touch",
         std::to_string(s.config.numGpus),
         s.config.chaos.enabled() ? "on" : "off",
         v.ran ? std::to_string(r.cycles) : "-",
         v.ran ? sys::Table::num(r.stats.get("pageTable.migrations"), 0)
               : "-",
         v.ran ? sys::Table::num(r.localFraction() * 100.0, 1) : "-",
         v.ok() ? "clean"
                : v.findings.empty() ? "did not run"
                                     : v.findings[0].oracle});
}

/** True when the scenario built from (seed, pinned) still fails. */
bool
stillFails(std::uint64_t seed, const std::vector<std::string> &pinned,
           const sys::FuzzOptions &options)
{
    const auto verdicts = sys::runFuzzBatch(
        {sys::makeScenario(seed, pinned)}, options);
    return !verdicts[0].ok();
}

/**
 * Shrink a failing seed: walk the knob list, pin each knob in turn,
 * and keep the pin when the failure survives without it varying. The
 * knobs left unpinned at the end are the minimal trigger set.
 */
void
shrinkSeed(std::uint64_t seed, std::vector<std::string> pinned,
           const sys::FuzzOptions &options)
{
    std::printf("shrinking seed 0x%llx...\n",
                static_cast<unsigned long long>(seed));
    for (const std::string &knob : sys::scenarioKnobs()) {
        if (std::find(pinned.begin(), pinned.end(), knob) !=
            pinned.end())
            continue;
        std::vector<std::string> trial = pinned;
        trial.push_back(knob);
        if (stillFails(seed, trial, options)) {
            pinned = std::move(trial);
            std::printf("  pin %-10s -> still fails\n", knob.c_str());
        } else {
            std::printf("  pin %-10s -> failure depends on it\n",
                        knob.c_str());
        }
    }
    const auto scenario = sys::makeScenario(seed, pinned);
    std::printf("shrunk: %s\n", scenario.reproCommand().c_str());
    std::printf("        %s\n", scenario.describe().c_str());
}

} // namespace

int
fuzzMain(const Args &args)
{
    std::uint64_t seeds = 16;
    std::uint64_t firstSeed = 1;
    std::uint64_t batch = 16;
    std::uint64_t durationSecs = 0;
    sys::FuzzOptions options;
    std::uint64_t jobs = options.jobs;
    bool shrink = false;
    bool corpus = false;
    bool describeOnly = false;
    bool listKnobs = false;
    bool quiet = false;
    std::vector<std::string> pinned;

    constexpr std::uint64_t maxU64 =
        std::numeric_limits<std::uint64_t>::max();
    const auto number = [](const char *name, std::uint64_t &out,
                           std::uint64_t lo, std::uint64_t hi) {
        return Flag{name, nullptr, [=, &out](const std::string &v) {
                        out = parseNumber(name, v, lo, hi, 0);
                    }};
    };
    // The wall clock counts in signed nanoseconds; stay inside it.
    const std::uint64_t maxSecs =
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::steady_clock::duration::max())
            .count();
    const Args positional = parseFlags(
        args,
        {number("--seeds", seeds, 0, maxU64),
         number("--seed", firstSeed, 0, maxU64),
         number("--jobs", jobs, 0, std::numeric_limits<unsigned>::max()),
         number("--batch", batch, 1, maxU64),
         number("--duration", durationSecs, 0, maxSecs),
         {"--pin", nullptr,
          [&](const std::string &v) {
              for (const std::string &knob : splitList(v)) {
                  if (!sys::isScenarioKnob(knob))
                      throw Exit{2, "unknown knob \"" + knob +
                                        "\" (see --list-knobs)"};
                  pinned.push_back(knob);
              }
          }},
         {"--shrink", &shrink},
         {"--corpus", &corpus},
         {"--describe", &describeOnly},
         {"--list-knobs", &listKnobs},
         {"--quiet", &quiet}});
    if (!positional.empty())
        throw usageError("unexpected argument " + positional[0]);
    if (listKnobs) {
        for (const std::string &knob : sys::scenarioKnobs())
            std::cout << knob << "\n";
        return 0;
    }
    options.jobs = unsigned(jobs);

    // The seed schedule: the corpus, or --seeds seeds from --seed.
    // --duration keeps drawing fresh seeds past the schedule until the
    // wall budget runs out.
    const std::vector<std::uint64_t> &corpusSeeds = sys::fuzzCorpusSeeds();
    const std::uint64_t scheduled = corpus ? corpusSeeds.size() : seeds;
    const auto scheduledSeed = [&](std::uint64_t i) {
        return corpus ? corpusSeeds[i] : firstSeed + i;
    };

    if (describeOnly) {
        for (std::uint64_t i = 0; i < scheduled; ++i) {
            const std::uint64_t seed = scheduledSeed(i);
            const auto sc = sys::makeScenario(seed, pinned);
            std::printf("seed=0x%llx %s\n",
                        static_cast<unsigned long long>(seed),
                        sc.describe().c_str());
        }
        return 0;
    }

    const auto start = std::chrono::steady_clock::now();
    const auto expired = [&] {
        if (durationSecs == 0)
            return false;
        return std::chrono::steady_clock::now() - start >=
               std::chrono::seconds(durationSecs);
    };

    std::uint64_t ran = 0;
    std::uint64_t failed = 0;
    std::vector<std::uint64_t> failingSeeds;
    std::uint64_t cursor = 0;
    std::uint64_t nextFresh = firstSeed + seeds;

    while (cursor < scheduled || (durationSecs > 0 && !expired())) {
        std::vector<sys::Scenario> scenarios;
        while (scenarios.size() < batch) {
            std::uint64_t seed;
            if (cursor < scheduled) {
                seed = scheduledSeed(cursor++);
            } else if (durationSecs > 0) {
                seed = nextFresh++;
            } else {
                break;
            }
            scenarios.push_back(sys::makeScenario(seed, pinned));
        }
        if (scenarios.empty())
            break;

        const auto verdicts = sys::runFuzzBatch(scenarios, options);
        if (corpus) {
            sys::Table table({"seed", "workload", "policy", "gpus",
                              "chaos", "cycles", "migrations", "local%",
                              "verdict"});
            for (const auto &v : verdicts)
                addCorpusRow(table, v);
            std::cout << table.str();
        }
        for (const auto &v : verdicts) {
            ++ran;
            if (v.ok())
                continue;
            ++failed;
            failingSeeds.push_back(v.scenario.seed);
            printFailure(v);
        }
        if (!quiet)
            std::printf("fuzz: %llu scenarios, %llu failed\n",
                        static_cast<unsigned long long>(ran),
                        static_cast<unsigned long long>(failed));
        if (durationSecs > 0 && expired() && cursor >= scheduled)
            break;
    }

    if (shrink)
        for (const std::uint64_t seed : failingSeeds)
            shrinkSeed(seed, pinned, options);

    return failed == 0 ? 0 : 1;
}

} // namespace griffin::cli
