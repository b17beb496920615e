/**
 * @file
 * griffin run: the front end over the experiment registry
 * (experiments.cc) and the sweep harness every entry uses (run.hh).
 *
 * Exit status: 0 the entry ran, 1 a run failed (the message names the
 * earliest-submitted failed run), 2 usage error (an unknown entry, or
 * a flag error caught before any output).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>

#include <unistd.h>

#include "src/obs/telemetry.hh"
#include "src/sim/log.hh"
#include "tools/run.hh"

namespace griffin::cli {

Args
parseRunFlags(const Args &args, RunOptions &opt)
{
    constexpr std::uint64_t maxU64 =
        std::numeric_limits<std::uint64_t>::max();
    const auto text = [](const char *name, std::string &out) {
        return Flag{name, nullptr, [&out](const std::string &v) { out = v; }};
    };
    std::string chaosSpec;
    std::optional<std::uint64_t> chaosSeed;
    const Args positional = parseFlags(
        args,
        {// 0 would divide every footprint by zero downstream.
         numberFlag("--scale", opt.workload.scaleDiv, 1, 1u << 20),
         numberFlag("--seed", opt.workload.seed, 0, maxU64),
         numberFlag("--jobs", opt.jobs, 1, 1024),
         {"--csv", &opt.csv},
         {"--workload", nullptr,
          [&](const std::string &v) { opt.workloads.push_back(v); }, true},
         text("--trace", opt.traceFile),
         {"--trace-all", &opt.traceAll},
         text("--report", opt.reportFile),
         text("--samples", opt.samplesFile),
         numberFlag("--sample", opt.samplePeriod, 0, maxU64),
         {"--page-stats", &opt.pageStats},
         numberFlag("--timeseries", opt.timeseriesTick, 0, maxU64),
         {"--host-prof", &opt.hostProf},
         {"--progress", &opt.progress},
         {"--log", nullptr,
          [](const std::string &v) {
              const Args levels{"error", "warn", "info", "trace"};
              const auto it = std::find(levels.begin(), levels.end(), v);
              if (it == levels.end())
                  throw Exit{2, "bad value for --log: \"" + v +
                                    "\" (want error|warn|info|trace)"};
              sim::Log::setLevel(sim::LogLevel(it - levels.begin()));
          }},
         text("--chaos", chaosSpec),
         numberFlag("--chaos-seed", chaosSeed, 0, maxU64),
         {"--list", &opt.list}});
    if (!chaosSpec.empty()) {
        opt.chaos = sys::ChaosConfig::parse(chaosSpec);
        if (!opt.chaos)
            throw Exit{2, "malformed --chaos spec \"" + chaosSpec +
                              "\" (a rate in [0,1] or key=value pairs)"};
        if (chaosSeed)
            opt.chaos->seed = *chaosSeed;
    } else if (chaosSeed) {
        std::cerr << "warning: --chaos-seed without --chaos has no "
                     "effect\n";
    }
    return positional;
}

void
resolveSelection(const Experiment &e, const Args &args, RunOptions &opt)
{
    for (const std::string &pin : e.pins) {
        const std::string flag = pin.substr(0, pin.find('='));
        for (const std::string &arg : args) {
            if (arg.substr(0, arg.find('=')) == flag)
                throw usageError(e.name + " pins " + pin);
        }
    }
    parseRunFlags(e.pins, opt);

    const std::vector<std::string> &set =
        e.workloads.empty() ? wl::workloadNames() : e.workloads;
    for (const std::string &w : opt.workloads) {
        if (std::find(set.begin(), set.end(), w) == set.end()) {
            std::string names;
            for (const std::string &s : set)
                names += (names.empty() ? "" : " ") + s;
            throw usageError("--workload " + w + ": " + e.name +
                             " runs only " + names);
        }
    }
    if (opt.workloads.empty())
        opt.workloads = e.subset.empty() ? set : e.subset;
}

Sweep::~Sweep()
{
    if (!opt.traceFile.empty()) {
        std::vector<const obs::TraceSession *> sessions;
        std::size_t events = 0;
        for (const Slot &slot : _slots) {
            sessions.push_back(slot.trace.get());
            events += slot.trace->eventCount();
        }
        std::ofstream os(opt.traceFile);
        obs::TraceSession::writeMerged(os, sessions);
        std::cerr << "trace: " << opt.traceFile << " (" << events
                  << " events)\n";
    }
    if (!opt.reportFile.empty()) {
        obs::json::Value runs = obs::json::Value::array();
        for (Slot &slot : _slots) {
            if (slot.report)
                runs.push(std::move(*slot.report));
        }
        std::ofstream os(opt.reportFile);
        os << sys::reportDocument(std::move(runs)).dump(2) << "\n";
        std::cerr << "report: " << opt.reportFile << "\n";
    }
    if (!opt.samplesFile.empty()) {
        std::string csv;
        for (const Slot &slot : _slots)
            csv += slot.samplesCsv;
        if (csv.empty()) {
            std::cerr << "samples: "
                      << (opt.samplePeriod == 0
                              ? "nothing sampled (is --sample=0?)"
                              : "no sampled run finished")
                      << ", not writing " << opt.samplesFile << "\n";
        } else {
            std::ofstream os(opt.samplesFile);
            os << csv;
            std::cerr << "samples: " << opt.samplesFile << "\n";
        }
    }
    if (!opt.hostProf)
        return;

    // The sweep-level profile: per-run profiles merged in slot
    // (= submission) order, so bucket order never depends on
    // completion order.
    obs::HostProfile total;
    for (const Slot &slot : _slots) {
        if (slot.hostProfile.enabled)
            total.merge(slot.hostProfile);
    }
    if (!total.enabled) // no runs, as in tab03_workloads
        return;

    // Host wall times are machine-dependent, so the summary stays on
    // stderr, out of the deterministic stdout contract.
    const HostProfiles sweep{{"sweep", total}};
    std::cerr << profSummaryTable(sweep).str()
              << profTopTable(sweep, 5).str();
}

void
Sweep::emit(const sys::Table &table, const std::string &note) const
{
    std::cout << table.str() << "\n";
    if (opt.csv)
        std::cout << "CSV:\n" << table.csv() << "\n";
    std::cout << note;
}

std::size_t
Sweep::add(const std::string &name, const sys::SystemConfig &scfg,
           const std::string &dim,
           std::function<void(sys::MultiGpuSystem &)> setup)
{
    const std::string label = name + "/" + sys::policyName(scfg.policy) +
                              (dim.empty() ? "" : "/" + dim);

    // Per-run sinks, created here so the slots keep submission order,
    // and filled on the run's thread.
    Slot &s = _slots.emplace_back();
    if (!opt.traceFile.empty()) {
        s.trace = std::make_unique<obs::TraceSession>(
            opt.traceAll ? obs::allCategories : obs::defaultCategories);
        s.trace->beginProcess(label);
    }
    if (opt.samplePeriod > 0 &&
        (!opt.reportFile.empty() || !opt.samplesFile.empty()))
        s.sampler = std::make_unique<obs::Sampler>();

    // The report shows the entry's own config, without the CLI's
    // chaos and telemetry.
    sys::SystemConfig runConfig = scfg;
    if (opt.chaos)
        runConfig.chaos = *opt.chaos;
    runConfig.pageStats.enabled |= opt.pageStats;
    if (opt.timeseriesTick > 0)
        runConfig.timeseriesTick = opt.timeseriesTick;
    runConfig.hostProf |= opt.hostProf;

    const std::size_t i = _runner.pending();
    _runner.submit([this, &s, i, name, label, config = scfg, runConfig,
                    setup = std::move(setup)] {
        try {
            const auto workload = wl::makeWorkload(name, opt.workload);
            {
                sys::MultiGpuSystem system(runConfig);
                const obs::Telemetry::Scope traced({.trace = s.trace.get()});
                // The sampler reads the system's engine, so it stops
                // before the system is destroyed, on a throw too.
                const std::unique_ptr<obs::Sampler, void (*)(obs::Sampler *)>
                    stopSampler(s.sampler.get(),
                                [](obs::Sampler *p) { p->stop(); });
                if (s.sampler) {
                    system.registerProbes(*s.sampler);
                    s.sampler->start(system.engine(), opt.samplePeriod);
                }
                if (setup)
                    setup(system);
                _results[i] = system.run(*workload);
            }
            // A run that threw leaves no fragment.
            if (!opt.reportFile.empty())
                s.report = sys::runReportJson(label, config, _results[i],
                                              s.sampler.get());
            if (!opt.samplesFile.empty() && s.sampler)
                s.samplesCsv = "# " + label + "\n" + s.sampler->csv();
            s.hostProfile = _results[i].hostProfile;
        } catch (const std::exception &e) {
            throw Exit{1, label + ": " + e.what()};
        }
    });
    return i;
}

std::vector<sys::RunResult>
Sweep::run()
{
    // Progress is stderr-only UI, and silent when stderr is a pipe so
    // redirected logs don't fill with \r-rewritten lines.
    if (opt.progress && isatty(fileno(stderr))) {
        using clock = std::chrono::steady_clock;
        _runner.setProgress([start = clock::now()](std::size_t done,
                                                   std::size_t total) {
            const std::chrono::duration<double> elapsed =
                clock::now() - start;
            std::fprintf(stderr,
                         "\rsweep: %zu/%zu runs  %.1fs elapsed"
                         "  ~%.1fs left %s",
                         done, total, elapsed.count(),
                         elapsed.count() * double(total - done) /
                             double(done),
                         done == total ? "\n" : "");
        });
    }
    _results.assign(_runner.pending(), {});
    _runner.run();
    return std::move(_results);
}


int
runMain(const Args &args)
{
    RunOptions opt;
    const Args names = parseRunFlags(args, opt);
    if (opt.list) {
        if (!names.empty())
            throw usageError("--list takes no entry name");
        for (const Experiment &e : experiments()) {
            std::cout << std::left << std::setw(28) << e.name << "  "
                      << e.paper;
            for (const std::string &pin : e.pins)
                std::cout << (&pin == &e.pins[0] ? " (pins " : " ") << pin;
            std::cout << (e.pins.empty() ? "\n" : ")\n");
        }
        return 0;
    }
    if (names.size() != 1)
        throw usageError("want one entry NAME (see griffin run --list)");
    const auto &all = experiments();
    const auto e = std::find_if(all.begin(), all.end(), [&](const auto &x) {
        return x.name == names[0];
    });
    if (e == all.end())
        throw Exit{2, "unknown entry " + names[0] +
                          " (see griffin run --list)"};
    resolveSelection(*e, args, opt);

    Sweep sweep(opt); // writes the files when the entry returns
    e->run(sweep);
    return 0;
}

} // namespace griffin::cli
