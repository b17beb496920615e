/**
 * @file
 * griffin run: the experiment registry and the sweep harness its
 * entries share. Each entry regenerates one paper figure, table or
 * ablation (or the CI perf gate) as a table on stdout.
 *
 *   griffin run NAME [flags]     griffin run --list
 *
 * Flags:
 *   --scale=N   footprint divisor vs the paper (default 32; 1 = paper)
 *   --seed=N    master seed (default 42)
 *   --jobs=N    concurrent simulations (default: hardware threads)
 *   --csv       also emit machine-readable CSV after each table
 *   --workload=ABBV  run only these of the entry's workloads
 *               (repeatable; default: the entry's subset)
 *   --trace=FILE    Chrome trace-event JSON of every run (Perfetto)
 *   --trace-all     enable the hot categories too (net, dca)
 *   --report=FILE   JSON run report (config, counters, percentiles)
 *   --samples=FILE  time-series CSV, one section per run
 *   --sample=N      sampling period in cycles (default 10000; 0 = off)
 *   --page-stats    per-page lifecycle telemetry ("page_stats" report
 *                   section, src/obs/pagestats.hh)
 *   --timeseries=N  event time-series with N-cycle intervals
 *                   ("timeseries" report section; 0 = off)
 *   --host-prof     host-side self-profiling: a "host_profile"
 *                   report section and a host-time summary on stderr
 *                   (`griffin prof folded REPORT` writes its stacks)
 *   --progress      sweep progress on stderr (terminals only)
 *   --log=LEVEL     stderr log level: error|warn|info|trace
 *   --chaos=SPEC    inject faults (src/sys/chaos.hh): a bare rate or
 *                   key=value pairs ("dma=0.5,link=0.02,timeout=200000")
 *   --chaos-seed=N  seed of the injector's private RNG streams
 *
 * Every flag is checked before any output: an unknown or repeated
 * flag, a bad value, a workload outside the entry's set or a flag the
 * entry pins exits 2 naming it.
 *
 * Concurrency: an entry submits its independent runs to a Sweep,
 * which fans them out across --jobs worker threads and returns the
 * results in submission order. Each run records into its own trace /
 * report / samples fragments, and the Sweep merges them in submission
 * order, so stdout and every written file are byte-identical for
 * --jobs=1 and --jobs=16.
 */

#ifndef GRIFFIN_TOOLS_RUN_HH
#define GRIFFIN_TOOLS_RUN_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/hostprof.hh"
#include "src/obs/json.hh"
#include "src/obs/sampler.hh"
#include "src/obs/trace.hh"
#include "src/sys/chaos.hh"
#include "src/sys/multi_gpu_system.hh"
#include "src/sys/report.hh"
#include "src/sys/sweep_runner.hh"
#include "src/workloads/workload.hh"
#include "tools/cli.hh"

namespace griffin::cli {

/** The flags of `griffin run`. */
struct RunOptions
{
    /** --scale (footprint divisor, default 32) and --seed. */
    wl::WorkloadConfig workload{32};
    /** Concurrent simulations; 0 = one per hardware thread. */
    unsigned jobs = 0;
    bool csv = false;
    /** --workload, in order; resolveSelection() makes it the selection. */
    std::vector<std::string> workloads;

    /** @name Observability outputs (empty = disabled) @{ */
    std::string traceFile;
    std::string reportFile;
    std::string samplesFile;
    bool traceAll = false;
    Tick samplePeriod = 10000;
    bool pageStats = false;
    Tick timeseriesTick = 0;
    bool hostProf = false;
    bool progress = false;
    /** @} */

    std::optional<sys::ChaosConfig> chaos;
    bool list = false;
};

/**
 * Apply the `run` flags in @p args to @p opt.
 * @return the positional arguments (the entry name).
 * @throws Exit 2 on any flag error.
 */
Args parseRunFlags(const Args &args, RunOptions &opt);

/**
 * What an entry runs with: the options, with workloads resolved to the
 * selection, and a batch of independent runs. add() every run of a
 * batch, then run() once; results come back in submission order, and
 * the next add() starts a new batch.
 *
 * The sweep also owns the invocation's observability outputs: each run
 * has one slot, claimed in submission order by add() and filled by the
 * run's own thread alone, so no lock is needed. The destructor merges
 * the slots in order and writes the files, then prints the host-time
 * summary when any run was profiled.
 */
class Sweep
{
  public:
    /** One run's sinks and the fragments they leave. */
    struct Slot
    {
        std::unique_ptr<obs::TraceSession> trace;
        std::unique_ptr<obs::Sampler> sampler;
        std::optional<obs::json::Value> report;
        std::string samplesCsv;
        obs::HostProfile hostProfile;
    };

    explicit Sweep(const RunOptions &opt) : opt(opt), _runner(opt.jobs) {}
    ~Sweep();

    const RunOptions &opt;

    /**
     * Submit one run of @p name under @p scfg, labelled
     * "NAME/POLICY[/DIM]"; @p dim keeps labels unique when a sweep
     * runs a workload and policy more than once ("alpha=0.25").
     * @p setup runs on the run's thread before the run (access
     * probes, ...).
     * @return the index into run()'s result vector.
     */
    std::size_t add(const std::string &name, const sys::SystemConfig &scfg,
                    const std::string &dim = std::string(),
                    std::function<void(sys::MultiGpuSystem &)> setup = {});

    /**
     * Run the batch. Every run still runs when one fails; the
     * earliest-submitted failure is then thrown as Exit 1 naming the
     * run's label.
     */
    std::vector<sys::RunResult> run();

    /** Print @p table, its CSV under --csv, then @p note. */
    void emit(const sys::Table &table, const std::string &note = "") const;

    /** Every run's slot so far, in submission order. */
    const std::deque<Slot> &slots() const { return _slots; }

  private:
    /** A deque: slots never move while their runs are in flight. */
    std::deque<Slot> _slots;
    /** The batch's results, written by index by each run. */
    std::vector<sys::RunResult> _results;
    sys::SweepRunner _runner;
};

/** One registry entry. */
struct Experiment
{
    std::string name;
    /** What it regenerates ("Fig. 12: ..."); shown by --list. */
    std::string paper;
    /** The workloads it may run; empty = all ten. */
    std::vector<std::string> workloads;
    /** What it runs when no --workload is given; empty = the set. */
    std::vector<std::string> subset;
    /** Flags it fixes ("--scale=64"); giving one is an error. */
    std::vector<std::string> pins;
    std::function<void(Sweep &)> run;
};

/** Every entry, in --list order. */
const std::vector<Experiment> &experiments();

/**
 * Check @p args against @p e's pins and workload set, apply the
 * pins, and resolve opt.workloads to the selection.
 * @throws Exit 2 naming the offending flag.
 */
void resolveSelection(const Experiment &e, const Args &args,
                      RunOptions &opt);

} // namespace griffin::cli

#endif // GRIFFIN_TOOLS_RUN_HH
