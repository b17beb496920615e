#include "src/sys/scenario_gen.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "src/sim/rng.hh"

namespace griffin::sys {

namespace {

/**
 * The scale divisor all fuzz scenarios are built around. Fuzzing
 * trades footprint for seed count: one scenario must run in well
 * under a second so a 200-seed sweep (times three runs per seed for
 * the differential oracles) stays CI-sized.
 */
constexpr unsigned fuzzScaleDiv = 256;

/**
 * Substream seed for knob @p idx of scenario @p seed: a splitmix64
 * finalizer over (seed, idx), so adjacent seeds and adjacent knobs
 * land in unrelated parts of the sequence. Each knob owning its own
 * substream is what makes pinning one knob leave the others' draws
 * untouched.
 */
std::uint64_t
knobStream(std::uint64_t seed, std::uint64_t idx)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (idx + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

template <typename T, std::size_t N>
T
pick(sim::Rng &rng, const T (&choices)[N])
{
    return choices[rng.nextBelow(N)];
}

struct Knob
{
    const char *name;
    void (*apply)(Scenario &, sim::Rng &);
};

/**
 * The knob table. Order is the generation (and shrink) order; every
 * range is valid by construction — the system and workloads accept
 * any combination without further checks. Defaults (what a pinned
 * knob keeps) are the baseline system running MT at the fuzz scale
 * with chaos and telemetry off.
 */
const Knob knobTable[] = {
    {"workload",
     [](Scenario &s, sim::Rng &rng) {
         static const std::vector<std::string> names =
             wl::workloadNames();
         s.workload = names[rng.nextBelow(names.size())];
     }},
    {"scale",
     [](Scenario &s, sim::Rng &rng) {
         const unsigned divs[] = {128, 192, 256, 384, 512};
         s.workloadConfig.scaleDiv = pick(rng, divs);
     }},
    {"wlseed",
     [](Scenario &s, sim::Rng &rng) {
         s.workloadConfig.seed = rng.nextRange(1, 1000000);
     }},
    {"sysseed",
     [](Scenario &s, sim::Rng &rng) {
         s.config.seed = rng.nextRange(1, 1000000);
     }},
    {"policy",
     [](Scenario &s, sim::Rng &rng) {
         if (rng.chance(0.5)) {
             // Start from the tuned Griffin defaults (see
             // SystemConfig::griffinDefault); the "griffin" knob may
             // then perturb individual hyperparameters.
             s.config.policy = PolicyKind::Griffin;
             s.config.griffin.alpha = 0.25;
             s.config.griffin.lambdaT = 0.002;
         }
     }},
    {"gpus",
     [](Scenario &s, sim::Rng &rng) {
         const unsigned counts[] = {1, 2, 4, 8};
         unsigned n = pick(rng, counts);
         // Griffin's DPC classifies pages across GPUs and requires at
         // least two of them; round a single-GPU draw up rather than
         // rejecting (valid by construction, no retry loop).
         if (s.config.policy == PolicyKind::Griffin && n < 2)
             n = 2;
         s.config.numGpus = n;
     }},
    {"pagesize",
     [](Scenario &s, sim::Rng &rng) {
         const unsigned shifts[] = {12, 13, 14};
         s.config.gpu.pageShift = pick(rng, shifts);
     }},
    {"fabric",
     [](Scenario &s, sim::Rng &rng) {
         const double bpc[] = {8.0, 16.0, 32.0, 64.0, 256.0};
         s.config.link.bytesPerCycle = pick(rng, bpc);
         s.config.link.latency = Tick(rng.nextRange(100, 400));
     }},
    {"walkers",
     [](Scenario &s, sim::Rng &rng) {
         const unsigned walkers[] = {1, 2, 4, 8, 16};
         s.config.iommu.numWalkers = pick(rng, walkers);
     }},
    {"pmc",
     [](Scenario &s, sim::Rng &rng) {
         const unsigned bounds[] = {0, 1, 2, 4};
         s.config.pmcMaxConcurrent = pick(rng, bounds);
     }},
    {"dispatch",
     [](Scenario &s, sim::Rng &rng) {
         s.config.dispatchLatency = Tick(rng.nextRange(1, 16));
     }},
    {"flush",
     [](Scenario &s, sim::Rng &rng) {
         s.config.cpuFlushPenalty = Tick(rng.nextRange(50, 200));
     }},
    {"griffin",
     [](Scenario &s, sim::Rng &rng) {
         if (s.config.policy != PolicyKind::Griffin)
             return;
         auto &g = s.config.griffin;
         const unsigned ptws[] = {2, 4, 8, 16};
         g.nPtw = pick(rng, ptws);
         const Tick tacs[] = {500, 1000, 2000};
         g.tAc = pick(rng, tacs);
         g.alpha = 0.05 + rng.nextDouble() * 0.45;
         const unsigned caps[] = {16, 48, 96};
         g.maxPagesPerPeriod = pick(rng, caps);
         const unsigned intervals[] = {4, 8, 12};
         g.migrationInterval = pick(rng, intervals);
         const Tick windows[] = {500, 2000, 4000};
         g.faultBatchWindow = pick(rng, windows);
         g.enableDftm = rng.chance(0.75);
         g.enableInterGpuMigration = rng.chance(0.75);
         g.useAcud = rng.chance(0.75);
         g.enablePredictiveMigration = rng.chance(0.25);
     }},
    {"chaos",
     [](Scenario &s, sim::Rng &rng) {
         if (rng.chance(0.4))
             return; // chaos stays off
         auto &c = s.config.chaos;
         c.seed = rng.next() | 1;
         if (rng.chance(0.7))
             c.linkFaultRate = rng.nextDouble() * 0.02;
         if (rng.chance(0.5))
             c.linkDegradeRate = rng.nextDouble() * 0.01;
         if (rng.chance(0.7))
             c.dmaFaultRate = rng.nextDouble() * 0.2;
         if (rng.chance(0.5))
             c.shootdownAckLossRate = rng.nextDouble() * 0.15;
         if (rng.chance(0.5))
             c.walkerStallRate = rng.nextDouble() * 0.05;
         c.migrationTimeout = rng.chance(0.5) ? 500000 : 2000000;
         // Every rate drawing zero is fine: ChaosConfig::enabled()
         // then reports false and the layer stays inert.
     }},
    {"telemetry",
     [](Scenario &s, sim::Rng &rng) {
         s.config.pageStats.enabled = rng.chance(0.5);
         const Tick ticks[] = {0, 0, 20000, 50000};
         s.config.timeseriesTick = pick(rng, ticks);
     }},
};

constexpr std::size_t numKnobs = sizeof(knobTable) / sizeof(knobTable[0]);

} // namespace

std::string
Scenario::label() const
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "fuzz/0x%016llx",
                  static_cast<unsigned long long>(seed));
    return buf;
}

std::string
Scenario::describe() const
{
    std::ostringstream os;
    os << "workload=" << workload
       << " scale=" << workloadConfig.scaleDiv
       << " wlseed=" << workloadConfig.seed
       << " sysseed=" << config.seed
       << " policy="
       << (config.policy == PolicyKind::Griffin ? "griffin"
                                                : "first-touch")
       << " gpus=" << config.numGpus
       << " pageShift=" << config.gpu.pageShift
       << " link=" << config.link.bytesPerCycle << "B/c,"
       << config.link.latency << "t"
       << " walkers=" << config.iommu.numWalkers
       << " pmc=" << config.pmcMaxConcurrent
       << " dispatch=" << config.dispatchLatency
       << " flush=" << config.cpuFlushPenalty;
    if (config.policy == PolicyKind::Griffin) {
        const auto &g = config.griffin;
        os << " griffin{nPtw=" << g.nPtw << ",tAc=" << g.tAc
           << ",alpha=" << g.alpha << ",cap=" << g.maxPagesPerPeriod
           << ",interval=" << g.migrationInterval
           << ",dftm=" << g.enableDftm
           << ",interGpu=" << g.enableInterGpuMigration
           << ",acud=" << g.useAcud
           << ",predictive=" << g.enablePredictiveMigration << "}";
    }
    if (config.chaos.enabled()) {
        const auto &c = config.chaos;
        os << " chaos{link=" << c.linkFaultRate
           << ",degrade=" << c.linkDegradeRate
           << ",dma=" << c.dmaFaultRate
           << ",ack=" << c.shootdownAckLossRate
           << ",stall=" << c.walkerStallRate
           << ",timeout=" << c.migrationTimeout << "}";
    } else {
        os << " chaos=off";
    }
    os << " pageStats=" << (config.pageStats.enabled ? "on" : "off")
       << " timeseries=" << config.timeseriesTick;
    if (!pinned.empty()) {
        os << " pinned=[";
        for (std::size_t i = 0; i < pinned.size(); ++i)
            os << (i ? "," : "") << pinned[i];
        os << "]";
    }
    return os.str();
}

std::string
Scenario::reproCommand() const
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "--seed=0x%llx --seeds=1",
                  static_cast<unsigned long long>(seed));
    std::string cmd = std::string("griffin fuzz ") + buf;
    if (!pinned.empty()) {
        cmd += " --pin=";
        for (std::size_t i = 0; i < pinned.size(); ++i)
            cmd += (i ? "," : "") + pinned[i];
    }
    return cmd;
}

const std::vector<std::string> &
scenarioKnobs()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const Knob &k : knobTable)
            v.push_back(k.name);
        return v;
    }();
    return names;
}

bool
isScenarioKnob(const std::string &knob)
{
    const auto &names = scenarioKnobs();
    return std::find(names.begin(), names.end(), knob) != names.end();
}

Scenario
makeScenario(std::uint64_t seed, const std::vector<std::string> &pinned)
{
    Scenario s;
    s.seed = seed;
    s.config = SystemConfig::baseline();
    s.workloadConfig.scaleDiv = fuzzScaleDiv;
    for (const std::string &p : pinned)
        if (isScenarioKnob(p))
            s.pinned.push_back(p);

    for (std::size_t i = 0; i < numKnobs; ++i) {
        const Knob &knob = knobTable[i];
        if (std::find(s.pinned.begin(), s.pinned.end(), knob.name) !=
            s.pinned.end())
            continue;
        sim::Rng rng(knobStream(seed, i));
        knob.apply(s, rng);
    }
    return s;
}

const std::vector<std::uint64_t> &
fuzzCorpusSeeds()
{
    // 16 seeds pinned for coverage of the knob space; see the header
    // for the grow-only policy. tests/integration/fuzz_corpus_test.cc
    // asserts the coverage properties that guided the choice.
    static const std::vector<std::uint64_t> seeds = {
        1,  2,  3,  4,  5,  6,  7,  8,
        9, 10, 11, 12, 13, 14, 15, 16,
    };
    return seeds;
}

} // namespace griffin::sys
