/**
 * @file
 * Workload abstraction: a deterministic generator of kernel launches
 * (paper Table III lists the ten evaluated applications). A workload
 * is a WorkloadSpec (the Table III row plus a generator function)
 * under a WorkloadConfig; workload.cc tabulates the ten applications.
 *
 * Each workload reproduces the *memory access pattern* of its paper
 * counterpart — the property that determines page migration behaviour
 * — at a configurable fraction of the paper's memory footprint
 * (scaleDiv = 1 restores the full 30-64 MB sizes).
 */

#ifndef GRIFFIN_WORKLOADS_WORKLOAD_HH
#define GRIFFIN_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/rng.hh"
#include "src/sim/types.hh"
#include "src/workloads/trace.hh"

namespace griffin::wl {

/** Generation parameters shared by all workloads. */
struct WorkloadConfig
{
    /** Footprint divisor relative to the paper (1 = paper-sized). */
    unsigned scaleDiv = 8;
    /** Master seed; all randomness derives deterministically. */
    std::uint64_t seed = 42;
    /** Transactions per wavefront. */
    std::size_t opsPerWavefront = 64;
    /** Default compute cycles between transactions. */
    std::uint32_t computeDelay = 8;
    /** Concurrent wavefronts per workgroup (memory-level parallelism). */
    std::size_t wavefrontsPerWorkgroup = 16;
};

class Workload;

/**
 * One application: its paper Table III row plus the function that
 * generates its kernels. The generator is stateless; it derives its
 * buffer layout from the workload's scaled footprint on every call.
 */
struct WorkloadSpec
{
    const char *abbv;           ///< Table III abbreviation, e.g. BFS
    const char *fullName;       ///< full application name
    const char *suite;          ///< originating benchmark suite
    const char *accessPattern;  ///< Table III access-pattern label
    std::uint64_t paperFootprintBytes;  ///< unscaled memory footprint
    unsigned numKernels;        ///< kernel launches in the program
    unsigned workgroupsPerKernel;  ///< workgroups per kernel launch
    /** Kernel @p k of @p app (deterministic for a given seed). */
    KernelLaunch (*makeKernel)(const Workload &app, unsigned k);
};

/** A spec generated under one WorkloadConfig. */
class Workload
{
  public:
    Workload(const WorkloadSpec &spec, const WorkloadConfig &cfg)
        : _spec(spec), _cfg(cfg)
    {}

    std::string name() const { return _spec.abbv; }
    std::string fullName() const { return _spec.fullName; }
    std::string suite() const { return _spec.suite; }
    std::string accessPattern() const { return _spec.accessPattern; }
    std::uint64_t paperFootprintBytes() const
    {
        return _spec.paperFootprintBytes;
    }
    unsigned numKernels() const { return _spec.numKernels; }
    unsigned workgroupsPerKernel() const { return _spec.workgroupsPerKernel; }

    /** Generate kernel @p k (deterministic for a given seed). */
    KernelLaunch makeKernel(unsigned k) const
    {
        return _spec.makeKernel(*this, k);
    }

    /** Scaled footprint actually generated. */
    std::uint64_t
    footprintBytes() const
    {
        return _spec.paperFootprintBytes / _cfg.scaleDiv;
    }

    const WorkloadConfig &config() const { return _cfg; }

    /** Independent deterministic stream per (kernel, workgroup). */
    sim::Rng
    rngFor(unsigned kernel, unsigned wg) const
    {
        return sim::Rng(_cfg.seed * 0x9e3779b97f4a7c15ULL +
                        std::uint64_t(kernel) * 1000003ULL +
                        std::uint64_t(wg) * 10007ULL + 1);
    }

    /** A builder for one workgroup under this config. */
    TraceBuilder
    builder() const
    {
        return TraceBuilder(_cfg.opsPerWavefront, _cfg.computeDelay,
                            _cfg.wavefrontsPerWorkgroup);
    }

  private:
    WorkloadSpec _spec;
    WorkloadConfig _cfg;
};

/** The ten Table III abbreviations, in the paper's order. */
std::vector<std::string> workloadNames();

/**
 * Factory keyed by abbreviation (case-sensitive: BFS, not bfs).
 * @return nullptr for an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &abbv,
                                       const WorkloadConfig &cfg);

} // namespace griffin::wl

#endif // GRIFFIN_WORKLOADS_WORKLOAD_HH
