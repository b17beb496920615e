/**
 * @file
 * Causal fault spans and critical-path latency attribution.
 *
 * Every serviced page fault is decomposed into a fixed taxonomy of
 * stages (the paper's own cost model: walk queueing at the IOMMU's
 * N_PTW walkers, the walk itself, the policy decision, CPMS batching
 * delay, PMC queueing and streaming, the CPU shootdown/flush, and the
 * translation-replay resume). The instrumented components stamp stage
 * boundaries against a `FaultId`; the `FaultSpans` sink assembles one
 * span tree per fault and feeds a `CriticalPath` aggregator that the
 * JSON run report serializes as `fault_breakdown`.
 *
 * Cost model: requests that never fault touch this layer not at all —
 * they only carry a few `Tick` stamps in the IOMMU's request struct.
 * A `FaultId` is allocated (and a record created) only when a fault
 * is actually raised, so the per-fault overhead is a handful of hash
 * map operations against a population of at most a few thousand
 * faults per run. The sink is the `spans` slot of the thread's
 * telemetry set (obs/telemetry.hh); nothing is recorded when the slot
 * is empty, and concurrent simulations on worker threads
 * (sys::SweepRunner) each record into their own sink.
 */

#ifndef GRIFFIN_OBS_SPAN_HH
#define GRIFFIN_OBS_SPAN_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/obs/telemetry.hh"
#include "src/sim/stats.hh"
#include "src/sim/types.hh"

namespace griffin::obs {

/**
 * The stage taxonomy, in causal order. Each enumerator names the
 * stage that *ends* at the mark carrying it:
 *
 *  - WalkQueue:     TLB-miss origin -> a page table walker picks the
 *                   page up (includes the fabric crossing and the
 *                   IOTLB probe);
 *  - Walk:          the four-level page table walk;
 *  - Policy:        the placement decision (DFTM / first-touch);
 *  - BatchWait:     fault raised -> the driver closes the CPMS batch
 *                   that contains it;
 *  - Shootdown:     the serial batch service: interrupt + runlist
 *                   processing + the CPU TLB shootdown and flush;
 *  - TransferQueue: handed to the PMC -> the DMA stream actually
 *                   starts (non-zero only when the PMC bounds its
 *                   concurrent transfers);
 *  - Transfer:      PMC stream, first read to last byte committed;
 *  - Resume:        page landed -> the parked translation replays and
 *                   the reply reaches the faulting GPU.
 */
enum class Stage : unsigned
{
    WalkQueue = 0,
    Walk,
    Policy,
    BatchWait,
    Shootdown,
    TransferQueue,
    Transfer,
    Resume,
};

inline constexpr unsigned numStages = 8;

/** Snake-case stage name used in reports ("walk_queue", ...). */
const char *stageName(Stage stage);

/** One stage boundary: stage @p stage ended at tick @p at. */
struct StageMark
{
    Stage stage;
    Tick at;
};

/**
 * The span tree of one fault: the origin timestamp plus the ordered
 * stage boundaries. Stage durations are the deltas between
 * consecutive marks (the first mark measures from @c origin), so the
 * durations sum to the end-to-end service time exactly.
 */
struct FaultRecord
{
    FaultId id = invalidFaultId;
    DeviceId gpu = invalidDeviceId;
    PageId page = 0;
    Tick origin = 0;
    std::vector<StageMark> marks;

    /** End-to-end service time (0 until the Resume mark lands). */
    Tick
    totalLatency() const
    {
        return marks.empty() ? 0 : marks.back().at - origin;
    }
};

/**
 * Per-run critical-path aggregation: one latency histogram per stage,
 * exact per-stage duration sums for the stage-share breakdown, and
 * the end-to-end total distribution. Plain copyable so RunResult can
 * carry a snapshot out of the system.
 */
class CriticalPath
{
  public:
    CriticalPath();

    /** Fold one completed fault in (marks must be stage-ordered). */
    void addFault(const FaultRecord &record);

    /** Completed faults folded in. */
    std::uint64_t faults() const { return _faults; }

    const sim::Histogram &stageHistogram(Stage stage) const
    {
        return _stageHist[unsigned(stage)];
    }

    /** Sum of this stage's durations across all faults, in cycles. */
    double stageSum(Stage stage) const { return _stageSum[unsigned(stage)]; }

    /** End-to-end fault service time distribution. */
    const sim::Histogram &total() const { return _total; }

    /**
     * Fraction of the summed service time spent in @p stage, in
     * [0, 1]; 0 when nothing completed. Shares sum to 1 across the
     * taxonomy because stage durations partition the total exactly.
     */
    double share(Stage stage) const;

  private:
    std::uint64_t _faults = 0;
    std::vector<sim::Histogram> _stageHist;
    std::vector<double> _stageSum;
    sim::Histogram _total;
};

/**
 * The span sink. Components call the static helpers, which are no-ops
 * unless the spans slot is set *and* the fault id is valid.
 */
class FaultSpans
{
  public:
    FaultSpans() = default;

    FaultSpans(const FaultSpans &) = delete;
    FaultSpans &operator=(const FaultSpans &) = delete;

    /**
     * A fault was raised: allocate its id and open its record.
     * @param origin the faulting request's TLB-miss timestamp.
     */
    FaultId beginFault(DeviceId gpu, PageId page, Tick origin);

    /**
     * Stage @p stage of fault @p fid ended at @p at. Marks must
     * arrive in taxonomy order; @p at is clamped forward to the
     * previous boundary so coalesced walkers that joined a walk late
     * still yield monotone, non-negative durations.
     */
    void mark(FaultId fid, Stage stage, Tick at);

    /**
     * The fault's reply reached the requester: final Resume mark,
     * record moves to the completed list and folds into the
     * critical-path aggregation.
     */
    void complete(FaultId fid, Tick at);

    /** @name Static guards for instrumentation sites @{ */

    static void
    markActive(FaultId fid, Stage stage, Tick at)
    {
        FaultSpans *fs = Telemetry::current().spans;
        if (fid != invalidFaultId && fs)
            fs->mark(fid, stage, at);
    }

    static void
    completeActive(FaultId fid, Tick at)
    {
        FaultSpans *fs = Telemetry::current().spans;
        if (fid != invalidFaultId && fs)
            fs->complete(fid, at);
    }

    /** @} */

    /** @name Inspection (reports, tests) @{ */

    const CriticalPath &criticalPath() const { return _criticalPath; }

    /** Completed span trees, in completion order. */
    const std::vector<FaultRecord> &completedFaults() const
    {
        return _completed;
    }

    /** Faults raised but not yet resumed (orphans once a run ends). */
    std::size_t openFaults() const { return _open.size(); }

    std::uint64_t faultsStarted() const { return _nextId - 1; }

    /** @} */

  private:
    std::uint64_t _nextId = 1;
    std::unordered_map<FaultId, FaultRecord> _open;
    std::vector<FaultRecord> _completed;
    CriticalPath _criticalPath;
};

} // namespace griffin::obs

#endif // GRIFFIN_OBS_SPAN_HH
