#include "src/workloads/workload.hh"

#include "src/workloads/suite.hh"

namespace griffin::wl {

namespace {

/** Paper Table III, in the paper's order. */
const WorkloadSpec tableIII[] = {
    {"BFS", "Breadth First Search", "SHOC", "Random", 32ull << 20, 8, 60,
     bfsKernel},
    {"BS", "Bitonic Sort", "AMDAPPSDK", "Random", 36ull << 20, 8, 61,
     bsKernel},
    {"FIR", "Finite Impulse Resp.", "Hetero-Mark", "Adjacent", 64ull << 20,
     4, 64, firKernel},
    {"FLW", "Floyd Warshall", "AMDAPPSDK", "Distributed", 44ull << 20, 6,
     61, flwKernel},
    {"FW", "Fast Walsh Trans.", "AMDAPPSDK", "Adjacent", 40ull << 20, 6,
     62, fwKernel},
    {"KM", "KMeans Clustering", "Hetero-Mark", "Partition", 51ull << 20, 4,
     64, kmKernel},
    {"MT", "Matrix Transpose", "AMDAPPSDK", "Scatter-Gather", 44ull << 20,
     1, 64, mtKernel},
    {"PR", "PageRank Algorithm", "Hetero-Mark", "Random", 38ull << 20, 6,
     60, prKernel},
    {"SC", "Simple Convolution", "AMDAPPSDK", "Adjacent", 41ull << 20, 6,
     61, scKernel},
    {"ST", "Stencil 2D", "SHOC", "Adjacent", 33ull << 20, 5, 60, stKernel},
};

} // namespace

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const WorkloadSpec &spec : tableIII)
        names.push_back(spec.abbv);
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &abbv, const WorkloadConfig &cfg)
{
    for (const WorkloadSpec &spec : tableIII) {
        if (abbv == spec.abbv)
            return std::make_unique<Workload>(spec, cfg);
    }
    return nullptr;
}

} // namespace griffin::wl
