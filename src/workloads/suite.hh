/**
 * @file
 * The generators of the ten paper Table III applications, one per
 * source file. Each file documents how its trace reproduces the paper
 * workload's access pattern; workload.cc pairs every generator with
 * its Table III row (the WorkloadSpec table).
 */

#ifndef GRIFFIN_WORKLOADS_SUITE_HH
#define GRIFFIN_WORKLOADS_SUITE_HH

#include "src/workloads/workload.hh"

namespace griffin::wl {

KernelLaunch bfsKernel(const Workload &app, unsigned k);
KernelLaunch bsKernel(const Workload &app, unsigned k);
KernelLaunch firKernel(const Workload &app, unsigned k);
KernelLaunch flwKernel(const Workload &app, unsigned k);
KernelLaunch fwKernel(const Workload &app, unsigned k);
KernelLaunch kmKernel(const Workload &app, unsigned k);
KernelLaunch mtKernel(const Workload &app, unsigned k);
KernelLaunch prKernel(const Workload &app, unsigned k);
KernelLaunch scKernel(const Workload &app, unsigned k);
KernelLaunch stKernel(const Workload &app, unsigned k);

} // namespace griffin::wl

#endif // GRIFFIN_WORKLOADS_SUITE_HH
