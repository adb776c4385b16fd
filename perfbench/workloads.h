// The three perfbench workloads. Each runs its rounds, checks its own
// outputs and adds its metrics to the report.

#ifndef KFLUSH_PERFBENCH_WORKLOADS_H_
#define KFLUSH_PERFBENCH_WORKLOADS_H_

#include "perfbench.h"

namespace kflush {
namespace perfbench {

void RunIngest(const RunOptions& options, Report* report);
void RunQueryReplay(const RunOptions& options, Report* report);
void RunWireDurable(const RunOptions& options, Report* report);

}  // namespace perfbench
}  // namespace kflush

#endif  // KFLUSH_PERFBENCH_WORKLOADS_H_
