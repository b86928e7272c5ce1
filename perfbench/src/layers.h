// Per-layer metrics of the traced run: ratios of the library's own
// counters over the traced phase, the QueryProfiler's stage times, and a
// layer pass that times each layer's public functions on the workload's
// own containers, boxes and statements.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// `setup` is the log of the set-up that built `archive`, `traced` the
/// phase run on it; `untraced_read_p50_ms` comes from the untraced phase.
/// Library calls the pass makes itself are logged (and checked) in `extra`.
std::vector<Metric> LayerMetrics(const WorkloadSpec& spec, Archive* archive,
                                 const ClientLog& setup, const PhaseResult& traced,
                                 double untraced_read_p50_ms, Oracle* oracle,
                                 ClientLog* extra);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
