#pragma once
// The four benchmark workloads (see perfbench/README.md for why each was
// chosen and which layers it exercises).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"

namespace sfbench {

struct WorkloadConfig {
  std::uint64_t seed = 1;
  /// Harness self-test sizes: every workload at a size that runs in
  /// well under a second per op.
  bool tiny = false;
};

/// Names accepted by make_workload, in the order trace runs visit them.
const std::vector<std::string>& workload_names();

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& config);

/// ProblemSpec::beta_min drawn from the seed, in [0.20, 0.30).
double beta_min_for_seed(std::uint64_t seed);

}  // namespace sfbench
