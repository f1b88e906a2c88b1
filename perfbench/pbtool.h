// Entry points of the `pbtool` benchmark binary (see main.cc).
#ifndef PERFBENCH_PBTOOL_H_
#define PERFBENCH_PBTOOL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

// Shares of --seconds given to each load phase: the main open-loop
// phase and the closed-loop saturation phase split the run; browse's
// INGEST+RECOMMEND probe phase runs on top (other workloads have no
// probe rate, so it is empty for them).
inline constexpr double kMainShare = 0.8;
inline constexpr double kSaturationShare = 0.2;
inline constexpr double kProbeShare = 0.4;

struct Flags {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  int port = 0;
  size_t expect_users = 0;
  size_t expect_items = 0;
  int64_t inject_stall_ms = 0;
  bool corrupt_probe_reply = false;  // self-test: flip a byte of one reply
  std::string out;      // result JSON
  std::string spans;    // trace: span file
  std::string scratch;  // trace: directory for the temp journal
};

int RunLoad(const Flags& flags);
int RunTrace(const Flags& flags);

/// Ids of a RECOMMEND/NEIGHBORS reply (`*2n` of `:id` + bulk score).
bool ParseIdArray(const std::string& reply, std::vector<int>* ids);

}  // namespace perfbench

#endif  // PERFBENCH_PBTOOL_H_
