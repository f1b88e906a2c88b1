// pbtool: the compiled half of the benchmark; run.py builds and calls it.
//
//   pbtool spec  [--workload=W]          daemon flags of the workloads
//   pbtool load  --workload=W --seed=N --seconds=S --port=P
//                --expect_users=U --expect_items=I --out=FILE
//                [--inject_stall_ms=MS] [--corrupt_probe_reply=1]
//                                        open-loop wire run + output check
//   pbtool trace --workload=W --seed=N --seconds=S --out=FILE
//                --spans=FILE --scratch=DIR
//                                        traced in-process replay
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "pbtool.h"

namespace {

using perfbench::Flags;

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "bad argument: %s\n", arg.c_str());
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string val = arg.substr(eq + 1);
    if (key == "workload") {
      flags->spec = perfbench::FindWorkload(val);
      if (flags->spec == nullptr) {
        std::fprintf(stderr, "unknown workload: %s\n", val.c_str());
        return false;
      }
    } else if (key == "seed") {
      flags->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      flags->seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "port") {
      flags->port = std::atoi(val.c_str());
    } else if (key == "expect_users") {
      flags->expect_users = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "expect_items") {
      flags->expect_items = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "inject_stall_ms") {
      flags->inject_stall_ms = std::strtoll(val.c_str(), nullptr, 10);
    } else if (key == "corrupt_probe_reply") {
      flags->corrupt_probe_reply = val == "1";
    } else if (key == "out") {
      flags->out = val;
    } else if (key == "spans") {
      flags->spans = val;
    } else if (key == "scratch") {
      flags->scratch = val;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

int PrintSpec(const Flags& flags) {
  std::printf("{");
  bool first = true;
  for (const perfbench::WorkloadSpec& w : perfbench::AllWorkloads()) {
    if (flags.spec != nullptr && flags.spec != &w) continue;
    std::printf("%s\"%s\": {\"daemon_flags\": [", first ? "" : ", ",
                w.name.c_str());
    first = false;
    const auto daemon_flags = w.DaemonFlags();
    for (size_t i = 0; i < daemon_flags.size(); ++i) {
      std::printf("%s\"%s\"", i ? ", " : "", daemon_flags[i].c_str());
    }
    std::printf("], \"data_dir\": %s, \"corpus_seed\": %llu}",
                w.data_dir ? "true" : "false",
                static_cast<unsigned long long>(perfbench::kCorpusSeed));
  }
  std::printf("}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: pbtool spec|load|trace --flag=value...\n");
    return 2;
  }
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;
  const std::string cmd = argv[1];
  if (cmd == "spec") return PrintSpec(flags);
  if (flags.spec == nullptr || flags.out.empty()) {
    std::fprintf(stderr, "%s needs --workload and --out\n", cmd.c_str());
    return 2;
  }
  if (cmd == "load") return perfbench::RunLoad(flags);
  if (cmd == "trace") return perfbench::RunTrace(flags);
  std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  return 2;
}
