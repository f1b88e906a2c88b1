// Workload definitions and the seeded request stream shared by the
// open-loop load client (load.cc) and the traced in-process pass
// (trace.cc). Both regenerate the identical stream from --seed, so the
// traced pass replays exactly what the wire run sent.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/split.h"
#include "models/fism.h"
#include "online/engine.h"
#include "util/random.h"

namespace perfbench {

namespace data = sccf::data;
namespace models = sccf::models;
namespace online = sccf::online;

/// What a reply frame is counted as. kFreshRec is a RECOMMEND written in
/// the same write as the same user's INGEST (the click -> fresh list
/// path); it is timed from the click's due time.
enum class Kind : uint8_t { kQuery, kIngest, kFreshRec, kBgSave };

struct Frame {
  Kind kind = Kind::kQuery;
  int user = -1;
  int item = -1;  // INGEST: the clicked item; kFreshRec: the item clicked
                  // just before it (must be absent from the reply)
  int64_t ts = 0;
  std::string bytes;  // multibulk-encoded request
};

/// One write(2) worth of frames, due at `due_ns` after phase start, on
/// connection `conn` (every user is pinned to conn = user % kConnections,
/// so per-user order is fixed by construction).
struct Send {
  int64_t due_ns = 0;
  int conn = 0;
  std::vector<Frame> frames;
};

inline constexpr int kConnections = 4;
inline constexpr int64_t kSloNs = 10'000'000;  // 10 ms for every kind

struct WorkloadSpec {
  std::string name;
  // Daemon flags (also what the twin engine is bootstrapped with).
  size_t users = 2000;
  size_t items = 1500;
  std::string storage = "fp32";
  bool data_dir = false;
  // Open-loop schedule of the main phase, in sends per second.
  double send_rate = 0;
  // browse only: a second open-loop phase of INGEST+RECOMMEND pairs.
  double probe_pair_rate = 0;
  // Users whose wire replies the quiesced output check compares, and
  // users hit_rate_at_10 is computed over (0 = every evaluable user).
  size_t probe_users = 1000;
  size_t hit_users = 0;

  std::vector<std::string> DaemonFlags() const;
};

/// browse | ingest_storm | fresh_session; nullptr if unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

/// The daemon's corpus seed: one corpus for every run (the daemon's
/// default seed). --seed varies the request stream and the probe set, so
/// run-to-run spread measures the serving path rather than
/// corpus-to-corpus differences in the untrained model's hit rate.
inline constexpr uint64_t kCorpusSeed = 7;
/// The request-stream seed derived from the --seed argument.
uint64_t StreamSeed(uint64_t seed);

/// The daemon's bootstrap, mirrored from src/server/sccf_server_main.cc
/// (synthetic corpus -> untrained FISM -> Engine::BootstrapFromSplit):
/// the load client's twin engine and the traced pass both need an Engine
/// whose state is byte-identical to the daemon's. If the daemon's
/// bootstrap drifts from this, the output check fails loudly.
struct Stack {
  std::unique_ptr<data::Dataset> dataset;
  std::unique_ptr<data::LeaveOneOutSplit> split;
  std::unique_ptr<models::Fism> fism;

  static std::unique_ptr<Stack> Build(const WorkloadSpec& spec,
                                      uint64_t corpus_seed);
  online::Engine::Options EngineOptions(const WorkloadSpec& spec) const;
  /// A fresh engine bootstrapped exactly like the daemon's (no
  /// persistence: the twin never journals).
  std::unique_ptr<online::Engine> NewEngine(const WorkloadSpec& spec) const;
};

/// Seeded request generator for one workload. Open-loop phases are
/// materialized as a fixed schedule; the closed-loop saturation phase
/// pulls sends one at a time through Next().
class StreamGen {
 public:
  StreamGen(const WorkloadSpec& spec, size_t num_users, size_t num_items,
            uint64_t stream_seed);

  /// Main open-loop phase: sends at the workload's fixed rate over
  /// `seconds`. ingest_storm adds one BGSAVE at the midpoint.
  std::vector<Send> MainPhase(double seconds);
  /// browse only: INGEST+RECOMMEND pairs at probe_pair_rate.
  std::vector<Send> ProbePhase(double seconds);
  /// One send of the workload's steady mix (no BGSAVE), for the
  /// closed-loop saturation phase.
  Send Next();
  /// The first `n` (0 = all) evaluable users of a seeded shuffle; the
  /// output check and hit_rate_at_10 draw their users from it.
  std::vector<int> ProbeUsers(const data::LeaveOneOutSplit& split,
                              size_t n);

 private:
  int UniformUser();
  int ZipfUser();
  int UniformItem();
  int HotItem();
  Frame Ingest(int user, int item);
  Frame Recommend(int user, Kind kind);
  Frame Neighbors(int user);
  Frame History(int user);
  Send Pair(int user, int item);
  Send Single(Frame frame);

  const WorkloadSpec& spec_;
  size_t num_users_;
  size_t num_items_;
  sccf::Rng rng_;
  std::vector<int> user_perm_;   // Zipf rank -> user id
  std::vector<double> zipf_cdf_;
  std::vector<int> hot_items_;
  int64_t next_ts_ = 1'000'000'000;
  bool fresh_turn_ = true;  // fresh_session alternates session/background
  uint64_t probe_seed_;
};

std::string EncodeCommand(const std::vector<std::string>& argv);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
