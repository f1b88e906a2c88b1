#include "workload.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "data/synthetic.h"
#include "quant/sq8.h"
#include "util/logging.h"

namespace perfbench {

namespace {

// ingest_storm: 90% of requests are INGEST and 10% RECOMMEND; half of the
// RECOMMENDs ride behind the same user's INGEST (fresh path), half stand
// alone. Per send: P(pair) = P(lone RECOMMEND) = 1/19, P(lone INGEST) =
// 17/19, which gives (17+1)/(17+2+1) = 90% INGEST frames.
constexpr double kStormPairShare = 1.0 / 19.0;
constexpr double kZipfExponent = 1.1;
constexpr size_t kHotItems = 50;
constexpr double kHotItemShare = 0.8;

std::vector<WorkloadSpec> MakeWorkloads() {
  std::vector<WorkloadSpec> w(3);
  w[0].name = "browse";
  w[0].users = 100000;
  w[0].items = 20000;
  w[0].send_rate = 330;
  w[0].probe_pair_rate = 160;
  w[0].hit_users = 10000;

  w[1].name = "ingest_storm";
  w[1].data_dir = true;
  w[1].send_rate = 2100 / (1 + kStormPairShare);  // 2100 requests/s

  w[2].name = "fresh_session";
  w[2].users = 20000;
  w[2].items = 20000;
  w[2].storage = "sq8";
  w[2].send_rate = 600;  // 300 sessions/s + 300 background reads/s
  return w;
}

}  // namespace

std::vector<std::string> WorkloadSpec::DaemonFlags() const {
  std::vector<std::string> flags = {"--users=" + std::to_string(users),
                                    "--items=" + std::to_string(items)};
  if (storage != "fp32") flags.push_back("--storage=" + storage);
  return flags;
}

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> workloads = MakeWorkloads();
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

uint64_t StreamSeed(uint64_t seed) {
  return sccf::SplitMix64(seed ^ 0x5eed5eed5eed5eedULL);
}

std::unique_ptr<Stack> Stack::Build(const WorkloadSpec& spec,
                                    uint64_t corpus_seed) {
  sccf::data::SyntheticConfig syn;
  syn.name = "server-corpus";
  syn.num_users = spec.users;
  syn.num_items = spec.items;
  syn.num_clusters = 20;
  syn.min_actions = 10;
  syn.max_actions = 30;
  syn.seed = corpus_seed;
  sccf::data::SyntheticGenerator gen(syn);
  auto dataset = gen.Generate();
  SCCF_CHECK(dataset.ok()) << dataset.status().ToString();

  auto stack = std::make_unique<Stack>();
  stack->dataset = std::make_unique<sccf::data::Dataset>(std::move(*dataset));
  stack->split = std::make_unique<sccf::data::LeaveOneOutSplit>(
      *stack->dataset);
  sccf::models::Fism::Options fopts;
  fopts.dim = 32;
  fopts.epochs = 0;
  stack->fism = std::make_unique<sccf::models::Fism>(fopts);
  SCCF_CHECK(stack->fism->Fit(*stack->split).ok());
  return stack;
}

sccf::online::Engine::Options Stack::EngineOptions(
    const WorkloadSpec& spec) const {
  sccf::online::Engine::Options eopts;
  eopts.num_shards = 0;
  eopts.compaction_threshold = 32;
  SCCF_CHECK(sccf::quant::ParseStorage(spec.storage, &eopts.storage));
  return eopts;
}

std::unique_ptr<sccf::online::Engine> Stack::NewEngine(
    const WorkloadSpec& spec) const {
  auto engine =
      std::make_unique<sccf::online::Engine>(*fism, EngineOptions(spec));
  const sccf::Status booted = engine->BootstrapFromSplit(*split);
  SCCF_CHECK(booted.ok()) << booted.ToString();
  return engine;
}

std::string EncodeCommand(const std::vector<std::string>& argv) {
  std::string out = "*";
  out.append(std::to_string(argv.size())).append("\r\n");
  for (const std::string& a : argv) {
    out.append("$").append(std::to_string(a.size())).append("\r\n");
    out.append(a).append("\r\n");
  }
  return out;
}

StreamGen::StreamGen(const WorkloadSpec& spec, size_t num_users,
                     size_t num_items, uint64_t stream_seed)
    : spec_(spec),
      num_users_(num_users),
      num_items_(num_items),
      rng_(stream_seed),
      probe_seed_(sccf::SplitMix64(stream_seed + 1)) {
  // Which users are hot and which items are on flash sale belong to the
  // workload, like its corpus: they come from the corpus seed, and
  // --seed varies only the request sequence drawn from them. (On
  // ingest_storm the flash-sale items fill most users' recent windows, so
  // a different hot set per seed would move hit_rate_at_10 by ~20%.)
  sccf::Rng workload_rng(sccf::SplitMix64(kCorpusSeed));
  // Zipf ranks map onto a permutation so the hot users are spread over
  // ids, shards and connections rather than being ids 0, 1, 2...
  user_perm_.resize(num_users_);
  std::iota(user_perm_.begin(), user_perm_.end(), 0);
  for (size_t i = num_users_; i > 1; --i) {
    std::swap(user_perm_[i - 1], user_perm_[workload_rng.Uniform(i)]);
  }
  zipf_cdf_.resize(num_users_);
  double acc = 0;
  for (size_t r = 0; r < num_users_; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    zipf_cdf_[r] = acc;
  }
  for (double& c : zipf_cdf_) c /= acc;
  for (size_t i = 0; i < std::min(kHotItems, num_items_); ++i) {
    hot_items_.push_back(static_cast<int>(workload_rng.Uniform(num_items_)));
  }
}

int StreamGen::UniformUser() {
  return static_cast<int>(rng_.Uniform(num_users_));
}

int StreamGen::ZipfUser() {
  const double u = rng_.UniformDouble();
  const size_t rank = static_cast<size_t>(
      std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
      zipf_cdf_.begin());
  return user_perm_[std::min(rank, num_users_ - 1)];
}

int StreamGen::UniformItem() {
  return static_cast<int>(rng_.Uniform(num_items_));
}

int StreamGen::HotItem() {
  if (rng_.UniformDouble() < kHotItemShare) {
    return hot_items_[rng_.Uniform(hot_items_.size())];
  }
  return UniformItem();
}

Frame StreamGen::Ingest(int user, int item) {
  Frame f{Kind::kIngest, user, item, next_ts_++, {}};
  f.bytes = EncodeCommand({"INGEST", std::to_string(user),
                           std::to_string(item), std::to_string(f.ts)});
  return f;
}

Frame StreamGen::Recommend(int user, Kind kind) {
  Frame f{kind, user, -1, 0, {}};
  f.bytes = EncodeCommand({"RECOMMEND", std::to_string(user), "10"});
  return f;
}

Frame StreamGen::Neighbors(int user) {
  Frame f{Kind::kQuery, user, -1, 0, {}};
  f.bytes = EncodeCommand({"NEIGHBORS", std::to_string(user)});
  return f;
}

Frame StreamGen::History(int user) {
  Frame f{Kind::kQuery, user, -1, 0, {}};
  f.bytes = EncodeCommand({"HISTORY", std::to_string(user)});
  return f;
}

Send StreamGen::Pair(int user, int item) {
  Send s;
  s.conn = user % kConnections;
  s.frames.push_back(Ingest(user, item));
  Frame rec = Recommend(user, Kind::kFreshRec);
  rec.item = item;
  s.frames.push_back(std::move(rec));
  return s;
}

Send StreamGen::Single(Frame frame) {
  Send s;
  s.conn = frame.user % kConnections;
  s.frames.push_back(std::move(frame));
  return s;
}

Send StreamGen::Next() {
  if (spec_.name == "browse") {
    const int user = UniformUser();
    const double r = rng_.UniformDouble();
    if (r < 0.5) return Single(Recommend(user, Kind::kQuery));
    if (r < 0.9) return Single(Neighbors(user));
    return Single(History(user));
  }
  if (spec_.name == "ingest_storm") {
    const double r = rng_.UniformDouble();
    const int user = ZipfUser();
    if (r < kStormPairShare) return Pair(user, HotItem());
    if (r < 2 * kStormPairShare) {
      return Single(Recommend(user, Kind::kQuery));
    }
    return Single(Ingest(user, HotItem()));
  }
  // fresh_session: sessions and background reads alternate, so each runs
  // at half the send rate.
  fresh_turn_ = !fresh_turn_;
  if (!fresh_turn_) return Pair(ZipfUser(), UniformItem());
  const int user = UniformUser();
  if (rng_.UniformDouble() < 0.5) {
    return Single(Recommend(user, Kind::kQuery));
  }
  return Single(Neighbors(user));
}

std::vector<Send> StreamGen::MainPhase(double seconds) {
  const size_t n = static_cast<size_t>(seconds * spec_.send_rate);
  std::vector<Send> sends;
  sends.reserve(n + 1);
  for (size_t i = 0; i < n; ++i) {
    Send s = Next();
    s.due_ns = static_cast<int64_t>(1e9 * static_cast<double>(i) /
                                    spec_.send_rate);
    sends.push_back(std::move(s));
  }
  if (spec_.data_dir) {
    Send save;
    save.due_ns = static_cast<int64_t>(seconds * 0.5e9);
    save.frames.push_back(
        Frame{Kind::kBgSave, -1, -1, 0, EncodeCommand({"BGSAVE"})});
    const auto at = std::lower_bound(
        sends.begin(), sends.end(), save.due_ns,
        [](const Send& s, int64_t due) { return s.due_ns < due; });
    sends.insert(at, std::move(save));
  }
  return sends;
}

std::vector<Send> StreamGen::ProbePhase(double seconds) {
  const size_t n = static_cast<size_t>(seconds * spec_.probe_pair_rate);
  std::vector<Send> sends;
  sends.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Send s = Pair(UniformUser(), UniformItem());
    s.due_ns = static_cast<int64_t>(1e9 * static_cast<double>(i) /
                                    spec_.probe_pair_rate);
    sends.push_back(std::move(s));
  }
  return sends;
}

std::vector<int> StreamGen::ProbeUsers(
    const sccf::data::LeaveOneOutSplit& split, size_t n) {
  // Own generator: the probe set must not depend on how many sends the
  // closed-loop phase happened to draw.
  sccf::Rng rng(probe_seed_);
  std::vector<int> users;
  for (size_t u = 0; u < split.num_users(); ++u) {
    if (split.evaluable(u)) users.push_back(static_cast<int>(u));
  }
  n = n == 0 ? users.size() : std::min(n, users.size());
  for (size_t i = 0; i < n; ++i) {
    std::swap(users[i], users[i + rng.Uniform(users.size() - i)]);
  }
  users.resize(n);
  return users;
}

}  // namespace perfbench
