// `pbtool trace`: the traced pass. Replays the workload's seeded request
// stream in-process (no sockets) and records a span around every call
// into a module's public functions:
//
//   server.parse      RequestParser::Feed + Next on the frame
//   server.execute    server::Execute on the executing engine (the
//                     daemon's path)
//   engine.*          the same request as a typed Engine call: on the
//                     executing engine for reads, which leave it
//                     unchanged; on the twin engine for INGEST, which the
//                     twin must apply exactly once too
//   core.*            RealTimeService::Neighbors / RecommendUserBased on
//                     the executing engine; for INGEST the infer / index /
//                     identify split the twin's IngestResponse reports
//                     (spans marked derived)
//   models.infer      InferUserEmbedding over the user's current window
//   index.search/add  VectorIndex::Search / Add on replica shard indexes
//                     holding the same rows as the engine's shards
//   simd.*            the kernels at the same shard shapes
//   quant.encode      Sq8Encode of the refreshed row (sq8 storage)
//   persist.journal_append  JournalWriter::Append into a temp journal
//                     (workloads that run the daemon with --data_dir)
//
// The program carries no spans of its own yet, so each layer is timed by
// calling it directly with the request's inputs: a child span is a replay
// of the work its parent did internally, not an interval inside it. A
// layer's self time is its span's duration minus its children's
// durations (floored at 0). simd.topk is the fused TopKDot kernel at the
// shard shape; the sharded engine does not call it today (shard ids are
// not row slots, so BruteForceIndex takes the DotBatch + accumulator
// path), so it is recorded as its own root span, off the request path.
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "index/brute_force_index.h"
#include "pbtool.h"
#include "persist/journal.h"
#include "quant/sq8.h"
#include "server/dispatch.h"
#include "server/protocol.h"
#include "simd/kernels.h"
#include "util/logging.h"
#include "workload.h"

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;
  int64_t start;
  int64_t end;
  int parent;  // index into the span list, -1 for a root
  int req;     // request id (frame number), -1 for none
  bool derived;
};

class Tracer {
 public:
  int Open(const char* name, int parent, int req) {
    spans_.push_back({name, NowNs(), 0, parent, req, false});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) { spans_[id].end = NowNs(); }
  int Add(const char* name, int64_t start, int64_t end, int parent, int req) {
    spans_.push_back({name, start, end, parent, req, true});
    return static_cast<int>(spans_.size()) - 1;
  }
  const Span& at(int id) const { return spans_[id]; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// The rows one engine shard holds, kept in step with the engine by the
/// pass: a real BruteForceIndex plus the raw normalized rows / SQ8 codes
/// the kernel spans scan.
struct ShardReplica {
  std::unique_ptr<sccf::index::BruteForceIndex> index;
  std::unordered_map<int, size_t> slot;
  std::vector<float> rows;
  std::vector<int8_t> codes;
  std::vector<float> scales, offsets;
};

constexpr int kWarmups = 3;

class TracedPass {
 public:
  TracedPass(const WorkloadSpec& spec, const Stack& stack,
             const std::string& scratch)
      : stack_(stack), dim_(stack.fism->embedding_dim()) {
    SCCF_CHECK(sccf::quant::ParseStorage(spec.storage, &storage_));
    for (auto& engine : engines_) engine = stack.NewEngine(spec);
    window_ = stack.EngineOptions(spec).infer_window;
    beta_ = stack.EngineOptions(spec).beta;
    shards_.resize(engines_[0]->service().num_shards());
    for (ShardReplica& r : shards_) {
      r.index = std::make_unique<sccf::index::BruteForceIndex>(
          dim_, sccf::index::Metric::kCosine, /*parallel=*/false, storage_);
    }
    std::vector<float> emb(dim_);
    for (size_t u = 0; u < stack.split->num_users(); ++u) {
      const auto h = stack.split->TrainSequence(u);
      if (h.empty()) continue;
      Infer(std::vector<int>(h.begin(), h.end()), emb.data());
      Upsert(static_cast<int>(u), emb.data(), -1, -1);
    }
    if (spec.data_dir) {
      ::mkdir(scratch.c_str(), 0755);
      journal_path_ = scratch + "/trace.journal";
      std::remove(journal_path_.c_str());
      auto writer = sccf::persist::JournalWriter::Open(journal_path_, false);
      SCCF_CHECK(writer.ok()) << writer.status().ToString();
      journal_ = std::move(*writer);
    }
  }

  /// Replays `sends` until `budget_ns` of wall time is used.
  void Replay(const std::vector<Send>& sends, int64_t budget_ns) {
    const int64_t end = NowNs() + budget_ns;
    for (const Send& s : sends) {
      if (NowNs() > end) return;
      for (const Frame& f : s.frames) {
        if (f.kind != Kind::kBgSave) Request(f);
      }
    }
  }

  void Write(const std::string& out_path, const std::string& spans_path);

 private:
  void Infer(const std::vector<int>& history, float* out) const {
    const size_t take = std::min(history.size(), window_);
    stack_.fism->InferUserEmbedding(
        std::span<const int>(history.data() + history.size() - take, take),
        out);
  }

  std::vector<int> HistoryOf(int user) const {
    auto h = twin_->History({user});
    SCCF_CHECK(h.ok());
    return h->items;
  }

  /// Every timed scan first runs untimed kWarmups times over the same
  /// rows, so a parent's and a child's times differ by work, not by which
  /// copy of the rows the pass touched last: the pass keeps four copies
  /// (two engines, replica indexes, kernel rows), and on a 4-vCPU AVX-512
  /// virtual machine the first scans of a copy after touching the others
  /// ran up to 1.5x slower, converging after about three.
  template <typename F>
  static void Warm(F&& scan) {
    for (int i = 0; i < kWarmups; ++i) scan();
  }

  /// Refreshes a replica row; spans quant.encode / index.add under
  /// `parent` when traced (parent >= 0).
  void Upsert(int user, const float* emb, int parent, int req) {
    ShardReplica& r = shards_[engines_[0]->service().ShardOf(user)];
    auto it = r.slot.find(user);
    if (it == r.slot.end()) {
      it = r.slot.emplace(user, r.slot.size()).first;
      r.rows.resize(r.rows.size() + dim_);
      r.codes.resize(r.codes.size() + dim_);
      r.scales.push_back(0);
      r.offsets.push_back(0);
    }
    const size_t s = it->second;
    sccf::simd::NormalizeCopy(emb, r.rows.data() + s * dim_, dim_);
    if (storage_ == sccf::quant::Storage::kSq8) {
      const int id = parent >= 0 ? tr_.Open("quant.encode", parent, req) : -1;
      const sccf::quant::Sq8Params p = sccf::quant::Sq8Encode(
          r.rows.data() + s * dim_, dim_, r.codes.data() + s * dim_);
      if (id >= 0) tr_.Close(id);
      r.scales[s] = p.scale;
      r.offsets[s] = p.offset;
    }
    const int id = parent >= 0 ? tr_.Open("index.add", parent, req) : -1;
    SCCF_CHECK(r.index->Add(user, emb).ok());
    if (id >= 0) tr_.Close(id);
  }

  /// The all-shard fan-out of one query embedding, as index.search spans
  /// (each with its scoring kernel as a child) under `parent`.
  void FanOut(int user, const float* emb, int parent, int req) {
    std::vector<float> q(dim_);
    sccf::simd::NormalizeCopy(emb, q.data(), dim_);
    for (ShardReplica& r : shards_) {
      const size_t n = r.slot.size();
      scores_.resize(n);
      const bool sq8 = storage_ == sccf::quant::Storage::kSq8;
      const auto dot_batch = [&] {
        if (sq8) {
          sccf::simd::DotBatchI8(q.data(), r.codes.data(), n, dim_,
                                 scores_.data());
        } else {
          sccf::simd::DotBatch(q.data(), r.rows.data(), n, dim_,
                               scores_.data());
        }
      };
      Warm([&] {
        SCCF_CHECK(r.index->Search(emb, beta_, user).ok());
        dot_batch();
      });
      const int search = tr_.Open("index.search", parent, req);
      SCCF_CHECK(r.index->Search(emb, beta_, user).ok());
      tr_.Close(search);
      rows_scanned_ += n;
      const int k =
          tr_.Open(sq8 ? "simd.dot_batch_i8" : "simd.dot_batch", search, req);
      dot_batch();
      tr_.Close(k);
      if (sq8) {
        float qsum = 0;
        for (float v : q) qsum += v;
        const int t = tr_.Open("simd.topk", -1, req);
        sccf::simd::TopKDotI8(q.data(), r.codes.data(), n, dim_,
                              r.scales.data(), r.offsets.data(), qsum, beta_,
                              -1, &top_);
        tr_.Close(t);
      } else {
        const int t = tr_.Open("simd.topk", -1, req);
        sccf::simd::TopKDot(q.data(), r.rows.data(), n, dim_, beta_, -1,
                            &top_);
        tr_.Close(t);
      }
    }
    ++fanouts_;
  }

  /// Infers `user`'s current embedding under a models.infer span.
  std::vector<float> TracedInfer(int user, int parent, int req) {
    const std::vector<int> history = HistoryOf(user);
    std::vector<float> emb(dim_);
    const int id = tr_.Open("models.infer", parent, req);
    Infer(history, emb.data());
    tr_.Close(id);
    return emb;
  }

  void Request(const Frame& f) {
    const int req = next_req_++;
    exec_ = engines_[req % 2].get();
    twin_ = engines_[1 - req % 2].get();
    sccf::server::RequestParser parser;
    sccf::server::Command cmd;
    std::string error, reply;
    const int p = tr_.Open("server.parse", -1, req);
    parser.Feed(f.bytes);
    const auto parsed = parser.Next(&cmd, &error);
    tr_.Close(p);
    SCCF_CHECK(parsed == sccf::server::RequestParser::Result::kCommand);
    const bool ingest = cmd.name == "INGEST";
    if (ingest) {
      Warm([&] { SCCF_CHECK(exec_->Neighbors({f.user, std::nullopt}).ok()); });
    } else {
      Warm([&] { EngineRead(cmd.name, f.user); });
    }
    const int ex = tr_.Open("server.execute", -1, req);
    sccf::server::Execute(*exec_, cmd, &reply);
    tr_.Close(ex);
    reply_bytes_ += reply.size();
    ++frames_;
    SCCF_CHECK(reply.empty() || reply[0] != '-') << reply;
    is_ingest_.push_back(ingest);
    if (ingest) {
      Ingest(f, ex, req);
    } else {
      Read(cmd.name, f.user, ex, req);
    }
    if (frames_ % 1024 == 0) {
      // Explicit compaction on both engines (keeps them identical) gives
      // core.compact a timed sample; the count threshold also drains
      // inside ingest, which rows_drained_inline counts.
      const size_t staged = twin_->pending_upserts();
      const int c = tr_.Open("core.compact", -1, req);
      SCCF_CHECK(twin_->Compact().ok());
      tr_.Close(c);
      SCCF_CHECK(exec_->Compact().ok());
      compact_rows_ += staged;
      ++compactions_;
    }
  }

  void Ingest(const Frame& f, int ex, int req) {
    online::Engine::IngestRequest in;
    in.events.push_back({f.user, f.item, f.ts});
    const size_t staged_before = twin_->pending_upserts();
    Warm([&] { SCCF_CHECK(twin_->Neighbors({f.user, std::nullopt}).ok()); });
    const int e = tr_.Open("engine.ingest", ex, req);
    auto resp = twin_->Ingest(in);
    tr_.Close(e);
    SCCF_CHECK(resp.ok()) << resp.status().ToString();
    const size_t staged_after = twin_->pending_upserts();
    pending_sum_ += staged_after;
    ++ingests_;
    if (staged_after < staged_before + 1) {
      inline_drained_ += staged_before + 1 - staged_after;
    }
    if (resp->identify_ms > 0) {
      // IngestResponse and the INGEST reply carry counts only: every
      // neighbourhood the identify step computes is dropped.
      ++identify_computed_;
      ++identify_discarded_;
    }

    const Span& es = tr_.at(e);
    const int64_t infer_ns = static_cast<int64_t>(resp->infer_ms * 1e6);
    const int64_t index_ns = static_cast<int64_t>(resp->index_ms * 1e6);
    const int64_t identify_ns = static_cast<int64_t>(resp->identify_ms * 1e6);
    const int64_t start = es.start;
    const int ci = tr_.Add("core.infer", start, start + infer_ns, e, req);
    const int cx = tr_.Add("core.index", start + infer_ns,
                           start + infer_ns + index_ns, e, req);
    const int cd =
        tr_.Add("core.identify", start + infer_ns + index_ns,
                start + infer_ns + index_ns + identify_ns, e, req);

    const std::vector<float> emb = TracedInfer(f.user, ci, req);
    Upsert(f.user, emb.data(), cx, req);
    FanOut(f.user, emb.data(), cd, req);
    if (journal_ != nullptr) {
      const online::Engine::Event ev{f.user, f.item, f.ts};
      const int j = tr_.Open("persist.journal_append", e, req);
      SCCF_CHECK(journal_->Append(twin_->service().ShardOf(f.user),
                                  ++journal_seq_,
                                  std::span<const online::Engine::Event>(
                                      &ev, 1))
                     .ok());
      tr_.Close(j);
      ++journal_events_;
    }
  }

  /// The typed Engine call of a read command, on the executing engine.
  void EngineRead(const std::string& name, int user) {
    if (name == "HISTORY") {
      SCCF_CHECK(exec_->History({user}).ok());
    } else if (name == "RECOMMEND") {
      online::Engine::RecommendRequest r;
      r.user = user;
      r.n = 10;
      SCCF_CHECK(exec_->Recommend(r).ok());
    } else {
      SCCF_CHECK(exec_->Neighbors({user, std::nullopt}).ok());
    }
  }

  void Read(const std::string& name, int user, int ex, int req) {
    const bool rec = name == "RECOMMEND";
    const int e = tr_.Open(name == "HISTORY" ? "engine.history"
                           : rec             ? "engine.recommend"
                                             : "engine.neighbors",
                           ex, req);
    EngineRead(name, user);
    tr_.Close(e);
    if (name == "HISTORY") return;
    const int c = tr_.Open(rec ? "core.recommend" : "core.neighbors", e, req);
    if (rec) {
      SCCF_CHECK(exec_->service().RecommendUserBased(user, 10).ok());
    } else {
      SCCF_CHECK(exec_->service().Neighbors(user).ok());
    }
    tr_.Close(c);
    const std::vector<float> emb = TracedInfer(user, c, req);
    FanOut(user, emb.data(), c, req);
  }

  const Stack& stack_;
  const size_t dim_;
  sccf::quant::Storage storage_ = sccf::quant::Storage::kFp32;
  // Two identical engines: each INGEST goes through server::Execute on
  // one and as a typed Engine::Ingest on the other, so both apply it
  // exactly once. The roles alternate per request, so that a speed
  // difference between the two copies (seen on a 4-vCPU virtual machine,
  // from outside the code under test) stays out of the difference
  // between server.execute and engine.*.
  std::unique_ptr<online::Engine> engines_[2];
  online::Engine* exec_ = nullptr;
  online::Engine* twin_ = nullptr;
  size_t window_ = 15;
  size_t beta_ = 100;
  std::vector<ShardReplica> shards_;
  std::vector<float> scores_;
  std::vector<std::pair<int, float>> top_;
  Tracer tr_;
  std::string journal_path_;
  std::unique_ptr<sccf::persist::JournalWriter> journal_;
  uint64_t journal_seq_ = 0;
  size_t journal_events_ = 0;
  int next_req_ = 0;
  std::vector<bool> is_ingest_;  // by request id
  size_t frames_ = 0, reply_bytes_ = 0, ingests_ = 0, pending_sum_ = 0;
  size_t inline_drained_ = 0, compact_rows_ = 0, compactions_ = 0;
  size_t identify_computed_ = 0, identify_discarded_ = 0;
  size_t rows_scanned_ = 0, fanouts_ = 0;
};

void TracedPass::Write(const std::string& out_path,
                       const std::string& spans_path) {
  const std::vector<Span>& spans = tr_.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end - s.start;
  }
  struct Agg {
    size_t n = 0;
    int64_t total = 0, self = 0;
  };
  std::map<std::string, Agg> by_name;
  std::map<std::string, Agg> ingest_by_name;  // spans of INGEST requests
  int64_t ingest_execute_ns = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int64_t dur = s.end - s.start;
    const int64_t self = std::max<int64_t>(0, dur - child_ns[i]);
    Agg& a = by_name[s.name];
    ++a.n;
    a.total += dur;
    a.self += self;
    if (s.req >= 0 && is_ingest_[s.req] &&
        std::string(s.name) != "simd.topk" &&
        std::string(s.name) != "core.compact") {
      Agg& g = ingest_by_name[s.name];
      ++g.n;
      g.total += dur;
      g.self += self;
      if (std::string(s.name) == "server.execute") ingest_execute_ns += dur;
    }
  }
  const auto mean_us = [&](const char* name) {
    const auto it = by_name.find(name);
    if (it == by_name.end() || it->second.n == 0) return 0.0;
    return 1e-3 * static_cast<double>(it->second.total) /
           static_cast<double>(it->second.n);
  };
  const auto self_us = [&](const char* name) {
    const auto it = by_name.find(name);
    if (it == by_name.end() || it->second.n == 0) return 0.0;
    return 1e-3 * static_cast<double>(it->second.self) /
           static_cast<double>(it->second.n);
  };
  const double per = [&] {
    const bool sq8 = storage_ == sccf::quant::Storage::kSq8;
    return sq8 ? static_cast<double>(dim_ + 8) : 4.0 * dim_;
  }();
  const double rows_per_query =
      fanouts_ ? static_cast<double>(rows_scanned_) / fanouts_ : 0.0;
  const auto ratio = [](size_t a, size_t b) {
    return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
  };
  struct stat st {};
  const double journal_bytes =
      journal_ != nullptr && ::stat(journal_path_.c_str(), &st) == 0
          ? static_cast<double>(st.st_size)
          : 0.0;

  const std::vector<std::pair<const char*, double>> metrics = {
      {"server.parse_us", mean_us("server.parse")},
      {"server.dispatch_self_us", self_us("server.execute")},
      {"server.reply_bytes", ratio(reply_bytes_, frames_)},
      {"core.identify_us", mean_us("core.identify")},
      {"core.identify_discarded_ratio",
       ratio(identify_discarded_, identify_computed_)},
      {"core.infer_us", mean_us("core.infer")},
      {"core.index_us", mean_us("core.index")},
      {"engine.ingest_us", mean_us("engine.ingest")},
      {"core.neighbors_us", mean_us("core.neighbors")},
      {"core.recommend_us", mean_us("core.recommend")},
      {"core.shards_per_query", fanouts_ ? static_cast<double>(shards_.size())
                                         : 0.0},
      {"engine.recommend_us", mean_us("engine.recommend")},
      {"engine.neighbors_us", mean_us("engine.neighbors")},
      {"engine.history_us", mean_us("engine.history")},
      {"index.search_us", mean_us("index.search")},
      {"index.rows_scanned", rows_per_query},
      {"simd.dot_batch_us", mean_us("simd.dot_batch")},
      {"simd.topk_us", mean_us("simd.topk")},
      {"simd.bytes_per_query", rows_per_query * per},
      {"simd.flops_per_query", rows_per_query * 2.0 * dim_},
      {"simd.dot_batch_i8_us", mean_us("simd.dot_batch_i8")},
      {"quant.encode_us", mean_us("quant.encode")},
      {"index.add_us", mean_us("index.add")},
      {"core.compact_us", mean_us("core.compact")},
      {"core.rows_drained",
       ratio(compact_rows_ + inline_drained_, std::max<size_t>(ingests_, 1))},
      {"engine.pending_upserts", ratio(pending_sum_, ingests_)},
      {"models.infer_us", mean_us("models.infer")},
      {"persist.journal_append_us", mean_us("persist.journal_append")},
      {"persist.journal_bytes_per_event",
       journal_events_ ? journal_bytes / journal_events_ : 0.0},
  };

  FILE* out = std::fopen(out_path.c_str(), "w");
  SCCF_CHECK(out != nullptr) << "cannot write " << out_path;
  std::fprintf(out, "{\"traced_frames\": %zu, \"traced_ingests\": %zu,\n",
               frames_, ingests_);
  std::fprintf(out, " \"metrics\": {");
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(out, "%s\"%s\": %.6f", i ? ", " : "", metrics[i].first,
                 metrics[i].second);
  }
  // Where INGEST time goes: each layer's inclusive and self time as a
  // share of server.execute over the traced INGEST requests.
  std::fprintf(out, "},\n \"ingest_time_share\": {");
  bool first = true;
  for (const auto& [name, g] : ingest_by_name) {
    if (ingest_execute_ns == 0) break;
    std::fprintf(out, "%s\"%s\": {\"inclusive\": %.4f, \"self\": %.4f}",
                 first ? "" : ", ", name.c_str(),
                 static_cast<double>(g.total) / ingest_execute_ns,
                 static_cast<double>(g.self) / ingest_execute_ns);
    first = false;
  }
  std::fprintf(out, "}}\n");
  std::fclose(out);

  FILE* sf = std::fopen(spans_path.c_str(), "w");
  SCCF_CHECK(sf != nullptr) << "cannot write " << spans_path;
  const int64_t t0 = spans.empty() ? 0 : spans.front().start;
  std::fprintf(sf,
               "{\"fields\": [\"name\", \"start_ns\", \"end_ns\", "
               "\"parent\", \"request\", \"derived\"],\n \"spans\": [\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(sf, "%s[\"%s\", %lld, %lld, %d, %d, %d]", i ? ",\n" : "",
                 s.name, static_cast<long long>(s.start - t0),
                 static_cast<long long>(s.end - t0), s.parent, s.req,
                 s.derived ? 1 : 0);
  }
  std::fprintf(sf, "\n]}\n");
  std::fclose(sf);
}

}  // namespace

int RunTrace(const Flags& flags) {
  const WorkloadSpec& spec = *flags.spec;
  auto stack = Stack::Build(spec, kCorpusSeed);
  StreamGen gen(spec, stack->split->num_users(), stack->dataset->num_items(),
                StreamSeed(flags.seed));
  const std::vector<Send> main_sends =
      gen.MainPhase(flags.seconds * kMainShare);
  const std::vector<Send> probe_sends =
      gen.ProbePhase(flags.seconds * kProbeShare);
  TracedPass pass(spec, *stack, flags.scratch);
  // Half of --seconds of replay; browse splits it with its probe phase so
  // the trace also covers INGEST there.
  const int64_t budget = static_cast<int64_t>(flags.seconds * 0.5e9);
  if (probe_sends.empty()) {
    pass.Replay(main_sends, budget);
  } else {
    pass.Replay(main_sends, budget * 7 / 10);
    pass.Replay(probe_sends, budget * 3 / 10);
  }
  pass.Write(flags.out, flags.spans);
  return 0;
}

}  // namespace perfbench
