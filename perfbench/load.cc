// `pbtool load`: the open-loop wire client. One thread, kConnections
// connections to a running sccf_server, every user pinned to one
// connection. Phases:
//   1. main      open loop at the workload's fixed rate; each reply is
//                timed from its send's due time, not from when it was
//                written, so a stall in the client or the server is
//                charged to every request it delayed;
//   2. probe     (browse only) open-loop INGEST+RECOMMEND pairs;
//   3. saturate  closed loop, one send outstanding per connection, same
//                mix: the reactor's capacity ceiling;
//   4. check     quiesced: STATS/SHARDSTATS, then a twin Engine replays
//                every INGEST that was sent and each probe user's
//                RECOMMEND/NEIGHBORS reply must equal server::Execute on
//                the twin byte for byte.
// The raw samples go to --out as JSON; run.py turns them into metrics.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "pbtool.h"
#include "server/dispatch.h"
#include "server/protocol.h"
#include "simd/kernels.h"
#include "util/logging.h"
#include "workload.h"

namespace perfbench {

namespace {

using sccf::server::ReplyParser;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* KindName(Kind k) {
  switch (k) {
    case Kind::kQuery: return "query";
    case Kind::kIngest: return "ingest";
    case Kind::kFreshRec: return "fresh_rec";
    case Kind::kBgSave: return "bgsave";
  }
  return "?";
}

// `*3 :1 :1 :0` — one event, one user touched, no cold start (every
// generated user exists in the corpus).
constexpr std::string_view kIngestReply = "*3\r\n:1\r\n:1\r\n:0\r\n";

// Closed-loop completions are counted in bins of this width; run.py takes
// the median bin rate as peak_rps, so a host stall costs one bin.
constexpr int64_t kSaturationBinNs = 250'000'000;

struct Totals {
  std::vector<double> lat_ms[4];  // by Kind; open-loop phases only
  std::vector<double> gen_lag_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t open_attempted = 0;
  uint64_t slo_miss = 0;  // open-loop frames over kSloNs or failed
  std::vector<std::string> failure_samples;

  void Fail(std::string why) {
    ++failed;
    if (failure_samples.size() < 8) failure_samples.push_back(std::move(why));
  }
};

class Client {
 public:
  explicit Client(int port) {
    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    SCCF_CHECK(epoll_fd_ >= 0);
    conns_.resize(kConnections);
    for (int i = 0; i < kConnections; ++i) {
      Conn& c = conns_[i];
      c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      SCCF_CHECK(c.fd >= 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(static_cast<uint16_t>(port));
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      SCCF_CHECK(::connect(c.fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0)
          << "connect: " << std::strerror(errno);
      int one = 1;
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      SCCF_CHECK(::fcntl(c.fd, F_SETFL, O_NONBLOCK) == 0);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<uint32_t>(i);
      SCCF_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, c.fd, &ev) == 0);
    }
    sent_events.resize(kConnections);
  }

  ~Client() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    ::close(epoll_fd_);
  }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends `sends` on their fixed schedule and waits for every reply,
  /// spinning on one core meanwhile.
  /// With stall_ms > 0 the client stops for that long at the schedule's
  /// midpoint (the harness self-test).
  void OpenLoop(const std::vector<Send>& sends, int64_t stall_ms) {
    if (sends.empty()) return;
    const int64_t t0 = NowNs() + 2'000'000;
    const int64_t last_due = sends.back().due_ns;
    const int64_t give_up = t0 + last_due + 30'000'000'000;
    size_t next = 0;
    bool stalled = false;
    while (next < sends.size() || outstanding_ > 0) {
      int64_t now = NowNs();
      if (stall_ms > 0 && !stalled && next < sends.size() &&
          sends[next].due_ns >= last_due / 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
        stalled = true;
        now = NowNs();
      }
      while (next < sends.size() && t0 + sends[next].due_ns <= now) {
        Enqueue(sends[next], t0 + sends[next].due_ns, now, true);
        ++next;
      }
      Flush();
      // Busy-poll: a client that sleeps until the next due time wakes up
      // late on a virtualized host (ms-scale wake-up latency), which would
      // show up both as generator lag and as inflated reply times.
      Poll(0);
      if (NowNs() > give_up) {
        AbandonOutstanding("open loop: no reply within 30 s");
        break;
      }
    }
  }

  /// Closed loop for `seconds`: each connection keeps exactly one send
  /// outstanding. Frames answered inside the window are counted per
  /// kSaturationBinNs bin in saturation_bins.
  void ClosedLoop(StreamGen& gen, double seconds) {
    std::deque<Send> queued[kConnections];
    window_start_ = NowNs();
    const int64_t end = window_start_ + static_cast<int64_t>(seconds * 1e9);
    window_end_ = end;
    while (true) {
      const int64_t now = NowNs();
      if (now < end) {
        for (int i = 0; i < kConnections; ++i) {
          if (!conns_[i].pending.empty() || conns_[i].fd < 0) continue;
          for (int draws = 0; queued[i].empty() && draws < 1'000'000;
               ++draws) {
            Send s = gen.Next();
            queued[s.conn].push_back(std::move(s));
          }
          if (queued[i].empty()) continue;
          saturation_sends_.push_back(std::move(queued[i].front()));
          queued[i].pop_front();
          Enqueue(saturation_sends_.back(), now, now, false);
        }
        Flush();
      } else if (outstanding_ == 0) {
        break;
      } else if (now > end + 30'000'000'000) {
        AbandonOutstanding("closed loop: no reply within 30 s");
        break;
      }
      Poll(0);
    }
    window_end_ = 0;
  }

  /// One request on an idle connection; returns the raw reply ("" on
  /// failure) and its round-trip time.
  std::string RoundTrip(int conn, const std::string& frame, int64_t* rtt_ns) {
    Conn& c = conns_[conn];
    ++totals.attempted;
    if (c.fd < 0) {
      totals.Fail("round trip on a dropped connection");
      return "";
    }
    const int64_t start = NowNs();
    size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = ::write(c.fd, frame.data() + off, frame.size() - off);
      if (n > 0) {
        off += static_cast<size_t>(n);
      } else if (n < 0 && errno != EAGAIN && errno != EINTR) {
        totals.Fail("round trip write failed");
        return "";
      }
    }
    std::string reply;
    char buf[65536];
    while (true) {
      if (c.replies.Next(&reply) == ReplyParser::Result::kReply) break;
      if (NowNs() - start > 10'000'000'000) {
        totals.Fail("round trip: no reply within 10 s");
        return "";
      }
      const ssize_t n = ::read(c.fd, buf, sizeof(buf));
      if (n > 0) {
        c.replies.Feed(std::string_view(buf, static_cast<size_t>(n)));
      } else if (n == 0 || (errno != EAGAIN && errno != EINTR)) {
        totals.Fail("round trip: connection dropped");
        return "";
      }
    }
    if (rtt_ns != nullptr) *rtt_ns = NowNs() - start;
    return reply;
  }

  Totals totals;
  std::vector<uint64_t> saturation_bins;
  /// INGEST events actually written, per connection, in send order — what
  /// the twin engine replays (per-user order is per-connection order).
  std::vector<std::vector<online::Engine::Event>> sent_events;

 private:
  struct Pending {
    int64_t due_ns;
    const Frame* frame;
    bool record;
  };
  struct Conn {
    int fd = -1;
    std::string out;
    size_t off = 0;
    bool want_out = false;
    ReplyParser replies;
    std::deque<Pending> pending;
  };

  void Enqueue(const Send& s, int64_t due_abs, int64_t now, bool record) {
    Conn& c = conns_[s.conn];
    if (record) totals.gen_lag_ms.push_back(1e-6 * (now - due_abs));
    for (const Frame& f : s.frames) {
      ++totals.attempted;
      if (record) ++totals.open_attempted;
      if (c.fd < 0) {
        if (record) ++totals.slo_miss;
        totals.Fail(std::string(KindName(f.kind)) + ": connection dropped");
        continue;
      }
      if (f.kind == Kind::kIngest) {
        sent_events[s.conn].push_back({f.user, f.item, f.ts});
      }
      c.out += f.bytes;
      c.pending.push_back({due_abs, &f, record});
      ++outstanding_;
    }
  }

  void Flush() {
    for (size_t i = 0; i < conns_.size(); ++i) {
      Conn& c = conns_[i];
      while (c.fd >= 0 && c.off < c.out.size()) {
        const ssize_t n =
            ::write(c.fd, c.out.data() + c.off, c.out.size() - c.off);
        if (n > 0) {
          c.off += static_cast<size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else if (n < 0 && errno == EAGAIN) {
          break;
        } else {
          Drop(c, "write failed");
        }
      }
      if (c.fd < 0) continue;
      if (c.off == c.out.size()) {
        c.out.clear();
        c.off = 0;
      }
      const bool want_out = !c.out.empty();
      if (want_out != c.want_out) {
        epoll_event ev{};
        ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
        ev.data.u32 = static_cast<uint32_t>(i);
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
        c.want_out = want_out;
      }
    }
  }

  void Poll(int64_t timeout_ns) {
    epoll_event events[kConnections];
    timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                static_cast<long>(timeout_ns % 1'000'000'000)};
    const int n = ::epoll_pwait2(epoll_fd_, events, kConnections, &ts,
                                 nullptr);
    for (int e = 0; e < n; ++e) {
      Conn& c = conns_[events[e].data.u32];
      if (c.fd < 0) continue;
      if (events[e].events & EPOLLOUT) Flush();
      if (events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        ReadReplies(c);
      }
    }
  }

  void ReadReplies(Conn& c) {
    char buf[65536];
    while (c.fd >= 0) {
      const ssize_t n = ::read(c.fd, buf, sizeof(buf));
      if (n > 0) {
        c.replies.Feed(std::string_view(buf, static_cast<size_t>(n)));
        const int64_t now = NowNs();
        std::string reply;
        ReplyParser::Result r;
        while ((r = c.replies.Next(&reply)) == ReplyParser::Result::kReply) {
          if (c.pending.empty()) {
            totals.Fail("reply without a request");
            continue;
          }
          OnReply(c.pending.front(), reply, now);
          c.pending.pop_front();
          --outstanding_;
        }
        if (r == ReplyParser::Result::kError) Drop(c, "unparsable reply");
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && errno == EAGAIN) {
        return;
      } else {
        Drop(c, "connection closed by server");
      }
    }
  }

  void OnReply(const Pending& p, const std::string& reply, int64_t now) {
    if (window_end_ != 0 && now <= window_end_) {
      const size_t bin = static_cast<size_t>(
          (now - window_start_) / kSaturationBinNs);
      if (bin >= saturation_bins.size()) saturation_bins.resize(bin + 1, 0);
      ++saturation_bins[bin];
    }
    std::string why;
    if (!CheckReply(*p.frame, reply, &why)) {
      totals.Fail(std::string(KindName(p.frame->kind)) + " user " +
                  std::to_string(p.frame->user) + ": " + why);
      if (p.record) ++totals.slo_miss;
      return;
    }
    if (!p.record) return;
    const int64_t lat = now - p.due_ns;
    totals.lat_ms[static_cast<int>(p.frame->kind)].push_back(1e-6 * lat);
    if (lat > kSloNs) ++totals.slo_miss;
  }

  bool CheckReply(const Frame& f, const std::string& reply,
                  std::string* why) {
    if (!reply.empty() && reply[0] == '-') {
      *why = reply.substr(0, reply.find('\r'));
      return false;
    }
    switch (f.kind) {
      case Kind::kIngest:
        if (reply == kIngestReply) return true;
        break;
      case Kind::kBgSave:
        if (reply == "+OK\r\n") return true;
        break;
      case Kind::kQuery:
        if (!reply.empty() && reply[0] == '*') return true;
        break;
      case Kind::kFreshRec: {
        std::vector<int> ids;
        if (!ParseIdArray(reply, &ids)) break;
        if (std::find(ids.begin(), ids.end(), f.item) != ids.end()) {
          *why = "just-clicked item " + std::to_string(f.item) +
                 " is in the fresh list";
          return false;
        }
        return true;
      }
    }
    *why = "unexpected reply " + reply.substr(0, 32);
    return false;
  }

  void Drop(Conn& c, const char* why) {
    for (const Pending& p : c.pending) {
      totals.Fail(std::string(KindName(p.frame->kind)) + ": " + why);
      if (p.record) ++totals.slo_miss;
      --outstanding_;
    }
    c.pending.clear();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
    c.fd = -1;
  }

  void AbandonOutstanding(const char* why) {
    for (Conn& c : conns_) {
      if (!c.pending.empty()) Drop(c, why);
    }
  }

  int epoll_fd_ = -1;
  std::vector<Conn> conns_;
  uint64_t outstanding_ = 0;
  int64_t window_start_ = 0;
  int64_t window_end_ = 0;
  std::deque<Send> saturation_sends_;  // stable addresses for Pending
};

int64_t Median(std::vector<int64_t> v) {
  if (v.empty()) return 0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

void WriteArray(FILE* f, const std::vector<double>& v) {
  std::fputc('[', f);
  for (size_t i = 0; i < v.size(); ++i) {
    std::fprintf(f, "%s%.6f", i ? "," : "", v[i]);
  }
  std::fputc(']', f);
}

}  // namespace

bool ParseIdArray(const std::string& reply, std::vector<int>* ids) {
  // `*2n` header, then n pairs of `:id` and a bulk score; NEIGHBORS and
  // RECOMMEND share the shape.
  ids->clear();
  size_t pos = 0;
  const auto line = [&](char type, std::string* out) {
    if (pos >= reply.size() || reply[pos] != type) return false;
    const size_t end = reply.find("\r\n", pos);
    if (end == std::string::npos) return false;
    *out = reply.substr(pos + 1, end - pos - 1);
    pos = end + 2;
    return true;
  };
  std::string field;
  if (!line('*', &field)) return false;
  const long n = std::strtol(field.c_str(), nullptr, 10);
  if (n < 0 || n % 2 != 0) return false;
  for (long i = 0; i < n; i += 2) {
    if (!line(':', &field)) return false;
    ids->push_back(static_cast<int>(std::strtol(field.c_str(), nullptr, 10)));
    if (!line('$', &field)) return false;
    pos += static_cast<size_t>(std::strtol(field.c_str(), nullptr, 10)) + 2;
  }
  return pos == reply.size();
}

namespace {

/// Every integer value that follows the bulk-string `key` in a STATS or
/// SHARDSTATS reply, in reply order (one per shard for SHARDSTATS).
std::vector<int64_t> IntFields(const std::string& reply,
                               const std::string& key) {
  std::string needle = "$";
  needle.append(std::to_string(key.size())).append("\r\n");
  needle.append(key).append("\r\n:");
  std::vector<int64_t> values;
  for (size_t pos = reply.find(needle); pos != std::string::npos;
       pos = reply.find(needle, pos + 1)) {
    values.push_back(
        std::strtoll(reply.c_str() + pos + needle.size(), nullptr, 10));
  }
  return values;
}

int64_t SumIntField(const std::string& reply, const std::string& key) {
  int64_t sum = 0;
  for (int64_t v : IntFields(reply, key)) sum += v;
  return sum;
}

/// The wire protocol has no COMPACT command, so the daemon is compacted
/// through its count threshold: single INGESTs for users of a shard that
/// still holds staged rows (users the run never touched first, as they
/// cannot be staged already) until the threshold drains it, re-reading
/// SHARDSTATS after each. The twin replays these events too. A row scored
/// from the write buffer and the same row scored from the index can differ
/// in the last float bit, so the byte-for-byte check needs both sides
/// fully compacted.
void CompactDaemon(Client& client, const online::Engine& twin) {
  std::vector<bool> touched(twin.num_users(), false);
  for (const auto& events : client.sent_events) {
    for (const auto& e : events) touched[e.user] = true;
  }
  std::vector<std::vector<int>> candidates(twin.service().num_shards());
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t u = 0; u < touched.size(); ++u) {
      if (touched[u] == (pass == 0)) continue;
      candidates[twin.service().ShardOf(static_cast<int>(u))].push_back(
          static_cast<int>(u));
    }
  }
  const auto staged_rows = [&client] {
    return IntFields(
        client.RoundTrip(0, EncodeCommand({"SHARDSTATS"}), nullptr),
        "staged_rows");
  };
  int64_t ts = 2'000'000'000;
  std::vector<int64_t> staged = staged_rows();
  for (size_t s = 0; s < staged.size() && s < candidates.size(); ++s) {
    for (size_t i = 0; staged[s] != 0 && i < candidates[s].size(); ++i) {
      const int user = candidates[s][i];
      const std::string reply = client.RoundTrip(
          user % kConnections,
          EncodeCommand({"INGEST", std::to_string(user), "0",
                         std::to_string(ts), "NOIDENTIFY"}),
          nullptr);
      if (reply != kIngestReply) {
        client.totals.Fail("compaction INGEST failed: " + reply.substr(0, 40));
        return;
      }
      client.sent_events[user % kConnections].push_back({user, 0, ts++});
      staged = staged_rows();
    }
  }
  for (int64_t rows : staged_rows()) {
    if (rows != 0) {
      client.totals.Fail("daemon still holds staged rows after compaction");
      return;
    }
  }
}

/// Held-out items (each user's validation and test item, both withheld
/// from bootstrap by BootstrapFromSplit) found in the user's
/// RECOMMEND u 10 list, over `users`, on kConnections threads.
size_t CountHits(const online::Engine& engine,
                 const data::LeaveOneOutSplit& split,
                 const std::vector<int>& users) {
  std::atomic<size_t> hits{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kConnections; ++w) {
    workers.emplace_back([&, w] {
      size_t local = 0;
      for (size_t i = w; i < users.size(); i += kConnections) {
        online::Engine::RecommendRequest req;
        req.user = users[i];
        req.n = 10;
        auto resp = engine.Recommend(req);
        SCCF_CHECK(resp.ok()) << resp.status().ToString();
        const size_t u = static_cast<size_t>(users[i]);
        for (const int target : {split.ValidItem(u), split.TestItem(u)}) {
          for (const auto& c : resp->candidates) {
            if (c.id == target) {
              ++local;
              break;
            }
          }
        }
      }
      hits += local;
    });
  }
  for (std::thread& t : workers) t.join();
  return hits.load();
}

}  // namespace

int RunLoad(const Flags& flags) {
  const WorkloadSpec& spec = *flags.spec;
  const double seconds = flags.seconds;
  auto stack = Stack::Build(spec, kCorpusSeed);
  const size_t num_users = stack->split->num_users();
  const size_t num_items = stack->dataset->num_items();
  if (flags.expect_users != num_users || flags.expect_items != num_items) {
    std::fprintf(stderr,
                 "corpus mismatch: daemon %zu x %zu, client %zu x %zu\n",
                 flags.expect_users, flags.expect_items, num_users,
                 num_items);
    return 1;
  }
  StreamGen gen(spec, num_users, num_items, StreamSeed(flags.seed));
  const std::vector<int> probe_users =
      gen.ProbeUsers(*stack->split, spec.probe_users);
  const std::vector<int> hit_users =
      gen.ProbeUsers(*stack->split, spec.hit_users);
  const std::vector<Send> main_sends = gen.MainPhase(seconds * kMainShare);
  const std::vector<Send> probe_sends =
      gen.ProbePhase(seconds * kProbeShare);

  Client client(flags.port);
  client.OpenLoop(main_sends, flags.inject_stall_ms);
  client.OpenLoop(probe_sends, 0);
  const double sat_seconds = seconds * kSaturationShare;
  client.ClosedLoop(gen, sat_seconds);

  // Quiesced from here on: every reply is in.
  const std::string stats =
      client.RoundTrip(0, EncodeCommand({"STATS"}), nullptr);
  const std::string shard_stats =
      client.RoundTrip(0, EncodeCommand({"SHARDSTATS"}), nullptr);
  auto twin = stack->NewEngine(spec);
  CompactDaemon(client, *twin);
  for (const auto& events : client.sent_events) {
    for (size_t i = 0; i < events.size(); i += 512) {
      online::Engine::IngestRequest req;
      req.identify = false;  // identify only reads; state is unaffected
      req.events.assign(events.begin() + i,
                        events.begin() + std::min(events.size(), i + 512));
      SCCF_CHECK(twin->Ingest(req).ok());
    }
  }
  SCCF_CHECK(twin->Compact().ok());

  constexpr size_t kNeighborProbes = 250;
  size_t checked_neighbors = 0;
  bool reported_mismatch = false;
  std::vector<int64_t> rtt_ns, exec_ns;
  for (int user : probe_users) {
    for (const char* cmd : {"RECOMMEND", "NEIGHBORS"}) {
      // Every probe checks RECOMMEND; NEIGHBORS (a 200-element reply over
      // the same fan-out) is checked on the first kNeighborProbes.
      if (cmd[0] == 'N' && checked_neighbors++ >= kNeighborProbes) continue;
      std::vector<std::string> argv = {cmd, std::to_string(user)};
      if (argv[0] == "RECOMMEND") argv.push_back("10");
      const std::string frame = EncodeCommand(argv);
      int64_t rtt = 0;
      std::string wire = client.RoundTrip(user % kConnections, frame, &rtt);
      if (wire.empty()) continue;
      if (flags.corrupt_probe_reply && user == probe_users.front()) {
        wire.back() ^= 1;  // what a corrupted reply looks like to the check
      }
      sccf::server::RequestParser parser;
      parser.Feed(frame);
      sccf::server::Command command;
      std::string error, local;
      SCCF_CHECK(parser.Next(&command, &error) ==
                 sccf::server::RequestParser::Result::kCommand);
      const int64_t start = NowNs();
      sccf::server::Execute(*twin, command, &local);
      const int64_t exec = NowNs() - start;
      if (wire != local) {
        if (!reported_mismatch) {
          std::fprintf(stderr, "first mismatch, %s %d\n wire: %s\n twin: %s\n",
                       cmd, user, wire.c_str(), local.c_str());
          reported_mismatch = true;
        }
        client.totals.Fail(std::string(cmd) + " " + std::to_string(user) +
                           ": wire reply differs from the twin engine");
        continue;
      }
      if (argv[0] != "RECOMMEND") continue;
      rtt_ns.push_back(rtt);
      exec_ns.push_back(exec);
    }
  }
  // The twin answers byte for byte as the daemon does (checked above), so
  // the hit rate runs on the twin, over more users and on every core.
  const size_t hits = CountHits(*twin, *stack->split, hit_users);

  FILE* out = std::fopen(flags.out.c_str(), "w");
  SCCF_CHECK(out != nullptr) << "cannot write " << flags.out;
  const Totals& t = client.totals;
  std::fprintf(out, "{\"corpus_users\": %zu, \"corpus_items\": %zu,\n",
               num_users, num_items);
  std::fprintf(out, " \"corpus_seed\": %llu, \"stream_seed\": %llu,\n",
               static_cast<unsigned long long>(kCorpusSeed),
               static_cast<unsigned long long>(StreamSeed(flags.seed)));
  std::fprintf(out, " \"simd_variant\": \"%s\",\n",
               sccf::simd::VariantName(sccf::simd::ActiveVariant()));
  std::fprintf(out, " \"latency_ms\": {");
  for (int k = 0; k < 4; ++k) {
    std::fprintf(out, "%s\"%s\": ", k ? ", " : "",
                 KindName(static_cast<Kind>(k)));
    WriteArray(out, t.lat_ms[k]);
  }
  std::fprintf(out, "},\n \"gen_lag_ms\": ");
  WriteArray(out, t.gen_lag_ms);
  std::fprintf(out,
               ",\n \"attempted\": %llu, \"failed\": %llu, "
               "\"open_attempted\": %llu, \"slo_miss\": %llu,\n",
               static_cast<unsigned long long>(t.attempted),
               static_cast<unsigned long long>(t.failed),
               static_cast<unsigned long long>(t.open_attempted),
               static_cast<unsigned long long>(t.slo_miss));
  std::fprintf(out,
               " \"saturation_seconds\": %.6f, \"saturation_bin_s\": %.3f, "
               "\"saturation_bins\": [",
               sat_seconds, 1e-9 * kSaturationBinNs);
  for (size_t i = 0; i < client.saturation_bins.size(); ++i) {
    std::fprintf(out, "%s%llu", i ? "," : "",
                 static_cast<unsigned long long>(client.saturation_bins[i]));
  }
  std::fprintf(out, "],\n");
  std::fprintf(out,
               " \"held_out_items\": %zu, \"hits\": %zu, "
               "\"wire_rtt_us\": %.3f, \"execute_us\": %.3f,\n",
               2 * hit_users.size(), hits, 1e-3 * Median(rtt_ns),
               1e-3 * Median(exec_ns));
  std::fprintf(out,
               " \"last_save_duration_ms\": %lld, \"embedding_bytes\": "
               "%lld, \"code_bytes\": %lld,\n",
               static_cast<long long>(
                   SumIntField(stats, "last_save_duration_ms")),
               static_cast<long long>(
                   SumIntField(shard_stats, "embedding_bytes")),
               static_cast<long long>(SumIntField(shard_stats, "code_bytes")));
  std::fprintf(out, " \"failure_samples\": [");
  for (size_t i = 0; i < t.failure_samples.size(); ++i) {
    std::string s = t.failure_samples[i];
    for (char& ch : s) {
      if (ch == '"' || ch == '\\' || static_cast<unsigned char>(ch) < 32) {
        ch = ' ';
      }
    }
    std::fprintf(out, "%s\"%s\"", i ? ", " : "", s.c_str());
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
  return 0;
}

}  // namespace perfbench
