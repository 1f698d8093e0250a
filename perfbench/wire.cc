// wire-dashboard: ivm_server over TCP, driven by this process as a
// single-connection closed-loop client.
//
// Two SQL views over shared tables R(a, b) and S(b, c), grouped by R.b:
// q0 = COUNT(*) (Z ring) and q1 = AVG(S.c) (product ring). A run is a
// sequence of whole episodes until --seconds have passed. Each episode
// starts a fresh server and preloads it over the wire (the set-up), then
// sends kRounds rounds of kRound requests: BATCHes of kBatch deltas (mostly
// inserts, plus retractions of live rows) and, every 16th request, an
// ENUMERATE q<i> kLimit. Fixed-size episodes keep the state each request
// sees independent of how fast the host is. The client keeps each view's
// per-key count and (count, sum) from the deltas it sent and checks every
// reply against them.
//
// The round also carries the server's value-collision fault on purpose:
// IvmServer::ParseValue interns a string token as 1'000'000'000 + code, so
// the string kAliasName and the integer 1'000'000'000 + its code become one
// key. Each round inserts one row pair for each of the two keys before its
// first two reads and retracts them before the last two, so exactly two of
// its four reads see the merged key and count as failed (the reply must
// equal the merged form exactly, else the run is incorrect).
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <set>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "incr/core/view_tree.h"
#include "incr/core/view_tree_plan.h"
#include "incr/data/value.h"
#include "incr/engines/engine.h"
#include "incr/obs/metrics.h"
#include "incr/ring/int_ring.h"
#include "incr/ring/product_ring.h"
#include "incr/serve/client.h"
#include "incr/sql/sql.h"
#include "incr/util/rng.h"

namespace perfbench {
namespace {

constexpr const char* kSqlCount =
    "CREATE TABLE R (a, b); CREATE TABLE S (b, c); "
    "SELECT R.b, COUNT(*) FROM R, S WHERE R.b = S.b GROUP BY R.b;";
constexpr const char* kSqlAvg =
    "SELECT R.b, AVG(S.c) FROM R, S WHERE R.b = S.b GROUP BY R.b;";

constexpr int64_t kIntKeys = 2000;     // group keys 0 .. kIntKeys-1
constexpr int64_t kBigIdBase = 3'000'000'000;  // ids >= 1e9, never aliased
constexpr int64_t kBigIds = 8;
const char* const kNames[] = {"acme", "globex", "initech",
                              "umbrella", "hooli", "vandelay"};
constexpr int64_t kNumNames = 6;
// Interned right after kNames, so its code is kNumNames and the integer
// 1'000'000'000 + kNumNames collides with it.
constexpr const char* kAliasName = "zorg";
constexpr int64_t kAliasId = 1'000'000'000 + kNumNames;

constexpr size_t kPreloadRows = 20000;  // per table
constexpr size_t kPreloadBatch = 1000;
constexpr size_t kBatch = 8;
constexpr size_t kRound = 64;   // requests per round
constexpr size_t kReadEvery = 16;
constexpr size_t kLimit = 50;
constexpr size_t kRounds = 30;  // rounds per episode

// ---- the ivm_server child process ----------------------------------------

class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  /// Starts `path --port 0 --workers 1` and reads back its port.
  bool Start(const std::string& path, std::string* err) {
    int fds[2];
    if (pipe(fds) != 0) {
      *err = "pipe failed";
      return false;
    }
    pid_ = fork();
    if (pid_ < 0) {
      *err = "fork failed";
      return false;
    }
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      execl(path.c_str(), path.c_str(), "--port", "0", "--workers", "1",
            static_cast<char*>(nullptr));
      _exit(127);
    }
    close(fds[1]);
    out_fd_ = fds[0];
    std::string line;
    const uint64_t t0 = NowNs();
    while (line.find('\n') == std::string::npos) {
      pollfd p{out_fd_, POLLIN, 0};
      if (SecondsSince(t0) > 20 || poll(&p, 1, 1000) < 0) break;
      if (p.revents == 0) continue;
      char buf[256];
      ssize_t n = read(out_fd_, buf, sizeof buf);
      if (n <= 0) break;
      line.append(buf, static_cast<size_t>(n));
    }
    const size_t colon = line.rfind(':');
    if (line.rfind("listening on ", 0) != 0 || colon == std::string::npos) {
      *err = "ivm_server did not start: '" + line + "'";
      Stop();
      return false;
    }
    port_ = static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));
    return true;
  }

  /// SIGTERM, then SIGKILL after 10 s; always reaps the child.
  void Stop() {
    if (pid_ > 0) {
      kill(pid_, SIGTERM);
      const uint64_t t0 = NowNs();
      int status = 0;
      while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (SecondsSince(t0) > 10) {
          kill(pid_, SIGKILL);
          waitpid(pid_, &status, 0);
          break;
        }
        usleep(2000);
      }
      pid_ = -1;
    }
    if (out_fd_ >= 0) close(out_fd_);
    out_fd_ = -1;
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

// ---- the client's model of the tables --------------------------------------

/// A group key as the client sends it: an integer id, or a name (stored as
/// -1 - index into kNames, or kAliasKey for kAliasName).
using Key = int64_t;
constexpr Key kAliasKey = -1000;

std::string Render(Key k) {
  if (k == kAliasKey) return kAliasName;
  if (k < 0) return kNames[-1 - k];
  return std::to_string(k);
}

struct Agg {
  int64_t r = 0;      // multiplicity of R rows with this b
  int64_t s = 0;      // multiplicity of S rows with this b
  int64_t s_sum = 0;  // sum of c over those S rows
  int64_t Count() const { return r * s; }
};

struct Row {
  int64_t x;  // R.a or S.c
  Key b;
};

/// Live rows of R and S plus the per-key aggregates both views are
/// computed from.
struct Model {
  std::vector<Row> r_rows, s_rows;
  std::unordered_map<Key, Agg> agg;
  std::set<std::string> live;  // rendered keys with a nonzero count

  void Apply(bool is_r, const Row& row, int64_t m) {
    Agg& g = agg[row.b];
    const bool was = g.Count() != 0;
    if (is_r) {
      g.r += m;
    } else {
      g.s += m;
      g.s_sum += m * row.x;
    }
    const bool now = g.Count() != 0;
    if (was != now) {
      if (now) {
        live.insert(Render(row.b));
      } else {
        live.erase(Render(row.b));
      }
    }
  }
};

Key KeyOfRendered(const std::string& s) {
  for (int64_t i = 0; i < kNumNames; ++i) {
    if (s == kNames[i]) return -1 - i;
  }
  if (s == kAliasName) return kAliasKey;
  return std::strtoll(s.c_str(), nullptr, 10);
}

std::string Payload(int view, const Agg& g) {
  if (view == 0) return std::to_string(g.Count());
  return "count=" + std::to_string(g.Count()) +
         " sum=" + std::to_string(g.r * g.s_sum);
}

/// The ENUMERATE reply the server should send for `view`. With `merged`,
/// the reply the value-collision fault produces instead: kAliasId's rows
/// land on kAliasName's key and render under its name.
std::string ExpectedReply(const Model& m, int view, size_t limit,
                          bool merged) {
  size_t rows = m.live.size();
  if (merged) --rows;
  std::string out = "OK rows=" + std::to_string(rows);
  size_t emitted = 0;
  for (auto it = m.live.begin(); it != m.live.end() && emitted < limit;
       ++it) {
    const Key k = KeyOfRendered(*it);
    Agg g = m.agg.at(k);
    if (merged && k == kAliasId) continue;
    if (merged && k == kAliasKey) {
      const Agg& o = m.agg.at(kAliasId);
      g.r += o.r;
      g.s += o.s;
      g.s_sum += o.s_sum;
    }
    out += "\n" + *it + " -> " + Payload(view, g);
    ++emitted;
  }
  return out;
}

// ---- the request stream -----------------------------------------------------

struct WireDelta {
  bool is_r;
  Row row;
  int64_t m;  // +1 insert, -1 retraction
};

std::string Line(const WireDelta& d) {
  std::string out = d.m > 0 ? "+" : "-";
  out += d.is_r ? "R " : "S ";
  if (d.is_r) {
    out += std::to_string(d.row.x) + " " + Render(d.row.b);
  } else {
    out += Render(d.row.b) + " " + std::to_string(d.row.x);
  }
  return out;
}

class Generator {
 public:
  explicit Generator(uint64_t seed) : rng_(seed) {}

  Key DrawKey() {
    const uint64_t u = rng_.Uniform(100);
    if (u < 2) return -1 - static_cast<Key>(rng_.Uniform(kNumNames));
    if (u < 4) return kBigIdBase + static_cast<Key>(rng_.Uniform(kBigIds));
    return static_cast<Key>(rng_.Uniform(kIntKeys));
  }

  WireDelta Insert(bool is_r) {
    return WireDelta{is_r,
                     Row{static_cast<int64_t>(rng_.Uniform(is_r ? 1000000
                                                                : 1000)),
                         DrawKey()},
                     1};
  }

  /// Five in eight deltas insert; the rest retract a random live row.
  /// Either way the delta is applied to `m` at once.
  WireDelta Next(Model* m) {
    const bool is_r = rng_.Uniform(2) == 0;
    std::vector<Row>& rows = is_r ? m->r_rows : m->s_rows;
    WireDelta d;
    if (rng_.Uniform(8) < 5 || rows.empty()) {
      d = Insert(is_r);
      rows.push_back(d.row);
    } else {
      const size_t i = rng_.Uniform(rows.size());
      d = WireDelta{is_r, rows[i], -1};
      rows[i] = rows.back();
      rows.pop_back();
    }
    m->Apply(d.is_r, d.row, d.m);
    return d;
  }

 private:
  incr::Rng rng_;
};

/// Adds an inserted row to the model's live rows and aggregates.
void AddLive(Model* m, const WireDelta& d) {
  (d.is_r ? m->r_rows : m->s_rows).push_back(d.row);
  m->Apply(d.is_r, d.row, d.m);
}

std::string BatchText(const std::vector<WireDelta>& deltas) {
  std::string out = "BATCH";
  for (const WireDelta& d : deltas) out += "\n" + Line(d);
  return out;
}

// ---- in-process replica for the traced run ----------------------------------

using AvgRing = incr::ProductRing<incr::IntRing, incr::IntRing>;

/// The two views maintained in process with snapshot reads on, fed the same
/// deltas as the server, so merge and apply can be timed on their own.
template <incr::RingType R>
struct ReplicaView {
  incr::sql::CompiledSql compiled;
  std::unique_ptr<incr::ViewTree<R>> tree;
};

template <incr::RingType R>
ReplicaView<R> MakeReplica(const char* sql, incr::sql::SqlCatalog* catalog) {
  incr::VarRegistry vars;
  auto c = incr::sql::CompileSql(sql, &vars, catalog);
  INCR_CHECK(c.ok());
  auto vo = incr::EnumerableOrderFor(c->query);
  INCR_CHECK(vo.ok());
  auto t = incr::ViewTree<R>::Make(c->query, *std::move(vo));
  INCR_CHECK(t.ok());
  ReplicaView<R> v{*std::move(c), std::make_unique<incr::ViewTree<R>>(
                                      *std::move(t))};
  v.tree->EnableSnapshots(3);
  return v;
}

struct Replica {
  incr::sql::SqlCatalog catalog;
  ReplicaView<incr::IntRing> count = MakeReplica<incr::IntRing>(kSqlCount,
                                                                &catalog);
  ReplicaView<AvgRing> avg = MakeReplica<AvgRing>(kSqlAvg, &catalog);
  incr::Dictionary dict;  // the server's value convention

  incr::Value ValueOf(Key k) {
    if (k >= 0) return k;
    return 1'000'000'000 + dict.Intern(Render(k));
  }

  incr::Tuple TupleOf(const WireDelta& d) {
    return d.is_r ? incr::Tuple{d.row.x, ValueOf(d.row.b)}
                  : incr::Tuple{ValueOf(d.row.b), d.row.x};
  }

  /// Merges and applies one batch to both views; adds the merge and apply
  /// time (ns) to the two accumulators.
  void Apply(const std::vector<WireDelta>& batch, uint64_t* merge_ns,
             uint64_t* apply_ns) {
    std::vector<incr::Delta<incr::IntRing>> zc;
    std::vector<incr::Delta<AvgRing>> za;
    for (const WireDelta& d : batch) {
      const std::string rel = d.is_r ? "R" : "S";
      incr::Tuple t = TupleOf(d);
      zc.push_back({rel, t, incr::sql::LiftInt(count.compiled, rel, t, d.m)});
      za.push_back({rel, t, incr::sql::LiftPair(avg.compiled, rel, t, d.m)});
    }
    const uint64_t t0 = NowNs();
    auto mc = incr::MergeNamedBatch(
        *count.tree, std::span<const incr::Delta<incr::IntRing>>(zc));
    const uint64_t t1 = NowNs();
    count.tree->ApplyBatch(mc);
    const uint64_t t2 = NowNs();
    auto ma = incr::MergeNamedBatch(
        *avg.tree, std::span<const incr::Delta<AvgRing>>(za));
    const uint64_t t3 = NowNs();
    avg.tree->ApplyBatch(ma);
    const uint64_t t4 = NowNs();
    *merge_ns += (t1 - t0) + (t3 - t2);
    *apply_ns += (t2 - t1) + (t4 - t3);
  }

  /// Enumerates one view off a snapshot; returns {tuples, ns}.
  std::pair<size_t, uint64_t> Enumerate(int view) {
    const uint64_t t0 = NowNs();
    size_t n = 0;
    if (view == 0) {
      auto snap = count.tree->Snapshot();
      for (auto it = snap.Enumerate(); it.Valid(); it.Next()) ++n;
    } else {
      auto snap = avg.tree->Snapshot();
      for (auto it = snap.Enumerate(); it.Valid(); it.Next()) ++n;
    }
    return {n, NowNs() - t0};
  }

  size_t StateBytes() const {
    return count.tree->StateBytes() + avg.tree->StateBytes();
  }
};

// ---- session helpers -------------------------------------------------------

/// One server with both views registered and a connected client.
struct Session {
  ServerProcess server;
  incr::serve::Client client;
};

bool Call(incr::serve::Client& c, const std::string& cmd, std::string* reply,
          Report* r) {
  auto rep = c.Call(cmd);
  if (!rep.ok()) {
    r->Fail("transport: " + rep.status().ToString());
    return false;
  }
  *reply = *std::move(rep);
  return true;
}

bool OpenSession(const Args& a, Session* s, Report* r) {
  std::string err;
  if (!s->server.Start(a.server_path, &err)) {
    r->Fail(err);
    return false;
  }
  auto c = incr::serve::Client::Connect("127.0.0.1", s->server.port());
  if (!c.ok()) {
    r->Fail("connect: " + c.status().ToString());
    return false;
  }
  s->client = *std::move(c);
  std::string reply;
  if (!Call(s->client, std::string("REGISTER ") + kSqlCount, &reply, r) ||
      reply != "OK q0") {
    r->Fail("REGISTER q0: " + reply);
    return false;
  }
  if (!Call(s->client, std::string("REGISTER ") + kSqlAvg, &reply, r) ||
      reply != "OK q1") {
    r->Fail("REGISTER q1: " + reply);
    return false;
  }
  return true;
}

/// Sends `deltas` in BATCHes of kPreloadBatch.
bool SendBulk(Session* s, const std::vector<WireDelta>& deltas, Report* r) {
  for (size_t i = 0; i < deltas.size(); i += kPreloadBatch) {
    std::vector<WireDelta> chunk(
        deltas.begin() + static_cast<ptrdiff_t>(i),
        deltas.begin() +
            static_cast<ptrdiff_t>(std::min(deltas.size(), i + kPreloadBatch)));
    std::string reply;
    if (!Call(s->client, BatchText(chunk), &reply, r)) return false;
    if (reply.rfind("OK deltas=" + std::to_string(chunk.size()), 0) != 0) {
      r->Fail("bulk BATCH: " + reply);
      return false;
    }
  }
  return true;
}

/// Checks both views in full (no limit) against the model.
void CheckFull(Session* s, const Model& m, const std::string& when,
               Report* r) {
  for (int view = 0; view < 2; ++view) {
    std::string reply;
    if (!Call(s->client, "ENUMERATE q" + std::to_string(view), &reply, r)) {
      return;
    }
    if (reply != ExpectedReply(m, view, m.live.size(), false)) {
      r->Fail(when + ": full ENUMERATE q" + std::to_string(view) +
              " differs from the client's model");
    }
  }
}

/// The "p50_ns" of histogram `field` in a STATS reply, in µs.
double StatsP50Us(const std::string& reply, const std::string& field) {
  const size_t at = reply.find("\"" + field + "\":");
  if (at == std::string::npos) return 0;
  const size_t p = reply.find("\"p50_ns\":", at);
  if (p == std::string::npos) return 0;
  return std::strtod(reply.c_str() + p + 9, nullptr) / 1000.0;
}

}  // namespace

Report RunWire(const Args& a) {
  Report r;
  if (a.server_path.empty()) {
    r.Fail("wire-dashboard needs --server");
    return r;
  }
  const std::vector<WireDelta> alias_rows = {
      {true, Row{7, kAliasKey}, 1},
      {false, Row{5, kAliasKey}, 1},
      {true, Row{7, kAliasId}, 1},
      {false, Row{5, kAliasId}, 1},
  };
  std::vector<double> setup_s, update_us, read_us, rss_mb, recover_s;
  std::vector<double> merge_us, apply_us, enum_delay_ns;
  std::vector<double> first_tenth, last_tenth;  // replica ns/delta per episode
  // Throughput and server CPU cost are taken per episode and reported as the
  // interquartile mean over episodes, so a burst of load from elsewhere on
  // the host moves a few episodes rather than the run's figure.
  std::vector<double> episode_rate, episode_cpu_us;
  uint64_t deltas = 0, batches = 0;
  auto& registry = incr::obs::MetricsRegistry::Global();
  incr::obs::Counter* clones = registry.GetCounter("viewtree.snapshot_clones");
  incr::obs::Counter* replays =
      registry.GetCounter("viewtree.snapshot_replays");
  incr::obs::Counter* rehashes = registry.GetCounter("relation.rehashes");
  const uint64_t clones0 = clones->Value(), replays0 = replays->Value();
  uint64_t rehash_count = 0;
  Model model;
  Session session;
  std::unique_ptr<Replica> replica;
  double ping_us = 0, engine_update_us = 0, engine_enum_us = 0;
  size_t episodes = 0;

  const uint64_t run_t0 = NowNs();
  while (r.correct && (episodes == 0 || SecondsSince(run_t0) < a.seconds)) {
    // Preload rows: one R row per name first, so the server interns the
    // names in kNames order; then kPreloadRows inserts per table.
    Generator gen(Mix(a.seed, episodes));
    std::vector<WireDelta> preload;
    for (int64_t i = 0; i < kNumNames; ++i) {
      preload.push_back(WireDelta{true, Row{i, -1 - i}, 1});
    }
    for (size_t i = 0; i < kPreloadRows; ++i) {
      preload.push_back(gen.Insert(true));
      preload.push_back(gen.Insert(false));
    }

    // Set-up: a fresh server, both views registered, the preload sent.
    session.server.Stop();
    const uint64_t s0 = NowNs();
    if (!OpenSession(a, &session, &r) || !SendBulk(&session, preload, &r)) {
      return r;
    }
    setup_s.push_back(SecondsSince(s0));
    model = Model();
    for (const WireDelta& d : preload) AddLive(&model, d);
    CheckFull(&session, model, "after preload", &r);
    if (a.trace) {
      replica = std::make_unique<Replica>();
      uint64_t ignore = 0;
      for (size_t i = 0; i < preload.size(); i += kPreloadBatch) {
        replica->Apply(
            std::vector<WireDelta>(
                preload.begin() + static_cast<ptrdiff_t>(i),
                preload.begin() + static_cast<ptrdiff_t>(
                                      std::min(preload.size(),
                                               i + kPreloadBatch))),
            &ignore, &ignore);
      }
    }

    // The timed closed loop: kRounds whole rounds.
    std::vector<double> apply_ns_per_delta;
    bool alias_live = false;
    std::vector<WireDelta> batch;
    const uint64_t cpu0 = ProcCpuNs(session.server.pid());
    const uint64_t deltas0 = deltas;
    const uint64_t t_begin = NowNs();
    for (size_t round = 0; round < kRounds && r.correct; ++round) {
      for (size_t pos = 0; pos < kRound && r.correct; ++pos) {
        ++r.attempted;
        std::string reply;
        if ((pos + 1) % kReadEvery == 0) {
          const int view = static_cast<int>((pos / kReadEvery) % 2);
          const uint64_t t0 = NowNs();
          if (!Call(session.client,
                    "ENUMERATE q" + std::to_string(view) + " " +
                        std::to_string(kLimit),
                    &reply, &r)) {
            break;
          }
          read_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
          if (reply == ExpectedReply(model, view, kLimit, false)) {
            // correct
          } else if (alias_live &&
                     reply == ExpectedReply(model, view, kLimit, true)) {
            ++r.failed;  // the value-collision fault, exactly as predicted
          } else {
            r.Fail("ENUMERATE q" + std::to_string(view) +
                   " reply differs: " + reply.substr(0, 200));
          }
          if (replica) {
            auto [n, ns] = replica->Enumerate(view);
            if (n > 0) {
              enum_delay_ns.push_back(static_cast<double>(ns) /
                                      static_cast<double>(n));
            }
          }
          continue;
        }
        batch.clear();
        if (pos == 0 || pos == kRound / 2) {
          // Alias rows stay out of the model's live rows, so the generator
          // never retracts them.
          for (WireDelta d : alias_rows) {
            if (pos != 0) d.m = -1;
            model.Apply(d.is_r, d.row, d.m);
            batch.push_back(d);
          }
          alias_live = pos == 0;
        }
        while (batch.size() < kBatch) batch.push_back(gen.Next(&model));
        const std::string text = BatchText(batch);
        const uint64_t t0 = NowNs();
        if (!Call(session.client, text, &reply, &r)) break;
        update_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
        if (reply != "OK deltas=8 routed=2") r.Fail("BATCH reply: " + reply);
        deltas += batch.size();
        ++batches;
        if (replica) {
          uint64_t merge_ns = 0, apply_ns = 0;
          const uint64_t h0 = rehashes->Value();
          CountAllocs(true);
          replica->Apply(batch, &merge_ns, &apply_ns);
          CountAllocs(false);
          rehash_count += rehashes->Value() - h0;
          merge_us.push_back(static_cast<double>(merge_ns) * 1e-3);
          apply_us.push_back(static_cast<double>(apply_ns) * 1e-3);
          apply_ns_per_delta.push_back(static_cast<double>(apply_ns) /
                                       static_cast<double>(batch.size()));
        }
      }
    }
    const double episode_s = SecondsSince(t_begin);
    const double episode_deltas = static_cast<double>(deltas - deltas0);
    episode_rate.push_back(episode_deltas / episode_s);
    episode_cpu_us.push_back(
        static_cast<double>(ProcCpuNs(session.server.pid()) - cpu0) * 1e-3 /
        episode_deltas);
    rss_mb.push_back(PeakRssMb(session.server.pid()));
    AddTenths(apply_ns_per_delta, &first_tenth, &last_tenth);
    if (!r.correct) return r;
    CheckFull(&session, model, "after the timed rounds", &r);

    if (a.trace && episodes == 0) {
      std::vector<double> pings;
      std::string reply;
      for (int i = 0; i < 2000; ++i) {
        const uint64_t t0 = NowNs();
        if (!Call(session.client, "PING", &reply, &r)) break;
        pings.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      }
      ping_us = Median(pings);
      for (int view = 0; view < 2; ++view) {
        if (!Call(session.client, "STATS q" + std::to_string(view), &reply,
                  &r)) {
          break;
        }
        engine_update_us += StatsP50Us(reply, "update_ns");
        engine_enum_us += StatsP50Us(reply, "enumerate_ns") / 2;
      }
    }
    session.server.Stop();

    // Recovery: the server keeps no state across a restart, so a client
    // restarts it, registers the views again and re-sends its live rows.
    std::vector<WireDelta> live;
    for (const Row& row : model.r_rows) live.push_back({true, row, 1});
    for (const Row& row : model.s_rows) live.push_back({false, row, 1});
    Session fresh;
    const uint64_t t0 = NowNs();
    if (!OpenSession(a, &fresh, &r) || !SendBulk(&fresh, live, &r)) break;
    recover_s.push_back(SecondsSince(t0));
    CheckFull(&fresh, model, "after restart", &r);
    ++episodes;
  }

  r.notes.push_back("wire episodes: " + std::to_string(episodes) +
                    ", live keys at the end: " +
                    std::to_string(model.live.size()));
  r.NoteUpdateP99(update_us);
  if (!a.trace) {
    r.Add("setup_s", Median(setup_s), "s");
    r.Add("update_p50_us", Percentile(update_us, 50), "us");
    r.Add("read_p50_us", Percentile(read_us, 50), "us");
    r.Add("deltas_per_s", InterquartileMean(episode_rate), "1/s");
    r.Add("cpu_us_per_delta", InterquartileMean(episode_cpu_us), "us");
    r.Add("peak_rss_mb", Median(rss_mb), "MiB");
    r.Add("recover_s", Median(recover_s), "s");
    return r;
  }

  std::vector<double> compile_us;
  for (int i = 0; i < 200; ++i) {
    incr::sql::SqlCatalog catalog;
    incr::VarRegistry v0, v1;
    const uint64_t t0 = NowNs();
    auto c0 = incr::sql::CompileSql(kSqlCount, &v0, &catalog);
    auto c1 = incr::sql::CompileSql(kSqlAvg, &v1, &catalog);
    compile_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
    if (!c0.ok() || !c1.ok()) r.Fail("CompileSql failed");
  }
  const AllocCounts ac = ReadAllocCounts();
  // Each request's batch is one ApplyBatch per view.
  const double tree_batches = 2.0 * static_cast<double>(batches);
  r.Add("serve.ping_us", ping_us, "us");
  r.Add("serve.engine_update_us", engine_update_us, "us");
  r.Add("serve.engine_enumerate_us", engine_enum_us, "us");
  // STATS p50s are power-of-two bucket midpoints, too coarse to subtract;
  // the replica's exact merge + apply time stands for the engine's share.
  std::vector<double> engine_us(merge_us.size());
  for (size_t i = 0; i < engine_us.size(); ++i) {
    engine_us[i] = merge_us[i] + apply_us[i];
  }
  r.Add("serve.overhead_us", Percentile(update_us, 50) - Median(engine_us),
        "us");
  r.Add("sql.compile_us", Median(compile_us), "us");
  r.Add("engines.merge_us", Median(merge_us), "us");
  r.Add("core.apply_us", Median(apply_us), "us");
  r.Add("core.first_tenth_ns_per_delta", Median(first_tenth), "ns");
  r.Add("core.last_tenth_ns_per_delta", Median(last_tenth), "ns");
  r.Add("core.enum_delay_ns", Median(enum_delay_ns), "ns");
  r.Add("core.state_mb",
        static_cast<double>(replica->StateBytes()) / (1 << 20), "MiB");
  r.Add("core.snapshot_clones",
        static_cast<double>(clones->Value() - clones0) / tree_batches,
        "1/batch");
  r.Add("core.snapshot_replays",
        static_cast<double>(replays->Value() - replays0) / tree_batches,
        "1/batch");
  r.Add("data.alloc_bytes_per_delta",
        static_cast<double>(ac.bytes) / static_cast<double>(deltas), "B");
  r.Add("data.allocs_per_delta",
        static_cast<double>(ac.allocs) / static_cast<double>(deltas),
        "count");
  r.Add("data.rehashes",
        static_cast<double>(rehash_count) * 1000.0 /
            static_cast<double>(deltas),
        "1/kdelta");
  return r;
}

}  // namespace perfbench
