// durable-paged: DurableEngine over a paged ViewTreeEngine whose state is at
// least kStateOverPool times its buffer pool, driven in process.
//
// Set-up (kSetups times, each in a fresh directory) grows the state with
// inserts and writes a first checkpoint. The timed phase is churn at fixed
// size in whole rounds: batches of kBatch deltas (half inserts, half
// retractions of live rows), a full enumeration every kEnumEvery batches
// and a Checkpoint() at the end of each round. After it comes a fixed WAL
// tail of kTailBatches batches; the engine is then closed and reopened
// (snapshot load plus WAL replay) kRecoveries times.
//
// The WAL runs with fsync off. Its directory and the spill files live in
// the run's work directory; the result notes whether that is a tmpfs.
#include <sys/stat.h>

#include <unordered_map>
#include <vector>

#include "common.h"
#include "incr/core/view_tree.h"
#include "incr/core/view_tree_plan.h"
#include "incr/data/page_store.h"
#include "incr/engines/durable_engine.h"
#include "incr/engines/engine.h"
#include "incr/obs/metrics.h"
#include "incr/ring/int_ring.h"
#include "incr/store/checkpoint.h"
#include "incr/store/recover.h"
#include "incr/store/serde.h"
#include "incr/store/wal.h"
#include "incr/util/rng.h"

namespace perfbench {
namespace {

using incr::Delta;
using incr::IntRing;
using incr::Tuple;

constexpr size_t kPageBytes = 4096;
constexpr size_t kPoolBytes = 3 << 20;
constexpr size_t kStateOverPool = 4;
constexpr int64_t kKeys = 1000;  // domain of the join variable a
constexpr size_t kGrowRows = 60000;
constexpr size_t kGrowBatch = 1000;
constexpr size_t kBatch = 64;
constexpr size_t kRoundBatches = 200;
constexpr size_t kEnumEvery = 50;
constexpr size_t kTailBatches = 300;
constexpr int kSetups = 9;
constexpr int kRecoveries = 11;

using Engine = incr::DurableEngine<IntRing>;
using Inner = incr::ViewTreeEngine<IntRing>;

/// Q(a, b) = R(a, b), S(a, c): q-hierarchical, output one tuple per
/// distinct R row whose a has S rows.
incr::Query PagedQuery() {
  return incr::Query("Q", incr::Schema{0, 1},
                     {incr::Atom{"R", incr::Schema{0, 1}},
                      incr::Atom{"S", incr::Schema{0, 2}}});
}

incr::StorageOptions Storage(const std::string& spill_dir) {
  incr::StorageOptions so;
  so.backend = incr::StorageBackend::kPaged;
  so.page_bytes = kPageBytes;
  so.buffer_pool_bytes = kPoolBytes;
  so.spill_dir = spill_dir;
  return so;
}

std::unique_ptr<Inner> MakeInner(const std::string& spill_dir) {
  auto vo = incr::EnumerableOrderFor(PagedQuery());
  INCR_CHECK(vo.ok());
  auto tree = incr::ViewTree<IntRing>::Make(PagedQuery(), *std::move(vo),
                                            Storage(spill_dir));
  INCR_CHECK(tree.ok());
  return std::make_unique<Inner>(*std::move(tree));
}

incr::EngineOptions Options(const std::string& dir) {
  incr::EngineOptions opts;
  opts.threads = 1;
  opts.obs = true;
  opts.durability_dir = dir;
  opts.fsync = false;
  return opts;
}

/// The generator's own view of R and S: live rows for retraction and the
/// counts the output must show.
struct Model {
  struct Rows {
    std::vector<Tuple> live;
  } r, s;
  std::unordered_map<int64_t, int64_t> r_per_a, s_per_a;
  std::unordered_map<uint64_t, int64_t> r_mult;  // (a, b) -> multiplicity
  std::unordered_map<int64_t, int64_t> r_distinct_per_a;
  int64_t out_tuples = 0;   // distinct R rows whose a has S rows
  int64_t out_payload = 0;  // sum over a of |R_a| * |S_a|

  static uint64_t Key(const Tuple& t) {
    return static_cast<uint64_t>(t[0]) * 1000003ull +
           static_cast<uint64_t>(t[1]);
  }

  void Apply(const Delta<IntRing>& d) {
    const int64_t a = d.tuple[0];
    const int64_t m = d.delta;
    int64_t& rs = r_per_a[a];
    int64_t& ss = s_per_a[a];
    int64_t& rd = r_distinct_per_a[a];
    out_payload -= rs * ss;
    if (ss != 0) out_tuples -= rd;
    if (d.relation == "R") {
      int64_t& mult = r_mult[Key(d.tuple)];
      if (mult == 0) ++rd;
      mult += m;
      if (mult == 0) --rd;
      rs += m;
    } else {
      ss += m;
    }
    out_payload += rs * ss;
    if (ss != 0) out_tuples += rd;
  }
};

class Generator {
 public:
  explicit Generator(uint64_t seed) : rng_(seed) {}

  Delta<IntRing> Insert(Model* m) {
    const bool is_r = rng_.Uniform(2) == 0;
    Tuple t{static_cast<int64_t>(rng_.Uniform(kKeys)),
            static_cast<int64_t>(rng_.Uniform(1000000))};
    (is_r ? m->r : m->s).live.push_back(t);
    Delta<IntRing> d{is_r ? "R" : "S", t, 1};
    m->Apply(d);
    return d;
  }

  Delta<IntRing> Retract(Model* m) {
    const bool is_r = rng_.Uniform(2) == 0;
    std::vector<Tuple>& live = (is_r ? m->r : m->s).live;
    const size_t i = rng_.Uniform(live.size());
    Delta<IntRing> d{is_r ? "R" : "S", live[i], -1};
    live[i] = live.back();
    live.pop_back();
    m->Apply(d);
    return d;
  }

  /// Churn at fixed size: half inserts, half retractions, interleaved.
  std::vector<Delta<IntRing>> ChurnBatch(Model* m) {
    std::vector<Delta<IntRing>> b;
    b.reserve(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      b.push_back(i % 2 == 0 ? Insert(m) : Retract(m));
    }
    return b;
  }

 private:
  incr::Rng rng_;
};

std::string Dump(incr::IvmEngine<IntRing>& e) {
  incr::store::ByteWriter w;
  INCR_CHECK(e.DumpState(w).ok());
  return w.Take();
}

struct Sum {
  int64_t tuples = 0;
  int64_t payload = 0;
};

Sum EnumerateSum(incr::IvmEngine<IntRing>& e) {
  Sum s;
  e.Enumerate([&](const Tuple&, const int64_t& p) {
    ++s.tuples;
    s.payload += p;
  });
  return s;
}

void CheckSum(const Sum& s, const Model& m, const std::string& when,
              Report* r) {
  if (s.tuples != m.out_tuples || s.payload != m.out_payload) {
    r->Fail(when + ": output " + std::to_string(s.tuples) + "/" +
            std::to_string(s.payload) + " != generator " +
            std::to_string(m.out_tuples) + "/" +
            std::to_string(m.out_payload));
  }
}

incr::PageStoreStats PagerStats(Inner* inner) {
  return inner->tree().page_store()->Stats();
}

double FileMb(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return 0;
  return static_cast<double>(st.st_size) / (1 << 20);
}

}  // namespace

Report RunDurable(const Args& a) {
  Report r;
  const std::string spill = a.work_dir + "/spill";
  r.notes.push_back("durable state dir: " + a.work_dir + " (" +
                    FsKind(a.work_dir) + "), fsync off");

  // Set-up, kSetups times in fresh directories: grow, then checkpoint.
  std::unique_ptr<Engine> engine;
  Inner* inner = nullptr;
  Model model;
  Generator gen(0);
  std::string dir;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    engine.reset();
    model = Model();
    gen = Generator(Mix(a.seed, 7));
    dir = a.work_dir + "/durable-" + std::to_string(i);
    std::vector<std::vector<Delta<IntRing>>> grow;
    for (size_t j = 0; j < kGrowRows; ++j) {
      if (j % kGrowBatch == 0) grow.emplace_back();
      grow.back().push_back(gen.Insert(&model));
    }
    const uint64_t t0 = NowNs();
    auto in = MakeInner(spill);
    inner = in.get();
    auto opened = Engine::Open(std::move(in), Options(dir));
    if (!opened.ok()) {
      r.Fail("DurableEngine::Open: " + opened.status().ToString());
      return r;
    }
    engine = *std::move(opened);
    for (const auto& b : grow) {
      engine->ApplyBatch(std::span<const Delta<IntRing>>(b));
    }
    incr::Status st = engine->Checkpoint();
    setup_s.push_back(SecondsSince(t0));
    if (!st.ok()) {
      r.Fail("Checkpoint: " + st.ToString());
      return r;
    }
  }
  const size_t state_bytes = inner->tree().StateBytes();
  if (state_bytes < kStateOverPool * kPoolBytes) {
    r.Fail("paged state " + std::to_string(state_bytes) +
           " B is below " + std::to_string(kStateOverPool) + "x the pool");
  }
  CheckSum(EnumerateSum(*engine), model, "after set-up", &r);

  // Traced runs feed a bare paged twin and a separate WAL the same batches,
  // to time merge, apply and append on their own.
  std::unique_ptr<incr::ViewTree<IntRing>> twin;
  std::unique_ptr<incr::store::Wal> twin_wal;
  if (a.trace) {
    auto t = incr::ViewTree<IntRing>::Make(
        PagedQuery(), *incr::EnumerableOrderFor(PagedQuery()),
        Storage(spill));
    INCR_CHECK(t.ok());
    twin = std::make_unique<incr::ViewTree<IntRing>>(*std::move(t));
    incr::store::ByteWriter w;
    INCR_CHECK(engine->DumpState(w).ok());
    const std::string bytes = w.Take();
    incr::store::ByteReader reader(bytes);
    INCR_CHECK(twin->LoadState(reader).ok());
    const std::string wal_dir = a.work_dir + "/twin-wal";
    INCR_CHECK(incr::store::EnsureDir(wal_dir).ok());
    incr::store::WalOptions wo;
    wo.fsync = false;
    auto wal = incr::store::Wal::Open(incr::store::WalPath(wal_dir),
                                      incr::store::RingSerdeName<IntRing>(),
                                      wo);
    INCR_CHECK(wal.ok());
    twin_wal = *std::move(wal);
  }

  std::vector<double> update_us, read_us, checkpoint_s;
  std::vector<double> merge_us, apply_us, append_us, apply_ns_per_delta;
  std::vector<double> enum_delay_ns;
  uint64_t deltas = 0, rehash_count = 0;
  size_t wal_bytes = 0;
  auto& registry = incr::obs::MetricsRegistry::Global();
  incr::obs::Counter* rehashes = registry.GetCounter("relation.rehashes");
  incr::store::ByteWriter enc;

  // Applies one batch to the engine (and, traced, to the twin and its WAL).
  auto apply = [&](const std::vector<Delta<IntRing>>& b) {
    std::span<const Delta<IntRing>> batch(b);
    const uint64_t h0 = a.trace ? rehashes->Value() : 0;
    if (a.trace) CountAllocs(true);
    const uint64_t t0 = NowNs();
    engine->ApplyBatch(batch);
    const uint64_t t1 = NowNs();
    if (a.trace) {
      CountAllocs(false);
      rehash_count += rehashes->Value() - h0;
    }
    update_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    deltas += b.size();
    if (!a.trace) return;
    const uint64_t w0 = NowNs();
    enc.Clear();
    incr::store::EncodeBatchPayload<IntRing>(enc, batch);
    const size_t before = twin_wal->SizeBytes();
    twin_wal->Append(incr::store::WalRecordType::kBatch, enc.data());
    const uint64_t w1 = NowNs();
    wal_bytes += twin_wal->SizeBytes() - before;
    auto merged = incr::MergeNamedBatch(*twin, batch);
    const uint64_t m1 = NowNs();
    twin->ApplyBatch(merged);
    const uint64_t m2 = NowNs();
    append_us.push_back(static_cast<double>(w1 - w0) * 1e-3);
    merge_us.push_back(static_cast<double>(m1 - w1) * 1e-3);
    apply_us.push_back(static_cast<double>(m2 - m1) * 1e-3);
    apply_ns_per_delta.push_back(static_cast<double>(m2 - m1) /
                                 static_cast<double>(b.size()));
  };

  // Timed churn, in whole rounds. Throughput and CPU cost are taken per
  // round over its batches and enumerations, and reported as the
  // interquartile mean over rounds, so a burst of load from elsewhere on
  // the host moves a few rounds rather than the run's figure. The round's
  // Checkpoint() is left out of both: its snapshot fsync waits on the disk,
  // and store.checkpoint_s reports it on its own.
  const incr::PageStoreStats pager0 = PagerStats(inner);
  std::vector<double> round_rate, round_cpu_us;
  const uint64_t run_t0 = NowNs();
  size_t rounds = 0;
  while (r.correct && (rounds == 0 || SecondsSince(run_t0) < a.seconds)) {
    const uint64_t round_t0 = NowNs();
    const uint64_t cpu0 = SelfCpuNs();
    for (size_t i = 1; i <= kRoundBatches; ++i) {
      apply(gen.ChurnBatch(&model));
      ++r.attempted;
      if (i % kEnumEvery == 0) {
        const uint64_t t0 = NowNs();
        Sum s = EnumerateSum(*engine);
        const uint64_t ns = NowNs() - t0;
        read_us.push_back(static_cast<double>(ns) * 1e-3);
        if (s.tuples > 0) {
          enum_delay_ns.push_back(static_cast<double>(ns) /
                                  static_cast<double>(s.tuples));
        }
        CheckSum(s, model, "churn enumeration", &r);
        ++r.attempted;
      }
    }
    const double round_deltas = static_cast<double>(kRoundBatches * kBatch);
    round_rate.push_back(round_deltas / SecondsSince(round_t0));
    round_cpu_us.push_back(static_cast<double>(SelfCpuNs() - cpu0) * 1e-3 /
                           round_deltas);
    const uint64_t t0 = NowNs();
    incr::Status st = engine->Checkpoint();
    checkpoint_s.push_back(SecondsSince(t0));
    ++r.attempted;
    if (!st.ok()) r.Fail("Checkpoint: " + st.ToString());
    ++rounds;
  }
  const incr::PageStoreStats pager1 = PagerStats(inner);
  const double rss_mb = PeakRssMb();
  if (pager1.evictions == pager0.evictions) {
    r.Fail("no pager evictions during churn: the pool is not undersized");
  }

  // Fixed WAL tail after the last checkpoint, then close.
  for (size_t i = 0; i < kTailBatches; ++i) apply(gen.ChurnBatch(&model));
  r.attempted += kTailBatches;
  const double state_mb = static_cast<double>(inner->tree().StateBytes()) /
                          (1 << 20);
  const std::string before = Dump(*engine);
  engine.reset();
  inner = nullptr;

  // Recovery: reopen (snapshot + WAL tail) into a fresh paged engine.
  std::vector<double> recover_s;
  for (int i = 0; i < kRecoveries; ++i) {
    auto in = MakeInner(spill);
    const uint64_t t0 = NowNs();
    auto reopened = Engine::Open(std::move(in), Options(dir));
    recover_s.push_back(SecondsSince(t0));
    if (!reopened.ok()) {
      r.Fail("reopen: " + reopened.status().ToString());
      break;
    }
    if (Dump(**reopened) != before) {
      r.Fail("DumpState after reopen differs from the dump before close");
    }
    CheckSum(EnumerateSum(**reopened), model, "after reopen", &r);
  }

  r.notes.push_back("durable rounds: " + std::to_string(rounds) +
                    ", state/pool: " +
                    std::to_string(static_cast<double>(state_bytes) /
                                   kPoolBytes) +
                    ", evictions: " +
                    std::to_string(pager1.evictions - pager0.evictions));
  r.NoteUpdateP99(update_us);
  if (!a.trace) {
    r.Add("setup_s", Median(setup_s), "s");
    r.Add("update_p50_us", Percentile(update_us, 50), "us");
    r.Add("read_p50_us", Percentile(read_us, 50), "us");
    r.Add("deltas_per_s", InterquartileMean(round_rate), "1/s");
    r.Add("cpu_us_per_delta", InterquartileMean(round_cpu_us), "us");
    r.Add("peak_rss_mb", rss_mb, "MiB");
    r.Add("recover_s", Median(recover_s), "s");
    return r;
  }

  // The two halves of recovery through the public store functions.
  std::vector<double> load_s, replay_s;
  for (int i = 0; i < kRecoveries; ++i) {
    auto fresh = MakeInner(spill);
    const uint64_t t0 = NowNs();
    auto snap = incr::store::ReadSnapshotFile(incr::store::SnapshotPath(dir));
    INCR_CHECK(snap.ok());
    incr::store::ByteReader reader(snap->state);
    INCR_CHECK(fresh->LoadState(reader).ok());
    const uint64_t t1 = NowNs();
    auto scan = incr::store::ScanWal(incr::store::WalPath(dir));
    INCR_CHECK(scan.ok());
    incr::store::RecoveryInfo info;
    INCR_CHECK((incr::store::ReplayWal<IntRing>(*scan, snap->lsn, fresh.get(),
                                                &info)
                    .ok()));
    const uint64_t t2 = NowNs();
    load_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    replay_s.push_back(static_cast<double>(t2 - t1) * 1e-9);
    if (Dump(*fresh) != before) r.Fail("manual recovery differs");
  }
  std::vector<double> first, last;
  AddTenths(apply_ns_per_delta, &first, &last);
  const AllocCounts ac = ReadAllocCounts();
  const double n = static_cast<double>(deltas);
  const double hits = static_cast<double>(pager1.hits - pager0.hits);
  const double misses = static_cast<double>(pager1.misses - pager0.misses);
  const double timed = static_cast<double>(deltas - kTailBatches * kBatch);
  r.Add("engines.merge_us", Median(merge_us), "us");
  r.Add("core.apply_us", Median(apply_us), "us");
  r.Add("core.first_tenth_ns_per_delta", Median(first), "ns");
  r.Add("core.last_tenth_ns_per_delta", Median(last), "ns");
  r.Add("core.enum_delay_ns", Median(enum_delay_ns), "ns");
  r.Add("core.state_mb", state_mb, "MiB");
  r.Add("data.alloc_bytes_per_delta", static_cast<double>(ac.bytes) / n, "B");
  r.Add("data.allocs_per_delta", static_cast<double>(ac.allocs) / n, "count");
  r.Add("data.rehashes", static_cast<double>(rehash_count) * 1000.0 / n,
        "1/kdelta");
  r.Add("data.pager_hit_ratio", hits / (hits + misses), "ratio");
  r.Add("data.pager_evictions_per_delta",
        static_cast<double>(pager1.evictions - pager0.evictions) / timed,
        "count");
  r.Add("data.pager_writebacks_per_delta",
        static_cast<double>(pager1.writebacks - pager0.writebacks) / timed,
        "count");
  r.Add("store.append_us", Median(append_us), "us");
  r.Add("store.wal_bytes_per_delta", static_cast<double>(wal_bytes) / n, "B");
  r.Add("store.checkpoint_s", Median(checkpoint_s), "s");
  r.Add("store.snapshot_mb", FileMb(incr::store::SnapshotPath(dir)), "MiB");
  r.Add("store.snapshot_load_s", Median(load_s), "s");
  r.Add("store.replay_s", Median(replay_s), "s");
  return r;
}

}  // namespace perfbench
