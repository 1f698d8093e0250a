// retailer-grow: the paper's Fig. 4 retailer join on the eager-fact (F-IVM)
// engine, one engine thread, heap storage, driven in process through
// IvmEngine::ApplyBatch / Enumerate.
//
// A run is a sequence of whole episodes until --seconds have passed. Each
// episode builds a fresh engine, preloads the dimension tables and a base of
// Inventory facts (the set-up), then streams Inventory inserts in batches of
// kBatch with a full-output enumeration every kEnumEvery batches until
// Inventory has grown kGrowth-fold. The O(1)-insert claim (Thm 4.1 and the
// F-IVM order) says the time per insert stays flat while it grows.
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common.h"
#include "incr/core/view_tree.h"
#include "incr/engines/engine.h"
#include "incr/engines/strategies.h"
#include "incr/obs/metrics.h"
#include "incr/ring/int_ring.h"
#include "incr/store/serde.h"
#include "incr/workload/retailer.h"

namespace perfbench {
namespace {

using incr::Delta;
using incr::IntRing;
using incr::RetailerWorkload;
using incr::Tuple;

constexpr int64_t kLocations = 500;
constexpr int64_t kDates = 50;
constexpr int64_t kItems = 2000;
constexpr size_t kBatch = 1000;
constexpr size_t kPreloadBatches = 3;  // Inventory base: 3k inserts
constexpr size_t kGrowBatches = 30;    // stream: 30k inserts, ~11x base
constexpr size_t kEnumEvery = 5;
constexpr size_t kGrowth = 10;  // required Inventory growth over the base

using Engine = incr::EagerFactStrategy<IntRing>;

uint64_t Pack(int64_t l, int64_t d, int64_t k) {
  return (static_cast<uint64_t>(l) * kDates + static_cast<uint64_t>(d)) *
             kItems +
         static_cast<uint64_t>(k);
}

/// The generator's own copy of the five tables, joined by hashing; it never
/// reads engine state.
struct Reference {
  std::unordered_map<int64_t, int64_t> zip_of;  // Location
  std::unordered_set<int64_t> census;
  std::unordered_set<int64_t> items;
  std::unordered_set<int64_t> weather;  // l * kDates + d
  std::unordered_map<uint64_t, int64_t> inventory;
  int64_t out_tuples = 0;   // distinct joined output tuples
  int64_t out_payload = 0;  // sum of output multiplicities

  bool Joins(int64_t l, int64_t d, int64_t k) const {
    auto z = zip_of.find(l);
    return z != zip_of.end() && census.count(z->second) > 0 &&
           items.count(k) > 0 && weather.count(l * kDates + d) > 0;
  }

  void InsertInventory(const Tuple& t) {
    int64_t& m = inventory[Pack(t[0], t[1], t[2])];
    if (Joins(t[0], t[1], t[2])) {
      if (m == 0) ++out_tuples;
      ++out_payload;
    }
    ++m;
  }
};

/// One episode's inputs: the dimension rows (a seed-chosen ~10% of Weather
/// and ~5% of Item rows left out, so the join drops facts) and the
/// Inventory stream, all drawn before anything is timed.
struct EpisodeInput {
  std::vector<std::vector<Delta<IntRing>>> dim_batches;
  std::vector<std::vector<Delta<IntRing>>> preload;
  std::vector<std::vector<Delta<IntRing>>> stream;
  Reference ref;
};

void AddDelta(std::vector<std::vector<Delta<IntRing>>>* batches,
              const char* rel, const Tuple& t) {
  if (batches->empty() || batches->back().size() == kBatch) {
    batches->emplace_back();
    batches->back().reserve(kBatch);
  }
  batches->back().push_back(Delta<IntRing>{rel, t, 1});
}

EpisodeInput MakeEpisode(uint64_t seed) {
  RetailerWorkload wl(kLocations, kDates, kItems, seed);
  EpisodeInput in;
  for (const Tuple& t : wl.locations()) {
    AddDelta(&in.dim_batches, "Location", t);
    in.ref.zip_of[t[0]] = t[1];
  }
  for (const Tuple& t : wl.censuses()) {
    AddDelta(&in.dim_batches, "Census", t);
    in.ref.census.insert(t[0]);
  }
  for (const Tuple& t : wl.items()) {
    if (Mix(seed, static_cast<uint64_t>(t[0])) % 20 == 0) continue;
    AddDelta(&in.dim_batches, "Item", t);
    in.ref.items.insert(t[0]);
  }
  for (const Tuple& t : wl.weathers()) {
    const int64_t key = t[0] * kDates + t[1];
    if (Mix(seed + 1, static_cast<uint64_t>(key)) % 10 == 0) continue;
    AddDelta(&in.dim_batches, "Weather", t);
    in.ref.weather.insert(key);
  }
  for (size_t i = 0; i < kPreloadBatches * kBatch; ++i) {
    AddDelta(&in.preload, "Inventory", wl.NextInventoryInsert());
  }
  for (size_t i = 0; i < kGrowBatches * kBatch; ++i) {
    AddDelta(&in.stream, "Inventory", wl.NextInventoryInsert());
  }
  return in;
}

/// The query and F-IVM order, which do not depend on the seed.
const RetailerWorkload& Shape() {
  static const RetailerWorkload wl(kLocations, kDates, kItems, 0);
  return wl;
}

std::unique_ptr<Engine> MakeEngine(size_t threads, bool obs) {
  auto tree = incr::ViewTree<IntRing>::Make(Shape().query(), Shape().Order());
  INCR_CHECK(tree.ok());
  incr::EngineOptions opts;
  opts.threads = threads;
  opts.obs = obs;
  return std::make_unique<Engine>(*std::move(tree), opts);
}

/// Compares every output tuple of `engine` with the reference hash join.
bool CheckFullOutput(Engine& engine, const Reference& ref, std::string* why) {
  const incr::Schema schema = engine.tree().OutputSchema();
  int pos[4] = {-1, -1, -1, -1};
  for (size_t i = 0; i < schema.size(); ++i) {
    pos[static_cast<size_t>(schema[i])] = static_cast<int>(i);
  }
  std::unordered_map<uint64_t, int64_t> expected;
  for (const auto& [key, m] : ref.inventory) {
    const int64_t k = static_cast<int64_t>(key % kItems);
    const int64_t d = static_cast<int64_t>(key / kItems % kDates);
    const int64_t l = static_cast<int64_t>(key / kItems / kDates);
    if (ref.Joins(l, d, k)) expected[key] = m;
  }
  size_t seen = 0;
  bool ok = true;
  engine.Enumerate([&](const Tuple& t, const int64_t& p) {
    ++seen;
    const int64_t l = t[pos[RetailerWorkload::kLocn]];
    const int64_t d = t[pos[RetailerWorkload::kDate]];
    const int64_t k = t[pos[RetailerWorkload::kKsn]];
    const int64_t z = t[pos[RetailerWorkload::kZip]];
    auto it = expected.find(Pack(l, d, k));
    auto zip = ref.zip_of.find(l);
    if (it == expected.end() || it->second != p || zip == ref.zip_of.end() ||
        zip->second != z) {
      ok = false;
    }
  });
  if (!ok || seen != expected.size()) {
    *why = "retailer output differs from the reference hash join (" +
           std::to_string(seen) + " tuples, expected " +
           std::to_string(expected.size()) + ")";
    return false;
  }
  return true;
}

struct Sum {
  size_t tuples = 0;
  int64_t payload = 0;
};

Sum EnumerateSum(Engine& engine) {
  Sum s;
  engine.Enumerate([&](const Tuple&, const int64_t& p) {
    ++s.tuples;
    s.payload += p;
  });
  return s;
}

/// Layer probes of a traced run, fed the same batches as the engine.
struct Trace {
  std::unique_ptr<incr::ViewTree<IntRing>> twin;  // bare tree
  std::vector<double> merge_us, apply_us, enum_delay_ns, state_mb;
  std::vector<double> first_tenth, last_tenth;  // ns/delta per episode
  uint64_t rehashes = 0;
};

/// Streams one episode's Inventory batches into `engine` with a bare
/// ApplyBatch loop and no enumerations; returns seconds spent applying.
double StreamOnly(Engine& engine, const EpisodeInput& in) {
  uint64_t busy = 0;
  for (const auto& b : in.stream) {
    const uint64_t t0 = NowNs();
    engine.ApplyBatch(std::span<const Delta<IntRing>>(b));
    busy += NowNs() - t0;
  }
  return static_cast<double>(busy) * 1e-9;
}

void Preload(Engine& engine, const EpisodeInput& in) {
  for (const auto& b : in.dim_batches) {
    engine.ApplyBatch(std::span<const Delta<IntRing>>(b));
  }
  for (const auto& b : in.preload) {
    engine.ApplyBatch(std::span<const Delta<IntRing>>(b));
  }
}

}  // namespace

Report RunRetailer(const Args& a) {
  Report r;
  std::vector<double> setup_s, update_us, read_us;
  // Throughput and CPU cost are taken per episode and reported as the
  // interquartile mean over episodes, so a burst of load from elsewhere on
  // the host moves a few episodes rather than the run's figure.
  std::vector<double> episode_rate, episode_cpu_us;
  uint64_t deltas = 0;
  std::vector<double> recover_s;
  Trace tr;
  auto& registry = incr::obs::MetricsRegistry::Global();
  incr::obs::Counter* rehash_counter = registry.GetCounter("relation.rehashes");

  const uint64_t run_t0 = NowNs();
  for (uint64_t episode = 0;
       episode == 0 || SecondsSince(run_t0) < a.seconds; ++episode) {
    EpisodeInput in = MakeEpisode(Mix(a.seed, episode));

    // Set-up: a fresh engine with dimensions and the Inventory base.
    const uint64_t s0 = NowNs();
    auto engine = MakeEngine(/*threads=*/1, /*obs=*/true);
    Preload(*engine, in);
    setup_s.push_back(SecondsSince(s0));
    const size_t base =
        engine->tree().AtomRelation(RetailerWorkload::kInventory).size();
    for (const auto& b : in.preload) {
      for (const auto& d : b) in.ref.InsertInventory(d.tuple);
    }
    if (a.trace) {
      auto twin =
          incr::ViewTree<IntRing>::Make(Shape().query(), Shape().Order());
      INCR_CHECK(twin.ok());
      tr.twin = std::make_unique<incr::ViewTree<IntRing>>(*std::move(twin));
      for (const auto* group : {&in.dim_batches, &in.preload}) {
        for (const auto& b : *group) {
          tr.twin->ApplyBatch(incr::MergeNamedBatch(
              *tr.twin, std::span<const Delta<IntRing>>(b)));
        }
      }
    }

    // Timed stream.
    std::vector<double> twin_ns_per_delta;
    uint64_t stream_ns = 0;
    const uint64_t cpu0 = SelfCpuNs();
    for (size_t i = 0; i < in.stream.size(); ++i) {
      std::span<const Delta<IntRing>> batch(in.stream[i]);
      const uint64_t h0 = a.trace ? rehash_counter->Value() : 0;
      if (a.trace) CountAllocs(true);
      const uint64_t t0 = NowNs();
      engine->ApplyBatch(batch);
      const uint64_t t1 = NowNs();
      if (a.trace) {
        CountAllocs(false);
        tr.rehashes += rehash_counter->Value() - h0;
      }
      stream_ns += t1 - t0;
      update_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      deltas += batch.size();
      for (const auto& d : batch) in.ref.InsertInventory(d.tuple);
      if (a.trace) {
        const uint64_t m0 = NowNs();
        incr::DeltaBatch<IntRing> merged =
            incr::MergeNamedBatch(*tr.twin, batch);
        const uint64_t m1 = NowNs();
        tr.twin->ApplyBatch(merged);
        const uint64_t m2 = NowNs();
        tr.merge_us.push_back(static_cast<double>(m1 - m0) * 1e-3);
        tr.apply_us.push_back(static_cast<double>(m2 - m1) * 1e-3);
        twin_ns_per_delta.push_back(static_cast<double>(m2 - m1) /
                                    static_cast<double>(batch.size()));
      }
      if ((i + 1) % kEnumEvery == 0) {
        const uint64_t e0 = NowNs();
        Sum s = EnumerateSum(*engine);
        const uint64_t e1 = NowNs();
        stream_ns += e1 - e0;
        read_us.push_back(static_cast<double>(e1 - e0) * 1e-3);
        if (s.tuples > 0) {
          tr.enum_delay_ns.push_back(static_cast<double>(e1 - e0) /
                                     static_cast<double>(s.tuples));
        }
        if (static_cast<int64_t>(s.tuples) != in.ref.out_tuples ||
            s.payload != in.ref.out_payload) {
          r.Fail("retailer enumeration " + std::to_string(s.tuples) + "/" +
                 std::to_string(s.payload) + " != reference " +
                 std::to_string(in.ref.out_tuples) + "/" +
                 std::to_string(in.ref.out_payload));
        }
      }
    }
    const double episode_deltas = static_cast<double>(kGrowBatches * kBatch);
    episode_rate.push_back(episode_deltas /
                           (static_cast<double>(stream_ns) * 1e-9));
    episode_cpu_us.push_back(static_cast<double>(SelfCpuNs() - cpu0) * 1e-3 /
                             episode_deltas);
    r.attempted += in.stream.size() + in.stream.size() / kEnumEvery;

    // Episode checks (untimed): growth precondition and the full join.
    const size_t grown =
        engine->tree().AtomRelation(RetailerWorkload::kInventory).size();
    if (grown < kGrowth * base) {
      r.Fail("Inventory grew " + std::to_string(grown) + "/" +
             std::to_string(base) + ", below the required " +
             std::to_string(kGrowth) + "x");
    }
    std::string why;
    if (!CheckFullOutput(*engine, in.ref, &why)) r.Fail(why);
    if (a.trace) {
      tr.state_mb.push_back(static_cast<double>(engine->tree().StateBytes()) /
                            (1 << 20));
      AddTenths(twin_ns_per_delta, &tr.first_tenth, &tr.last_tenth);
    }

    // Recovery sample, one per episode: restore this episode's engine from
    // its serialized state into a fresh engine (the heap engine's
    // checkpoint-restore path) and check it against the hash join.
    incr::store::ByteWriter dump;
    INCR_CHECK(engine->DumpState(dump).ok());
    const std::string bytes = dump.Take();
    engine.reset();
    const uint64_t t0 = NowNs();
    auto fresh = MakeEngine(1, true);
    incr::store::ByteReader reader(bytes);
    incr::Status st = fresh->LoadState(reader);
    recover_s.push_back(SecondsSince(t0));
    if (!st.ok()) {
      r.Fail("retailer LoadState: " + st.ToString());
    } else if (!CheckFullOutput(*fresh, in.ref, &why)) {
      r.Fail("after restore: " + why);
    }
  }

  r.notes.push_back("retailer episodes: " + std::to_string(setup_s.size()) +
                    ", stream batches: " + std::to_string(update_us.size()));
  r.NoteUpdateP99(update_us);
  if (!a.trace) {
    r.Add("setup_s", Median(setup_s), "s");
    r.Add("update_p50_us", Percentile(update_us, 50), "us");
    r.Add("read_p50_us", Percentile(read_us, 50), "us");
    r.Add("deltas_per_s", InterquartileMean(episode_rate), "1/s");
    r.Add("cpu_us_per_delta", InterquartileMean(episode_cpu_us), "us");
    r.Add("peak_rss_mb", PeakRssMb(), "MiB");
    r.Add("recover_s", Median(recover_s), "s");
    return r;
  }

  const double kdeltas = static_cast<double>(deltas) / 1000.0;
  const AllocCounts ac = ReadAllocCounts();
  r.Add("engines.merge_us", Median(tr.merge_us), "us");
  r.Add("core.apply_us", Median(tr.apply_us), "us");
  r.Add("core.first_tenth_ns_per_delta", Median(tr.first_tenth), "ns");
  r.Add("core.last_tenth_ns_per_delta", Median(tr.last_tenth), "ns");
  r.Add("core.enum_delay_ns", Median(tr.enum_delay_ns), "ns");
  r.Add("core.state_mb", Median(tr.state_mb), "MiB");
  r.Add("data.alloc_bytes_per_delta",
        static_cast<double>(ac.bytes) / static_cast<double>(deltas), "B");
  r.Add("data.allocs_per_delta",
        static_cast<double>(ac.allocs) / static_cast<double>(deltas), "count");
  r.Add("data.rehashes", static_cast<double>(tr.rehashes) / kdeltas,
        "1/kdelta");

  // Reference figures (ungated): the same episode streamed with obs off
  // against obs on, and at threads = nproc against one thread. Each pair
  // alternates order over two rounds and keeps the faster time per side.
  EpisodeInput ref_in = MakeEpisode(Mix(a.seed, 1u << 20));
  auto timed = [&](size_t threads, bool obs) {
    auto engine = MakeEngine(threads, obs);
    Preload(*engine, ref_in);
    const double s = StreamOnly(*engine, ref_in);
    incr::obs::SetEnabled(true);
    return s;
  };
  const size_t nproc =
      std::max<size_t>(1, std::thread::hardware_concurrency());
  double on = 1e30, off = 1e30, one = 1e30, many = 1e30;
  for (int round = 0; round < 2; ++round) {
    if (round == 0) {
      on = std::min(on, timed(1, true));
      off = std::min(off, timed(1, false));
      one = std::min(one, timed(1, true));
      many = std::min(many, timed(nproc, true));
    } else {
      off = std::min(off, timed(1, false));
      on = std::min(on, timed(1, true));
      many = std::min(many, timed(nproc, true));
      one = std::min(one, timed(1, true));
    }
  }
  r.Add("obs.off_on_ratio", on / off, "ratio");
  r.Add("util.pool_speedup", one / many, "ratio");
  r.notes.push_back("nproc: " + std::to_string(nproc));
  return r;
}

}  // namespace perfbench
