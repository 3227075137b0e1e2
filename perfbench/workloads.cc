#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <utility>

#include "bench/bench_common.h"
#include "core/multimap.h"
#include "dataset/olap.h"
#include "disk/fault.h"
#include "disk/spec.h"
#include "lvm/cluster.h"
#include "lvm/volume.h"
#include "mapping/naive.h"
#include "query/cluster_session.h"
#include "query/executor.h"
#include "query/query.h"
#include "store/bulk_loader.h"
#include "store/cell_index.h"
#include "store/store_volume.h"
#include "util/rng.h"

namespace perfbench {

using namespace mm;

namespace {

// --- Fixed workload parameters ------------------------------------------
// Query counts are per pass. Each pass completes at least 1200 queries,
// so p99 leaves at least 12 samples beyond it. Arrival rates are fixed
// per workload and sit below saturation (disk.utilization shows the
// headroom); rate sweeps belong in bench/openloop_latency.
constexpr size_t kPaperBeamsQueries = 3600;
constexpr double kPaperBeamsRateQps = 1.5;
constexpr size_t kSkewedQueries = 32000;
constexpr double kSkewedRateQps = 60.0;
constexpr size_t kClusterQueries = 6000;
constexpr double kClusterRateQps = 20.0;
constexpr size_t kOlapQueries = 1200;
constexpr uint64_t kOlapRows = 20000;

// Traced runs sample queries by id so the export stays small; the ring is
// sized so nothing is dropped at this sampling.
constexpr size_t kTracedQueries = 32;
constexpr size_t kTraceCapacity = size_t{1} << 22;

// Timed repeats of each host-timed layer loop (the median is reported).
constexpr int kLayerReps = 5;

template <typename T>
T Unwrap(Result<T> r, const std::string& what) {
  if (!r.ok()) Fail(what + ": " + r.status().ToString());
  return std::move(r).value();
}

void Ok(const Status& s, const std::string& what) {
  if (!s.ok()) Fail(what + ": " + s.ToString());
}

size_t Scaled(size_t n, double scale) {
  return std::max<size_t>(
      40, static_cast<size_t>(std::llround(static_cast<double>(n) * scale)));
}

// Independent streams per purpose from one seed (splitmix64 finalizer).
uint64_t SubSeed(uint64_t seed, uint64_t purpose) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (purpose + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t DigestBoxes(uint64_t h, const std::vector<map::Box>& boxes,
                     uint32_t ndims) {
  for (const map::Box& b : boxes) {
    for (uint32_t d = 0; d < ndims; ++d) h = Fnv(Fnv(h, b.lo[d]), b.hi[d]);
  }
  return h;
}

void AddDiskStats(disk::DiskStats* acc, const disk::DiskStats& s) {
  acc->requests += s.requests;
  acc->sectors += s.sectors;
  acc->phases += s.phases;
  acc->buffer_hits += s.buffer_hits;
  acc->buffered_sectors += s.buffered_sectors;
  acc->order_holds += s.order_holds;
  acc->aged_picks += s.aged_picks;
  acc->media_errors += s.media_errors;
  acc->io_timeouts += s.io_timeouts;
  acc->failed_fast += s.failed_fast;
  acc->slow_penalty_ms += s.slow_penalty_ms;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

template <typename F>
double MedianSeconds(int reps, F&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = NowSec();
    fn();
    t.push_back(NowSec() - t0);
  }
  return Median(std::move(t));
}

// Every query completes or fails exactly once.
void CheckCompletions(const PassResult& r, const char* workload) {
  const std::string w = workload;
  Check(r.completions.size() == r.queries,
        w + ": " + std::to_string(r.completions.size()) +
            " completion records for " + std::to_string(r.queries) +
            " queries");
  std::vector<uint8_t> seen(r.queries, 0);
  for (const query::QueryCompletion& c : r.completions) {
    Check(c.query < r.queries && !seen[c.query],
          w + ": query " + std::to_string(c.query) +
              " completed twice or is unknown");
    seen[c.query] = 1;
    Check(c.failed || c.finish_ms >= c.arrival_ms,
          w + ": query finished before it arrived");
  }
  Check(r.stats.count() + r.stats.failed == r.queries,
        w + ": completed + failed != attempted");
}

// Host time of Disk::Submit + ServiceNextQueued over per-member-disk
// request streams (arrival-ordered), on fresh disks of the members' specs
// and queue policy. Returns the median seconds per replay.
struct DiskStream {
  const disk::DiskSpec* spec = nullptr;
  std::vector<std::pair<double, disk::IoRequest>> requests;
};

double ReplayDisks(std::vector<DiskStream>* streams,
                   const disk::BatchOptions& queue) {
  std::vector<std::unique_ptr<disk::Disk>> disks;
  for (DiskStream& s : *streams) {
    std::stable_sort(
        s.requests.begin(), s.requests.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    disks.push_back(std::make_unique<disk::Disk>(*s.spec));
    disks.back()->ConfigureQueue(queue);
  }
  return MedianSeconds(kLayerReps, [&] {
    for (size_t d = 0; d < disks.size(); ++d) {
      disk::Disk& dk = *disks[d];
      dk.Reset();
      for (const auto& [at, req] : (*streams)[d].requests) dk.Submit(req, at);
      while (!dk.QueueIdle()) {
        auto ev = dk.ServiceNextQueued();
        if (!ev.ok()) Fail("disk replay: " + ev.status().ToString());
      }
    }
  });
}

// Trace options sampling about kTracedQueries of n queries. The period
// is odd and not a multiple of 5, so the sample cycles through every
// query kind of the workloads' 4-, 5-, 8- and 10-query mixes.
obs::TraceOptions SampledTrace(size_t n) {
  obs::TraceOptions topt;
  topt.capacity = kTraceCapacity;
  topt.sample_period = std::max<uint64_t>(1, n / kTracedQueries) | 1;
  if (topt.sample_period % 5 == 0) topt.sample_period += 2;
  return topt;
}

// Queue-wait spans ("disk"/"queue") of a traced run, mean ms per request.
double MeanQueueWaitMs(const obs::TraceSink& sink) {
  double sum = 0;
  uint64_t n = 0;
  for (const obs::TraceEvent& ev : sink.Events()) {
    if (ev.kind == obs::EventKind::kSpan && std::strcmp(ev.cat, "disk") == 0 &&
        std::strcmp(ev.name, "queue") == 0) {
      sum += ev.dur_ms;
      ++n;
    }
  }
  return Ratio(sum, static_cast<double>(n));
}

// Per-layer metrics every workload derives the same way from its first
// pass: disk mechanics, simulator events, cache and fault accounting.
void CommonExactLayers(const PassResult& first, LayerReport* out) {
  const double n = static_cast<double>(first.queries);
  const disk::DiskStats& d = first.disk;
  const double reqs = static_cast<double>(d.requests);
  out->Set("disk.seek_ms_per_request", Ratio(d.phases.seek_ms, reqs));
  out->Set("disk.rot_ms_per_request", Ratio(d.phases.rot_ms, reqs));
  out->Set("disk.xfer_ms_per_request", Ratio(d.phases.xfer_ms, reqs));
  out->Set("disk.utilization",
           Ratio(d.phases.Total() + d.slow_penalty_ms,
                 static_cast<double>(first.disks) * first.stats.makespan_ms));
  out->Set("disk.buffer_hit_ratio",
           Ratio(static_cast<double>(d.buffer_hits), reqs));
  out->Set("disk.order_holds_per_request",
           Ratio(static_cast<double>(d.order_holds), reqs));
  out->Set("sim.events_per_query", Ratio(static_cast<double>(first.events), n));
  const cache::BufferPoolStats& p = first.pool;
  out->Set("cache.hit_ratio", p.HitRate());
  out->Set("cache.evictions_per_query",
           Ratio(static_cast<double>(p.evictions), n));
  out->Set("cache.resident_sector_ratio",
           Ratio(static_cast<double>(first.stats.resident_sectors),
                 static_cast<double>(first.stats.resident_sectors +
                                     first.stats.submitted_sectors)));
  out->Set("lvm.retries_per_query",
           Ratio(static_cast<double>(first.stats.retries), n));
  out->Set("lvm.redirects_per_query",
           Ratio(static_cast<double>(first.stats.redirects), n));
  out->Set("lvm.rebuild_ms", first.rebuild_ms);
  out->Set("lvm.rebuild_chunks", static_cast<double>(first.rebuild_chunks));
  out->Set("failed_frac", Ratio(static_cast<double>(first.stats.failed), n));
}

// Planning counts and host time on a fresh, unfiltered executor.
void PlanLayers(lvm::Volume* volume, const map::Mapping* mapping,
                const std::vector<map::Box>& boxes, HostTracer* tracer,
                LayerReport* out, double* plan_s) {
  query::Executor raw(volume, mapping);
  query::QueryPlan plan;
  uint64_t requests = 0;
  for (const map::Box& b : boxes) {
    raw.PlanInto(b, &plan);
    requests += plan.requests.size();
  }
  const query::Executor::PlanCacheStats pc = raw.plan_cache_stats();
  const double n = static_cast<double>(boxes.size());
  out->Set("query.plan_requests_per_query",
           Ratio(static_cast<double>(requests), n));
  out->Set("query.plan_template_hit_ratio",
           Ratio(static_cast<double>(pc.hits), static_cast<double>(pc.probes)));
  HostTracer::Scope span(tracer, "query", "Executor::PlanInto");
  *plan_s = MedianSeconds(kLayerReps, [&] {
    for (const map::Box& b : boxes) raw.PlanInto(b, &plan);
  });
  out->Set("query.plan_ns_per_query", *plan_s / n * 1e9);
}

// Arrival instant of every query of a pass, by query id.
std::vector<double> ArrivalsById(const PassResult& r) {
  std::vector<double> at(r.queries, 0.0);
  for (const query::QueryCompletion& c : r.completions) {
    at[c.query] = c.arrival_ms;
  }
  return at;
}

// --- Session-driven workloads -------------------------------------------

// paper_beams, skewed_cached and store_olap: one lvm::Volume, one Mapping,
// one Executor, driven by query::Session::Run.
class SessionWorkload : public Workload {
 public:
  explicit SessionWorkload(const Options& options) : opts_(options) {}

  void Setup(HostTracer* tracer) override {
    HostTracer::Scope span(tracer, "bench", "setup");
    Build(tracer);
    session_ = std::make_unique<query::Session>(volume_.get(),
                                                executor_.get(), config_);
    HostTracer::Scope warm(tracer, "query", "Session::Run (warm-up)");
    (void)Pass();
  }

  void Prepare() override {
    query::Executor raw(volume_.get(), mapping_.get());
    query::QueryPlan plan;
    planned_sectors_ = skipped_sectors_ = cells_ = 0;
    for (const map::Box& b : boxes_) {
      raw.PlanInto(b, &plan);
      cells_ += plan.cells;
      for (const disk::IoRequest& r : plan.requests) {
        planned_sectors_ += r.sectors;
        if (skip_filter_ == nullptr) continue;
        for (uint32_t s = 0; s < r.sectors; ++s) {
          if (skip_filter_->Classify(r.lbn + s) ==
              cache::SectorFilter::Class::kSkip) {
            ++skipped_sectors_;
          }
        }
      }
    }
  }

  PassResult Pass() override {
    PassResult r;
    r.queries = boxes_.size();
    const cache::BufferPoolStats before =
        pool_ != nullptr ? pool_->stats() : cache::BufferPoolStats{};
    const double t0 = NowSec();
    auto st = session_->Run(boxes_, arrivals_);
    r.run_s = NowSec() - t0;
    if (!st.ok()) Fail(std::string(name_) + ": " + st.status().ToString());
    r.stats = std::move(*st);
    r.completions = session_->Completions();
    r.events = session_->last_events();
    r.disks = volume_->disk_count();
    for (size_t d = 0; d < volume_->disk_count(); ++d) {
      AddDiskStats(&r.disk, volume_->disk(d).stats());
    }
    if (pool_ != nullptr) {
      const cache::BufferPoolStats& after = pool_->stats();
      r.pool.hits = after.hits - before.hits;
      r.pool.misses = after.misses - before.misses;
      r.pool.evictions = after.evictions - before.evictions;
    }
    AfterRun(&r);
    return r;
  }

  void Teardown() override {
    session_.reset();
    executor_.reset();
    Release();
    mapping_.reset();
    volume_.reset();
  }

  bool Stateless() const override { return pool_ == nullptr; }

  void CheckPass(const PassResult& r) const override {
    CheckCompletions(r, name_);
    const uint64_t accounted = r.stats.resident_sectors +
                               r.stats.submitted_sectors + skipped_sectors_;
    Check(accounted == planned_sectors_,
          std::string(name_) + ": resident + submitted + skipped sectors (" +
              std::to_string(accounted) + ") != planned sectors (" +
              std::to_string(planned_sectors_) + ")");
  }

  uint64_t cells() const override { return cells_; }

  void MeasureLayers(const PassResult& first, double run_s,
                     HostTracer* tracer, LayerReport* out) override {
    const size_t n = boxes_.size();
    CommonExactLayers(first, out);
    out->Set("core.mapping_create_ms", mapping_create_ms_);

    double plan_s = 0;
    PlanLayers(volume_.get(), mapping_.get(), boxes_, tracer, out, &plan_s);

    // The plans the session submits (filters applied) and the raw plans.
    // Session::Run installs the pool's residency filter only for the
    // run; install it here too, so the submitted plans and the filtered
    // PlanInto see the residency the pool holds after the passes.
    if (pool_ != nullptr) executor_->AddSectorFilter(&pool_->filter());
    query::Executor raw(volume_.get(), mapping_.get());
    const std::vector<double> at = ArrivalsById(first);
    std::vector<query::PlannedQuery> submitted(n), replay(n);
    query::QueryPlan plan;
    for (size_t qi = 0; qi < n; ++qi) {
      executor_->PlanInto(boxes_[qi], &plan);
      submitted[qi] = query::PlannedQuery{qi, at[qi], plan.requests};
      if (pool_ != nullptr) {
        // RunPlanned splits raw plans through the configured pool itself.
        raw.PlanInto(boxes_[qi], &plan);
      }
      replay[qi] = query::PlannedQuery{qi, at[qi], plan.requests};
    }
    if (executor_->filtered()) {
      HostTracer::Scope span(tracer, "cache", "Executor::PlanInto (filtered)");
      const double filtered_s = MedianSeconds(kLayerReps, [&] {
        for (const map::Box& b : boxes_) executor_->PlanInto(b, &plan);
      });
      out->Set("cache.filter_ns_per_query",
               (filtered_s - plan_s) / static_cast<double>(n) * 1e9);
    }
    if (pool_ != nullptr) executor_->RemoveSectorFilter(&pool_->filter());

    {
      query::Session session(volume_.get(), nullptr, config_);
      HostTracer::Scope span(tracer, "sim", "Session::RunPlanned");
      const double planned_s = MedianSeconds(kLayerReps, [&] {
        Ok(session.RunPlanned(replay).status(), "RunPlanned");
      });
      out->Set("query.session_ns_per_query",
               planned_s / static_cast<double>(n) * 1e9);
      out->Set("query.plan_share", 1.0 - planned_s / run_s);
      out->Set("sim.ns_per_event",
               Ratio(run_s * 1e9, static_cast<double>(first.events)));
    }

    {
      std::vector<DiskStream> streams(volume_->disk_count());
      uint64_t requests = 0;
      for (size_t d = 0; d < streams.size(); ++d) {
        streams[d].spec = &volume_->disk(d).spec();
      }
      for (const query::PlannedQuery& q : submitted) {
        for (disk::IoRequest r : q.requests) {
          const auto loc = Unwrap(volume_->Resolve(r.lbn), "Resolve");
          r.lbn = loc.lbn;
          r.order_group = q.id + 1;
          streams[loc.disk].requests.emplace_back(q.arrival_ms, r);
          ++requests;
        }
      }
      HostTracer::Scope span(tracer, "disk", "Disk::Submit+ServiceNextQueued");
      const double replay_s = ReplayDisks(&streams, config_.queue);
      out->Set("disk.ns_per_request",
               Ratio(replay_s * 1e9, static_cast<double>(requests)));
    }

    ExtraLayers(first, tracer, out);

    // The traced pass: the same Run with a sink attached.
    const obs::TraceOptions topt = SampledTrace(n);
    sink_ = std::make_unique<obs::TraceSink>(topt);
    query::ClusterConfig traced = config_;
    traced.trace = sink_.get();
    query::Session session(volume_.get(), executor_.get(), traced);
    double traced_s = 0;
    {
      HostTracer::Scope span(tracer, "obs", "Session::Run (traced)");
      const double t0 = NowSec();
      Ok(session.Run(boxes_, arrivals_).status(), "traced Run");
      traced_s = NowSec() - t0;
    }
    const double sampled = std::ceil(static_cast<double>(n) /
                                     static_cast<double>(topt.sample_period));
    out->Set("obs.trace_overhead_ratio", traced_s / run_s);
    out->Set("obs.trace_events_per_query",
             static_cast<double>(sink_->size()) / sampled);
    out->Set("obs.trace_dropped", static_cast<double>(sink_->dropped()));
    out->Set("disk.queue_wait_ms_per_request", MeanQueueWaitMs(*sink_));
  }

  const obs::TraceSink* sim_trace() const override { return sink_.get(); }

  uint64_t InputDigest() const override {
    return DigestBoxes(0xcbf29ce484222325ull, boxes_, shape_.ndims());
  }

 protected:
  // Builds volume_, mapping_ and executor_ (plus any pool or store) from
  // scratch.
  virtual void Build(HostTracer* tracer) = 0;
  // Releases the pool or store Build() made beside the volume and mapping.
  virtual void Release() {}
  // Pass work after Session::Run (store_olap reads real bytes here).
  virtual void AfterRun(PassResult*) {}
  virtual void ExtraLayers(const PassResult&, HostTracer*, LayerReport*) {}

  void CreateMultiMap(HostTracer* tracer) {
    HostTracer::Scope span(tracer, "core", "MultiMapMapping::Create");
    const double t0 = NowSec();
    mapping_ = Unwrap(core::MultiMapMapping::Create(*volume_, shape_),
                      "MultiMapMapping::Create");
    mapping_create_ms_ = (NowSec() - t0) * 1e3;
  }

  const char* name_ = "";
  Options opts_;
  map::GridShape shape_;
  std::vector<map::Box> boxes_;
  query::ArrivalProcess arrivals_;
  query::ClusterConfig config_;
  std::unique_ptr<lvm::Volume> volume_;
  std::unique_ptr<map::Mapping> mapping_;
  std::unique_ptr<query::Executor> executor_;
  std::unique_ptr<query::Session> session_;
  cache::BufferPool* pool_ = nullptr;                  // owned by subclass
  const cache::SectorFilter* skip_filter_ = nullptr;  // owned by subclass
  double mapping_create_ms_ = 0;
  uint64_t planned_sectors_ = 0;
  uint64_t skipped_sectors_ = 0;
  uint64_t cells_ = 0;
  std::unique_ptr<obs::TraceSink> sink_;
};

// The paper's setting under load: MultiMap on an Atlas 10k III, 259^3.
class PaperBeams final : public SessionWorkload {
 public:
  explicit PaperBeams(const Options& options) : SessionWorkload(options) {
    name_ = "paper_beams";
    shape_ = map::GridShape{259, 259, 259};
    Rng rng(SubSeed(opts_.seed, 1));
    const size_t n = Scaled(kPaperBeamsQueries, opts_.scale);
    for (size_t i = 0; i < n; ++i) {
      // Beams along each dimension plus a small 3-D range (~6^3 cells).
      boxes_.push_back(i % 4 < 3 ? query::RandomBeam(shape_,
                                                     static_cast<uint32_t>(i % 4),
                                                     rng)
                                       .ToBox(shape_)
                                 : query::RandomRange(shape_, 0.0012, rng));
    }
    arrivals_ = query::ArrivalProcess::OpenPoisson(kPaperBeamsRateQps);
    config_.arrivals = arrivals_;
    config_.warmup_head = true;
    config_.seed = SubSeed(opts_.seed, 2);
  }

 protected:
  void Build(HostTracer* tracer) override {
    {
      HostTracer::Scope span(tracer, "lvm", "Volume");
      volume_ = std::make_unique<lvm::Volume>(disk::MakeAtlas10k3());
    }
    CreateMultiMap(tracer);
    executor_ = std::make_unique<query::Executor>(volume_.get(),
                                                  mapping_.get());
  }
};

// The 90/10 skewed point stream with periodic cold-plane scans behind an
// ARC buffer pool sized to the hot band.
class SkewedCached final : public SessionWorkload {
 public:
  explicit SkewedCached(const Options& options) : SessionWorkload(options) {
    name_ = "skewed_cached";
    shape_ = map::GridShape{16, 16, 16};
    const size_t n = Scaled(kSkewedQueries, opts_.scale);
    // Every 8th query is a cold scan; the rest are bench_common's 90/10
    // SkewedPoints: 9 in 10 in the hot band (the first kBand Dim2
    // planes), 1 in 10 in the cold band at the far edge.
    const std::vector<map::Box> points =
        bench::SkewedPoints(shape_, n - n / 8, SubSeed(opts_.seed, 1), kBand);
    Rng rng(SubSeed(opts_.seed, 4));
    uint32_t scan_row = static_cast<uint32_t>(rng.Uniform(192));
    for (size_t i = 0, p = 0; i < n; ++i) {
      if (i % 8 != 7) {
        boxes_.push_back(points[p++]);
        continue;
      }
      // Cold row scan along Dim0, cycling through the 192 rows of the
      // planes past the hot band (bench/cache_tier sweep 3).
      map::Box b;
      b.lo[0] = 0;
      b.hi[0] = 16;
      b.lo[1] = scan_row % 16;
      b.hi[1] = b.lo[1] + 1;
      b.lo[2] = kBand + scan_row / 16 % (16 - kBand);
      b.hi[2] = b.lo[2] + 1;
      scan_row = (scan_row + 1) % 192;
      boxes_.push_back(b);
    }
    arrivals_ = query::ArrivalProcess::OpenPoisson(kSkewedRateQps);
    config_.arrivals = arrivals_;
    config_.seed = SubSeed(opts_.seed, 2);
  }

 protected:
  static constexpr uint32_t kBand = 4;

  void Build(HostTracer* tracer) override {
    {
      HostTracer::Scope span(tracer, "lvm", "Volume");
      volume_ = std::make_unique<lvm::Volume>(disk::MakeNearline7k2());
    }
    {
      // 8 KiB cells: with 1-sector cells the whole 16^3 grid fits in a few
      // tracks and nearly every miss is a read-ahead buffer hit.
      HostTracer::Scope span(tracer, "core", "NaiveMapping");
      mapping_ = std::make_unique<map::NaiveMapping>(shape_, 0,
                                                     /*cell_sectors=*/16);
    }
    executor_ = std::make_unique<query::Executor>(volume_.get(),
                                                  mapping_.get());
    HostTracer::Scope span(tracer, "cache", "BufferPool");
    owned_pool_ = std::make_unique<cache::BufferPool>(
        *mapping_, cache::BufferPoolOptions{.capacity_cells = 16 * 16 * kBand,
                                            .policy = cache::PolicyKind::kArc});
    pool_ = owned_pool_.get();
    config_.cache = pool_;
  }

  void Release() override {
    config_.cache = pool_ = nullptr;
    owned_pool_.reset();
  }

 private:
  std::unique_ptr<cache::BufferPool> owned_pool_;
};

// `spec` cut to the whole cylinders that hold its first `sectors` sectors.
// Zones keep their order and track lengths, so an LBN below `sectors` lies
// where it lies on the full drive.
disk::DiskSpec CylinderPrefix(disk::DiskSpec spec, uint64_t sectors) {
  std::vector<disk::ZoneSpec> zones;
  for (const disk::ZoneSpec& z : spec.zones) {
    if (sectors == 0) break;
    const uint64_t per_cylinder =
        uint64_t{z.sectors_per_track} * spec.surfaces;
    const uint64_t cylinders = std::min<uint64_t>(
        z.cylinders, (sectors + per_cylinder - 1) / per_cylinder);
    zones.push_back({static_cast<uint32_t>(cylinders), z.sectors_per_track});
    sectors -= std::min(sectors, cylinders * per_cylinder);
  }
  spec.zones = std::move(zones);
  return spec;
}

// OLAP order rows bulk-loaded into a file-backed store, queried closed-loop
// with real reads of every plan's bytes.
class StoreOlap final : public SessionWorkload {
 public:
  static constexpr uint32_t kRecordBytes = 16;

  explicit StoreOlap(const Options& options) : SessionWorkload(options) {
    name_ = "store_olap";
    // The paper's per-disk chunk along OrderDay (591 two-day buckets, one
    // lane per track) over 5 quantities x 5 nations x 5 products: one basic
    // cube of 125 tracks, so the store's member file is 42 MiB (sparse).
    shape_ = map::GridShape{591, 5, 5, 5};
    Rng rows_rng(SubSeed(opts_.seed, 3));
    rows_ = dataset::GenerateOrders(Scaled(kOlapRows, opts_.scale), rows_rng);
    // Expected contents: each cell's records in arrival order, the order
    // BulkLoader packs them in.
    std::vector<std::pair<uint64_t, uint32_t>> order;  // (cell, row)
    order.reserve(rows_.size());
    for (uint32_t i = 0; i < rows_.size(); ++i) {
      order.emplace_back(shape_.LinearIndex(CellOf(rows_[i])), i);
    }
    std::sort(order.begin(), order.end());
    for (size_t i = 0; i < order.size(); ++i) {
      auto& slot = expected_[order[i].first];
      if (slot.second == 0) slot.first = static_cast<uint32_t>(i);
      ++slot.second;
      records_.resize(records_.size() + kRecordBytes);
      Encode(rows_[order[i].second], records_.data() + i * kRecordBytes);
    }

    Rng rng(SubSeed(opts_.seed, 1));
    const size_t n = Scaled(kOlapQueries, opts_.scale);
    for (size_t i = 0; i < n; ++i) {
      switch (i % 5) {
        case 0:
          boxes_.push_back(dataset::OlapQ1(shape_, rng).ToBox(shape_));
          break;
        case 1:
          boxes_.push_back(dataset::OlapQ2(shape_, rng).ToBox(shape_));
          break;
        case 2:
          boxes_.push_back(dataset::OlapQ3(shape_, rng));
          break;
        case 3:
          boxes_.push_back(dataset::OlapQ4(shape_, rng));
          break;
        default:
          boxes_.push_back(dataset::OlapQ5(shape_, rng));
          break;
      }
    }
    // Records each query must read back: the expected rows in its box.
    expected_records_.assign(boxes_.size(), 0);
    for (const auto& [cell, slot] : expected_) {
      const map::Cell c = shape_.CellAt(cell);
      for (size_t q = 0; q < boxes_.size(); ++q) {
        if (boxes_[q].Contains(c, shape_.ndims())) {
          expected_records_[q] += slot.second;
        }
      }
    }
    // One client, as in Fig. 8.
    arrivals_ = query::ArrivalProcess::Closed(1);
    config_.arrivals = arrivals_;
    config_.seed = SubSeed(opts_.seed, 2);
  }

  ~StoreOlap() override { StoreOlap::Release(); }

  uint64_t InputDigest() const override {
    uint64_t h = SessionWorkload::InputDigest();
    for (uint8_t b : records_) h = Fnv(h, b);
    return h;
  }

 protected:
  void Build(HostTracer* tracer) override {
    std::error_code ec;
    dir_ = opts_.scratch_dir + "/olap-store";
    std::filesystem::create_directories(dir_, ec);
    if (ec) Fail("cannot create " + dir_ + ": " + ec.message());

    {
      HostTracer::Scope span(tracer, "lvm", "Volume");
      volume_ = std::make_unique<lvm::Volume>(disk::MakeAtlas10k3());
    }
    CreateMultiMap(tracer);
    {
      // An ExtentFile is sized to its whole member disk up front; over the
      // full drive that is a 36.7 GB (sparse) file. The store's volume is
      // the same drive cut to the cylinders the mapping occupies, so every
      // mapped LBN resolves as it does on the simulated volume.
      HostTracer::Scope span(tracer, "lvm", "Volume (store)");
      store_volume_ = std::make_unique<lvm::Volume>(CylinderPrefix(
          volume_->disk(0).spec(),
          mapping_->base_lbn() + mapping_->footprint_sectors()));
    }
    {
      HostTracer::Scope span(tracer, "store", "BulkLoader");
      auto store = Unwrap(store::StoreVolume::Create(*store_volume_, dir_),
                          "StoreVolume::Create");
      store::BulkLoadOptions lo;
      // Small enough that every load spills sorted runs and merges them.
      lo.memory_budget_bytes = 192u << 10;
      lo.record_bytes = kRecordBytes;
      lo.merge_fanin = 4;
      auto loader = Unwrap(
          store::BulkLoader::Start(store.get(), mapping_.get(), lo),
          "BulkLoader::Start");
      uint8_t rec[kRecordBytes];
      for (const dataset::OrderRow& row : rows_) {
        Encode(row, rec);
        Ok(loader->Add(CellOf(row), rec), "BulkLoader::Add");
      }
      bulk_ = Unwrap(loader->Finish(), "BulkLoader::Finish");
    }
    {
      HostTracer::Scope span(tracer, "store",
                             "StoreVolume::Open+OpenIndex+BuildOccupancy");
      const double t0 = NowSec();
      store_ = Unwrap(store::StoreVolume::Open(*store_volume_, dir_),
                      "StoreVolume::Open");
      index_ = Unwrap(store::BulkLoader::OpenIndex(dir_), "OpenIndex");
      occupancy_ = index_.BuildOccupancy(*mapping_);
      index_open_ms_ = (NowSec() - t0) * 1e3;
    }
    executor_ = std::make_unique<query::Executor>(volume_.get(),
                                                  mapping_.get());
    executor_->AddSectorFilter(&occupancy_);
    skip_filter_ = &occupancy_;
  }

  void Release() override {
    skip_filter_ = nullptr;
    store_.reset();
    store_volume_.reset();
    std::error_code ec;
    if (!dir_.empty()) std::filesystem::remove_all(dir_, ec);
  }

  // Reads every plan's bytes and verifies them against the loaded rows.
  void AfterRun(PassResult* r) override {
    query::QueryPlan plan;
    for (size_t q = 0; q < boxes_.size(); ++q) {
      executor_->PlanInto(boxes_[q], &plan);
      payload_.clear();
      Ok(store_->ReadRequests(plan.requests, &payload_), "ReadRequests");
      r->bytes_read += payload_.size();
      Verify(q, plan.requests);
    }
  }

  void ExtraLayers(const PassResult&, HostTracer* tracer,
                   LayerReport* out) override {
    std::vector<query::QueryPlan> plans(boxes_.size());
    uint64_t requests = 0;
    for (size_t q = 0; q < boxes_.size(); ++q) {
      executor_->PlanInto(boxes_[q], &plans[q]);
      requests += plans[q].requests.size();
    }
    uint64_t bytes = 0;
    HostTracer::Scope span(tracer, "store", "StoreVolume::ReadRequests");
    const double read_s = MedianSeconds(kLayerReps, [&] {
      bytes = 0;
      for (const query::QueryPlan& p : plans) {
        payload_.clear();
        Ok(store_->ReadRequests(p.requests, &payload_), "ReadRequests");
        bytes += payload_.size();
      }
    });
    out->Set("store.read_mb_s", Ratio(static_cast<double>(bytes) / 1e6, read_s));
    out->Set("store.read_ns_per_request",
             Ratio(read_s * 1e9, static_cast<double>(requests)));
    out->Set("store.skip_ratio",
             Ratio(static_cast<double>(skipped_sectors_),
                   static_cast<double>(planned_sectors_)));
    out->Set("store.bulk_sort_ms", bulk_.sort_ms);
    out->Set("store.bulk_merge_ms", bulk_.merge_ms);
    out->Set("store.bulk_index_ms", bulk_.index_ms);
    out->Set("store.bulk_runs_spilled",
             static_cast<double>(bulk_.runs_spilled));
    out->Set("store.bulk_sort_passes", static_cast<double>(bulk_.sort_passes));
    out->Set("store.index_open_ms", index_open_ms_);
  }

 private:
  map::Cell CellOf(const dataset::OrderRow& row) const {
    map::Cell c = dataset::OlapCellOf(row);
    for (uint32_t d = 0; d < shape_.ndims(); ++d) c[d] %= shape_.dim(d);
    return c;
  }

  static void Encode(const dataset::OrderRow& row, uint8_t* out) {
    std::memcpy(out, &row.price, 8);
    std::memcpy(out + 8, &row.order_day, 4);
    std::memcpy(out + 12, &row.quantity, 4);
  }

  // Every occupied cell of query q's box must come back byte-exact from
  // payload_, and together they must hold exactly the rows in the box.
  void Verify(size_t q, const std::vector<disk::IoRequest>& requests) const {
    struct Extent {
      uint64_t lbn;
      uint64_t sectors;
      uint64_t offset;
    };
    std::vector<Extent> extents;
    uint64_t offset = 0;
    const uint64_t sector_bytes = store_->sector_bytes();
    for (const disk::IoRequest& r : requests) {
      extents.push_back({r.lbn, r.sectors, offset});
      offset += r.sectors * sector_bytes;
    }
    std::sort(extents.begin(), extents.end(),
              [](const Extent& a, const Extent& b) { return a.lbn < b.lbn; });
    const uint32_t cs = mapping_->cell_sectors();
    const uint64_t slot_bytes = cs * sector_bytes;
    const map::Box& box = boxes_[q];
    const uint32_t nd = shape_.ndims();
    uint64_t records = 0, slot_total = 0;
    map::Cell c = box.lo;
    const std::string where = "store_olap: query " + std::to_string(q);
    while (true) {
      const uint64_t linear = shape_.LinearIndex(c);
      const uint32_t count = index_.CountOf(linear);
      if (count > 0) {
        auto it = expected_.find(linear);
        Check(it != expected_.end() && it->second.second == count,
              where + ": index count differs from the loaded rows");
        const uint64_t lbn = mapping_->LbnOf(c);
        auto e = std::upper_bound(
            extents.begin(), extents.end(), lbn,
            [](uint64_t l, const Extent& x) { return l < x.lbn; });
        Check(e != extents.begin(), where + ": occupied cell not read");
        --e;
        Check(lbn + cs <= e->lbn + e->sectors,
              where + ": occupied cell not read");
        const uint8_t* got =
            payload_.data() + e->offset + (lbn - e->lbn) * sector_bytes;
        const uint64_t bytes = uint64_t{count} * kRecordBytes;
        Check(std::memcmp(got, records_.data() +
                                   uint64_t{it->second.first} * kRecordBytes,
                          bytes) == 0,
              where + ": record bytes differ from the loaded rows");
        Check(std::all_of(got + bytes, got + slot_bytes,
                          [](uint8_t b) { return b == 0; }),
              where + ": slot padding is not zero");
        records += count;
        slot_total += slot_bytes;
      }
      uint32_t d = 0;
      while (d < nd && ++c[d] == box.hi[d]) {
        c[d] = box.lo[d];
        ++d;
      }
      if (d == nd) break;
    }
    Check(records == expected_records_[q],
          where + ": read " + std::to_string(records) + " records, expected " +
              std::to_string(expected_records_[q]));
    Check(slot_total == payload_.size(),
          where + ": read bytes outside the occupied cells");
  }

  std::vector<dataset::OrderRow> rows_;
  // Cell (linear) -> (first record index, record count) into records_.
  std::unordered_map<uint64_t, std::pair<uint32_t, uint32_t>> expected_;
  std::vector<uint8_t> records_;
  std::vector<uint64_t> expected_records_;
  std::string dir_;
  std::unique_ptr<lvm::Volume> store_volume_;
  std::unique_ptr<store::StoreVolume> store_;
  store::CellIndex index_;
  store::CellIndex::Occupancy occupancy_;
  store::BulkLoadStats bulk_;
  double index_open_ms_ = 0;
  std::vector<uint8_t> payload_;
};

// --- cluster_degraded ---------------------------------------------------

// A compact 10k-rpm drive (two zones, 108000 sectors): small enough that a
// dead member's rebuild finishes inside one pass (bench/fault_tolerance
// uses the same geometry).
disk::DiskSpec CompactDisk() {
  disk::DiskSpec spec;
  spec.name = "Compact10k";
  spec.surfaces = 2;
  spec.rpm = 10000.0;
  spec.settle_ms = 1.1;
  spec.settle_cylinders = 12;
  spec.head_switch_ms = 0.9;
  spec.seek_sqrt_coeff_ms = 0.06;
  spec.knee_cylinders = 300;
  spec.full_stroke_ms = 8.0;
  spec.command_overhead_ms = 0.05;
  spec.zones = {{150, 200}, {150, 160}};
  return spec;
}

class ClusterDegraded final : public Workload {
 public:
  explicit ClusterDegraded(const Options& options)
      : opts_(options), shape_{64, 64, 64} {
    Rng rng(SubSeed(opts_.seed, 1));
    const size_t n = Scaled(kClusterQueries, opts_.scale);
    for (size_t i = 0; i < n; ++i) {
      boxes_.push_back(query::RandomRange(shape_, 0.05, rng));
    }
    config_.threads = opts_.threads;
    config_.arrivals = query::ArrivalProcess::OpenPoisson(kClusterRateQps);
    config_.seed = SubSeed(opts_.seed, 2);
    config_.retry.max_attempts = 3;
    config_.retry.timeout_ms = 250.0;
    config_.retry.backoff_ms = 0.5;
    config_.rebuild.enabled = true;
    config_.rebuild.detect_delay_ms = 100.0;
    // Kill one member halfway through the arrival stream.
    fail_at_ms_ =
        0.5 * static_cast<double>(n) / kClusterRateQps * 1000.0;
  }

  void Setup(HostTracer* tracer) override {
    HostTracer::Scope span(tracer, "bench", "setup");
    {
      HostTracer::Scope s(tracer, "lvm", "ClusterVolume::Create");
      lvm::ClusterTopology topo;
      topo.shards = 4;
      topo.shard_disks = {CompactDisk(), CompactDisk()};
      topo.chunk_sectors = 512;
      topo.replication = lvm::ReplicationOptions{2, 512};
      cluster_ = Unwrap(lvm::ClusterVolume::Create(topo),
                        "ClusterVolume::Create");
    }
    disk::FaultModel kill;
    kill.fail_at_ms = fail_at_ms_;
    cluster_->shard(1).disk(0).SetFaultModel(kill);
    disk::FaultModel limp;
    limp.slow_factor = 1.6;
    cluster_->shard(2).disk(1).SetFaultModel(limp);
    {
      HostTracer::Scope s(tracer, "core", "NaiveMapping");
      mapping_ = std::make_unique<map::NaiveMapping>(shape_, 0);
    }
    Check(mapping_->footprint_sectors() <= cluster_->data_sectors(),
          "cluster_degraded: grid does not fit the cluster");
    planner_ = std::make_unique<query::Executor>(&cluster_->logical(),
                                                 mapping_.get());
    session_ = std::make_unique<query::ClusterSession>(
        cluster_.get(), planner_.get(), config_);
    HostTracer::Scope warm(tracer, "lvm", "ClusterSession::Run (warm-up)");
    (void)Pass();
  }

  void Teardown() override {
    session_.reset();
    planner_.reset();
    mapping_.reset();
    cluster_.reset();
  }

  void Prepare() override {
    query::Executor raw(&cluster_->logical(), mapping_.get());
    query::QueryPlan plan;
    planned_sectors_ = cells_ = 0;
    for (const map::Box& b : boxes_) {
      raw.PlanInto(b, &plan);
      cells_ += plan.cells;
      for (const disk::IoRequest& r : plan.requests) {
        planned_sectors_ += r.sectors;
      }
    }
  }

  PassResult Pass() override {
    PassResult r;
    r.queries = boxes_.size();
    const double t0 = NowSec();
    auto st = session_->Run(boxes_);
    r.run_s = NowSec() - t0;
    if (!st.ok()) Fail("cluster_degraded: " + st.status().ToString());
    r.stats = std::move(*st);
    r.completions = session_->Completions();
    r.events = session_->events();
    for (uint32_t s = 0; s < cluster_->shard_count(); ++s) {
      const lvm::Volume& v = cluster_->shard(s);
      r.disks += v.disk_count();
      for (size_t d = 0; d < v.disk_count(); ++d) {
        AddDiskStats(&r.disk, v.disk(d).stats());
      }
      const lvm::RebuildStats& rb = session_->shard_rebuild_stats(s);
      r.rebuild_chunks += rb.chunks_done;
      if (rb.Finished()) r.rebuild_ms += rb.finished_ms - rb.started_ms;
    }
    return r;
  }

  bool Stateless() const override { return true; }

  void CheckPass(const PassResult& r) const override {
    // Merged completions: exactly one record per query id.
    CheckCompletions(r, "cluster_degraded");
    Check(r.stats.resident_sectors + r.stats.submitted_sectors ==
              planned_sectors_,
          "cluster_degraded: submitted sectors (" +
              std::to_string(r.stats.submitted_sectors) +
              ") != planned sectors (" + std::to_string(planned_sectors_) +
              ")");
    // The fault scenario must actually play out.
    Check(r.rebuild_chunks > 0,
          "cluster_degraded: no rebuild after the member failure (" +
              std::to_string(r.disk.failed_fast) + " fail-fast reads, " +
              "makespan " + std::to_string(r.stats.makespan_ms) + " ms)");
  }

  uint64_t cells() const override { return cells_; }

  void MeasureLayers(const PassResult& first, double run_s,
                     HostTracer* tracer, LayerReport* out) override {
    const size_t n = boxes_.size();
    CommonExactLayers(first, out);
    double plan_s = 0;
    PlanLayers(&cluster_->logical(), mapping_.get(), boxes_, tracer, out,
               &plan_s);

    // Routing: every planned request of the workload through Route.
    std::vector<disk::IoRequest> planned;
    std::vector<size_t> query_of;
    query::QueryPlan plan;
    for (size_t qi = 0; qi < n; ++qi) {
      planner_->PlanInto(boxes_[qi], &plan);
      for (const disk::IoRequest& r : plan.requests) {
        planned.push_back(r);
        query_of.push_back(qi);
      }
    }
    std::vector<lvm::ShardRequest> routed;
    uint64_t pieces = 0;
    for (const disk::IoRequest& r : planned) {
      routed.clear();
      Ok(cluster_->Route(r, &routed), "Route");
      pieces += routed.size();
    }
    out->Set("lvm.route_pieces_per_request",
             Ratio(static_cast<double>(pieces),
                   static_cast<double>(planned.size())));
    {
      HostTracer::Scope span(tracer, "lvm", "ClusterVolume::Route");
      const double route_s = MedianSeconds(kLayerReps, [&] {
        for (const disk::IoRequest& r : planned) {
          routed.clear();
          Ok(cluster_->Route(r, &routed), "Route");
        }
      });
      out->Set("lvm.route_ns_per_request",
               Ratio(route_s * 1e9, static_cast<double>(planned.size())));
    }

    // The parallel simulate section (one event loop per shard) against the
    // whole Run.
    std::vector<double> walls;
    {
      HostTracer::Scope span(tracer, "sim", "ClusterSession::Run");
      for (int i = 0; i < kLayerReps; ++i) {
        Ok(session_->Run(boxes_).status(), "ClusterSession::Run");
        walls.push_back(session_->wall_seconds());
      }
    }
    const double wall_s = Median(walls);
    out->Set("lvm.parallel_share", wall_s / run_s);
    out->Set("query.session_ns_per_query",
             wall_s / static_cast<double>(n) * 1e9);
    out->Set("query.plan_share", 1.0 - wall_s / run_s);
    out->Set("sim.ns_per_event",
             Ratio(run_s * 1e9, static_cast<double>(first.events)));

    // Per-member-disk streams: routed pieces resolved inside their shard.
    {
      const std::vector<double> at = ArrivalsById(first);
      const uint32_t shards = cluster_->shard_count();
      const size_t per_shard = cluster_->shard(0).disk_count();
      std::vector<DiskStream> streams(shards * per_shard);
      uint64_t requests = 0;
      for (uint32_t s = 0; s < shards; ++s) {
        for (size_t d = 0; d < per_shard; ++d) {
          streams[s * per_shard + d].spec = &cluster_->shard(s).disk(d).spec();
        }
      }
      for (size_t i = 0; i < planned.size(); ++i) {
        routed.clear();
        Ok(cluster_->Route(planned[i], &routed), "Route");
        for (lvm::ShardRequest piece : routed) {
          const auto loc = Unwrap(
              cluster_->shard(piece.shard).Resolve(piece.req.lbn), "Resolve");
          piece.req.lbn = loc.lbn;
          piece.req.order_group = query_of[i] + 1;
          streams[piece.shard * per_shard + loc.disk].requests.emplace_back(
              at[query_of[i]], piece.req);
          ++requests;
        }
      }
      HostTracer::Scope span(tracer, "disk", "Disk::Submit+ServiceNextQueued");
      const double replay_s = ReplayDisks(&streams, config_.queue);
      out->Set("disk.ns_per_request",
               Ratio(replay_s * 1e9, static_cast<double>(requests)));
    }

    const obs::TraceOptions topt = SampledTrace(n);
    sink_ = std::make_unique<obs::TraceSink>(topt);
    query::ClusterConfig traced = config_;
    traced.trace = sink_.get();
    query::ClusterSession session(cluster_.get(), planner_.get(), traced);
    double traced_s = 0;
    {
      HostTracer::Scope span(tracer, "obs", "ClusterSession::Run (traced)");
      const double t0 = NowSec();
      Ok(session.Run(boxes_).status(), "traced ClusterSession::Run");
      traced_s = NowSec() - t0;
    }
    const double sampled = std::ceil(static_cast<double>(n) /
                                     static_cast<double>(topt.sample_period));
    out->Set("obs.trace_overhead_ratio", traced_s / run_s);
    out->Set("obs.trace_events_per_query",
             static_cast<double>(sink_->size()) / sampled);
    out->Set("obs.trace_dropped", static_cast<double>(sink_->dropped()));
    out->Set("disk.queue_wait_ms_per_request", MeanQueueWaitMs(*sink_));
  }

  const obs::TraceSink* sim_trace() const override { return sink_.get(); }

  uint64_t InputDigest() const override {
    return DigestBoxes(0xcbf29ce484222325ull, boxes_, shape_.ndims());
  }

 private:
  Options opts_;
  map::GridShape shape_;
  std::vector<map::Box> boxes_;
  query::ClusterConfig config_;
  double fail_at_ms_ = 0;
  std::unique_ptr<lvm::ClusterVolume> cluster_;
  std::unique_ptr<map::Mapping> mapping_;
  std::unique_ptr<query::Executor> planner_;
  std::unique_ptr<query::ClusterSession> session_;
  uint64_t planned_sectors_ = 0;
  uint64_t cells_ = 0;
  std::unique_ptr<obs::TraceSink> sink_;
};

// name, unit of every per-layer metric, in print order.
const std::vector<std::pair<const char*, const char*>>& LayerSpecs() {
  static const std::vector<std::pair<const char*, const char*>> specs = {
      {"query.plan_ns_per_query", "ns"},
      {"query.plan_requests_per_query", "count"},
      {"query.plan_template_hit_ratio", "ratio"},
      {"query.session_ns_per_query", "ns"},
      {"query.plan_share", "ratio"},
      {"cache.hit_ratio", "ratio"},
      {"cache.evictions_per_query", "count"},
      {"cache.resident_sector_ratio", "ratio"},
      {"cache.filter_ns_per_query", "ns"},
      {"lvm.route_ns_per_request", "ns"},
      {"lvm.route_pieces_per_request", "count"},
      {"lvm.retries_per_query", "count"},
      {"lvm.redirects_per_query", "count"},
      {"lvm.rebuild_ms", "ms"},
      {"lvm.rebuild_chunks", "count"},
      {"lvm.parallel_share", "ratio"},
      {"disk.ns_per_request", "ns"},
      {"disk.seek_ms_per_request", "ms"},
      {"disk.rot_ms_per_request", "ms"},
      {"disk.xfer_ms_per_request", "ms"},
      {"disk.queue_wait_ms_per_request", "ms"},
      {"disk.utilization", "ratio"},
      {"disk.buffer_hit_ratio", "ratio"},
      {"disk.order_holds_per_request", "count"},
      {"sim.events_per_query", "count"},
      {"sim.ns_per_event", "ns"},
      {"store.read_mb_s", "MB/s"},
      {"store.read_ns_per_request", "ns"},
      {"store.skip_ratio", "ratio"},
      {"store.bulk_sort_ms", "ms"},
      {"store.bulk_merge_ms", "ms"},
      {"store.bulk_index_ms", "ms"},
      {"store.bulk_runs_spilled", "count"},
      {"store.bulk_sort_passes", "count"},
      {"store.index_open_ms", "ms"},
      {"core.mapping_create_ms", "ms"},
      {"obs.trace_overhead_ratio", "ratio"},
      {"obs.trace_events_per_query", "count"},
      {"obs.trace_dropped", "count"},
      {"failed_frac", "ratio"},
  };
  return specs;
}

}  // namespace

bool SameOutcome(const PassResult& a, const PassResult& b) {
  if (a.queries != b.queries || a.events != b.events ||
      a.completions.size() != b.completions.size() ||
      a.disk.requests != b.disk.requests ||
      a.disk.phases.Total() != b.disk.phases.Total() ||
      a.bytes_read != b.bytes_read || a.rebuild_chunks != b.rebuild_chunks) {
    return false;
  }
  for (size_t i = 0; i < a.completions.size(); ++i) {
    const query::QueryCompletion& x = a.completions[i];
    const query::QueryCompletion& y = b.completions[i];
    if (x.query != y.query || x.arrival_ms != y.arrival_ms ||
        x.start_ms != y.start_ms || x.finish_ms != y.finish_ms ||
        x.retries != y.retries || x.redirects != y.redirects ||
        x.failed != y.failed || x.resident_sectors != y.resident_sectors ||
        x.submitted_sectors != y.submitted_sectors) {
      return false;
    }
  }
  return true;
}

LayerReport::LayerReport() {
  for (const auto& [name, unit] : LayerSpecs()) {
    metrics_.push_back(Metric{name, unit, 0.0});
  }
}

void LayerReport::Set(const std::string& name, double value) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  Fail("unknown per-layer metric " + name);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Options& options) {
  if (name == "paper_beams") return std::make_unique<PaperBeams>(options);
  if (name == "skewed_cached") return std::make_unique<SkewedCached>(options);
  if (name == "cluster_degraded") {
    return std::make_unique<ClusterDegraded>(options);
  }
  if (name == "store_olap") return std::make_unique<StoreOlap>(options);
  return nullptr;
}

}  // namespace perfbench
