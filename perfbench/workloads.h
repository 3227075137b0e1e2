// The benchmark's four workloads (README.md here says why each exists).
//
// A workload generates its inputs from the seed when it is constructed,
// so the set-up clock never times input generation. Setup() then builds
// the system from scratch -- volumes, mappings, bulk loads, the warm-up
// pass -- and Pass() drives one pass of the workload's queries through a
// stable top-level entry point (Session::Run, ClusterSession::Run,
// StoreVolume::ReadRequests).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/buffer_pool.h"
#include "disk/disk.h"
#include "harness.h"
#include "obs/trace.h"
#include "query/session.h"

namespace perfbench {

struct Options {
  uint64_t seed = 1;
  /// Query- and row-count multiplier. The timed benchmark runs at 1; the
  /// determinism self-test shrinks the workloads.
  double scale = 1.0;
  /// ClusterSession worker threads. Always explicit: the 0 default of
  /// ClusterConfig would start one thread per shard.
  uint32_t threads = 1;
  /// Directory store_olap keeps its store files under.
  std::string scratch_dir;
};

/// Outcome of one pass. Everything but run_s is simulated or counted, so
/// it is a pure function of the seed, the config, and (for a workload
/// whose buffer pool carries state) the passes before it.
struct PassResult {
  uint64_t queries = 0;
  mm::query::LatencyStats stats;
  /// Per-query records, as the session returned them.
  std::vector<mm::query::QueryCompletion> completions;
  /// Summed over every member disk of the pass.
  mm::disk::DiskStats disk;
  uint64_t disks = 0;
  uint64_t events = 0;
  /// Buffer-pool activity during the pass (zero without a pool).
  mm::cache::BufferPoolStats pool;
  /// Background rebuild, summed over shards (zero without a failure).
  uint64_t rebuild_chunks = 0;
  double rebuild_ms = 0;
  /// Real bytes read and verified (store_olap only).
  uint64_t bytes_read = 0;
  /// Host seconds of the Session::Run / ClusterSession::Run call alone.
  double run_s = 0;
};

/// True when two passes have bit-identical simulated outcomes.
bool SameOutcome(const PassResult& a, const PassResult& b);

/// The traced run's per-layer metrics. Every workload reports every
/// metric; a layer the workload bypasses reads 0.
class LayerReport {
 public:
  LayerReport();
  /// Sets a metric; an unknown name is a benchmark bug and fails the run.
  void Set(const std::string& name, double value);
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the system from scratch and runs the warm-up pass: the work
  /// a user pays before the first query. Timed as setup_s. Call it on a
  /// new or torn-down workload.
  virtual void Setup(HostTracer* tracer) = 0;
  /// Releases what Setup() built (store files included), so the next
  /// Setup() starts from nothing. Not timed: a user does not pay it
  /// before the first query.
  virtual void Teardown() = 0;
  /// Untimed bookkeeping the output checks need (raw plan sizes),
  /// computed once, after the first Setup().
  virtual void Prepare() = 0;
  /// One pass of every query through the workload's entry point.
  virtual PassResult Pass() = 0;
  /// True when every pass replays the first bit-for-bit.
  virtual bool Stateless() const = 0;
  /// Output checks on a pass; Fail()s on a violation.
  virtual void CheckPass(const PassResult& r) const = 0;
  /// Cells requested by one pass.
  virtual uint64_t cells() const = 0;
  /// Per-layer metrics of the traced run. `first` is the first pass after
  /// set-up and `run_s` the median host time of its entry-point call.
  virtual void MeasureLayers(const PassResult& first, double run_s,
                             HostTracer* tracer, LayerReport* out) = 0;
  /// The simulated-time trace of the traced pass (after MeasureLayers).
  virtual const mm::obs::TraceSink* sim_trace() const = 0;
  /// A hash of the generated inputs (boxes, order rows).
  virtual uint64_t InputDigest() const = 0;
};

/// The workload called `name`, its inputs generated from options.seed;
/// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Options& options);

}  // namespace perfbench
