// The end-to-end benchmark: one workload, one seed, one process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 repeats whole passes for --seconds, sets the workload up
// again several times in between, and prints the end-to-end metrics
// (host times in reference seconds, medians). --trace 1 sets up once,
// runs a fixed number of passes, times the calls into each layer, and
// prints the per-layer metrics; it also writes a Chrome trace with the
// host spans and the simulated-time trace.
// Every pass is checked; a failed check exits 1 without a result line.
// The last line of stdout is the result JSON. README.md here documents
// every metric.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "obs/trace_export.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-ups per timed run: enough to fill kSetupShare of --seconds, within
// [kSetupRepeats, kMaxSetups]; setup_s is their median. Passes fill the
// rest of --seconds.
constexpr size_t kSetupRepeats = 5;
constexpr size_t kMaxSetups = 256;
constexpr double kSetupShare = 0.4;
// Timed passes per run at least, whatever --seconds says.
constexpr int kMinPasses = 5;
// Passes of the traced run (their median Run time is the layers' base).
constexpr int kTracedPasses = 5;
// Chrome-trace process id of the host spans (shards use 0..S).
constexpr uint32_t kHostPid = 1000;
// host_qps and setup_s are in reference seconds: wall time scaled by how
// fast the host ran ReferenceLoopSec() around it, against this time of the
// loop. A shared host runs stretches of seconds to minutes up to 1.6x
// slower (CPU time equals wall time in them, so it is slower execution,
// not descheduling); the loop slows with them, so the scaled times keep
// most of the code's speed and lose most of the host's.
constexpr double kReferenceLoopSec = 2.5e-3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  uint32_t threads = 0;  // 0: min(hardware threads, 4)
  std::string scratch = ".";
  std::string trace_out = "perfbench-trace.json";
  std::string git_sha = "unknown";
  long long src_lines = -1;
};

[[noreturn]] void Usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--scale <f>] [--threads <n>] [--scratch "
               "<dir>] [--trace-out <file>] [--git-sha <sha>] "
               "[--src-lines <n>]\n",
               why.c_str());
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage("missing value for " + key);
    }
    char* end = nullptr;
    auto number = [&](double lo) {
      const double v = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(v >= lo)) {
        Usage("bad value for " + key + ": " + value);
      }
      return v;
    };
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') Usage("bad seed: " + value);
    } else if (key == "--seconds") {
      a.seconds = number(0);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      a.trace = value == "1";
    } else if (key == "--scale") {
      a.scale = number(1e-6);
    } else if (key == "--threads") {
      a.threads = static_cast<uint32_t>(number(1));
    } else if (key == "--scratch") {
      a.scratch = value;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else if (key == "--git-sha") {
      a.git_sha = value;
    } else if (key == "--src-lines") {
      a.src_lines = static_cast<long long>(number(0));
    } else {
      Usage("unknown option " + key);
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

std::string MetaJson(const Args& a, unsigned nproc, uint32_t threads) {
  return std::string("{\"workload\":") + JsonString(a.workload) +
         ",\"seed\":" + std::to_string(a.seed) +
         ",\"scale\":" + FormatNumber(a.scale) +
         ",\"git_sha\":" + JsonString(a.git_sha) +
         ",\"compiler\":" + JsonString(PERFBENCH_COMPILER) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"lto\":" + (PERFBENCH_LTO ? "true" : "false") +
         ",\"fma\":" + (PERFBENCH_FMA ? "true" : "false") +
         ",\"nproc\":" + std::to_string(nproc) +
         ",\"cluster_threads\":" + std::to_string(threads) +
         ",\"src_lines\":" + std::to_string(a.src_lines) + "}";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           FormatNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

struct Timing {
  double wall_s = 0;
  double reference_s = 0;
};

// Runs fn() between two runs of the reference loop.
template <typename Fn>
Timing TimeOnHost(Fn&& fn) {
  const double before = ReferenceLoopSec();
  const double t0 = NowSec();
  fn();
  const double wall = NowSec() - t0;
  const double after = ReferenceLoopSec();
  return {wall, wall * kReferenceLoopSec / (0.5 * (before + after))};
}

// The output checks of a pass; every later pass of a stateless workload
// must also replay the first bit-for-bit.
void CheckPass(const Workload& w, const PassResult& r,
               const PassResult* first) {
  w.CheckPass(r);
  if (first != nullptr && w.Stateless()) {
    Check(SameOutcome(*first, r),
          "a pass differs from the first: the simulation is not "
          "deterministic");
  }
}

// The end-to-end metrics that are simulated, from the first pass.
void SimMetrics(const Workload& w, const PassResult& first, bool full_size,
                std::vector<Metric>* out) {
  // sim_p50_ms is the median over queries that read the disk: a cache hit
  // completes at its arrival, so on skewed_cached the median of all
  // queries is 0. Without a cache every query reads the disk.
  mm::RunningStats disk_served;
  for (const auto& c : first.completions) {
    if (!c.failed && c.submitted_sectors > 0) disk_served.Add(c.LatencyMs());
  }
  const double p99 = first.stats.P99Ms();
  uint64_t beyond = 0;
  for (size_t i = 0; i < first.stats.latency.count(); ++i) {
    if (first.stats.latency.sample(i) > p99) ++beyond;
  }
  std::printf(
      "pass: %llu queries, %zu completed, %llu failed, %zu read the disk, "
      "%llu beyond p99, %llu cells\n",
      static_cast<unsigned long long>(first.queries), first.stats.count(),
      static_cast<unsigned long long>(first.stats.failed),
      disk_served.count(), static_cast<unsigned long long>(beyond),
      static_cast<unsigned long long>(w.cells()));
  // The shrunken self-test sizes are too small for a p99 with a tail.
  Check(beyond >= 10 || !full_size,
        "fewer than 10 completed queries beyond p99");
  Check(disk_served.count() > 0, "no query read the disk");
  out->push_back({"sim_p50_ms", "ms", disk_served.Percentile(50)});
  out->push_back({"sim_p99_ms", "ms", p99});
  out->push_back(
      {"sim_disk_ms_per_cell", "ms",
       first.disk.phases.Total() / static_cast<double>(w.cells())});
}

void WriteTrace(const std::string& path, const Workload& w,
                const HostTracer& tracer, const std::string& meta,
                const std::vector<Metric>& layers) {
  std::string json = mm::obs::ToChromeTraceJson(*w.sim_trace());
  const size_t open = json.find('[');
  Check(open != std::string::npos, "trace export has no event array");
  const bool sim_empty = json[open + 1] == ']';
  json.insert(open + 1,
              "\n" + tracer.ChromeEvents(kHostPid) + (sim_empty ? "" : ","));
  const size_t close = json.rfind('}');
  json.insert(close, ",\"otherData\":{\"meta\":" + meta +
                         ",\"per_layer\":" + MetricsJson(layers) + "}");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << json;
  out.close();
  Check(out.good(), "cannot write trace " + path);
  std::fprintf(stderr, "perfbench: wrote %s (%zu host spans, %zu sim events)\n",
               path.c_str(), tracer.spans().size(), w.sim_trace()->size());
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  Options opts;
  opts.seed = args.seed;
  opts.scale = args.scale;
  opts.threads = args.threads != 0 ? args.threads : std::min(nproc, 4u);
  opts.scratch_dir = args.scratch;
  // Inputs are generated here, before any set-up is timed.
  std::unique_ptr<Workload> w = MakeWorkload(args.workload, opts);
  if (w == nullptr) Usage("unknown workload " + args.workload);
  const std::string meta = MetaJson(args, nproc, opts.threads);
  std::printf("perfbench workload=%s seed=%llu inputs_digest=%016llx\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(w->InputDigest()));

  std::vector<Metric> metrics;
  uint64_t attempted = 0, failed = 0;
  if (!args.trace) {
    // Set-ups are spread evenly through the timed phase, so setup_s and
    // host_qps sample the same host conditions.
    std::vector<double> setup;  // reference seconds
    double setup_wall_s = 0;    // of the first set-up
    auto timed_setup = [&] {
      w->Teardown();
      const Timing t = TimeOnHost([&] { w->Setup(nullptr); });
      if (setup.empty()) setup_wall_s = t.wall_s;
      setup.push_back(t.reference_s);
    };
    timed_setup();
    w->Prepare();
    const size_t setups = std::clamp<size_t>(
        static_cast<size_t>(
            std::ceil(kSetupShare * args.seconds / setup_wall_s)),
        kSetupRepeats, kMaxSetups);
    const double pass_budget = std::max(
        0.0, args.seconds - static_cast<double>(setups) * setup_wall_s);
    std::vector<double> qps, wall_qps;
    PassResult first;
    double pass_s = 0;  // host wall seconds inside passes
    while (static_cast<int>(qps.size()) < kMinPasses ||
           pass_s < pass_budget || setup.size() < setups) {
      if (setup.size() < setups &&
          pass_s >= pass_budget * static_cast<double>(setup.size()) /
                        static_cast<double>(setups)) {
        timed_setup();
      }
      PassResult r;
      const Timing t = TimeOnHost([&] { r = w->Pass(); });
      pass_s += t.wall_s;
      qps.push_back(static_cast<double>(r.queries) / t.reference_s);
      wall_qps.push_back(static_cast<double>(r.queries) / t.wall_s);
      attempted += r.queries;
      failed += r.stats.failed;
      CheckPass(*w, r, qps.size() == 1 ? nullptr : &first);
      if (qps.size() == 1) first = std::move(r);
    }
    std::vector<double> sorted = qps;
    std::sort(sorted.begin(), sorted.end());
    std::printf(
        "timed phase: %zu passes in %.2f s; qps per reference second min "
        "%.6g, quartiles %.6g %.6g %.6g, max %.6g (per wall second: median "
        "%.6g, max %.6g); %zu set-ups, median %.6g s\n",
        qps.size(), pass_s, sorted.front(), sorted[sorted.size() / 4],
        Median(qps), sorted[sorted.size() * 3 / 4], sorted.back(),
        Median(wall_qps), *std::max_element(wall_qps.begin(), wall_qps.end()),
        setup.size(), Median(setup));
    // Medians: the reference loop's own noise scatters single scaled
    // passes both ways, so the fastest one would pick that noise.
    metrics.push_back({"host_qps", "1/s", Median(qps)});
    metrics.push_back({"setup_s", "s", Median(setup)});
    metrics.push_back({"peak_rss_mb", "MiB", PeakRssMb()});
    SimMetrics(*w, first, args.scale >= 1.0, &metrics);
  } else {
    HostTracer tracer;
    w->Setup(&tracer);
    w->Prepare();
    PassResult first;
    std::vector<double> run_s;
    {
      HostTracer::Scope span(&tracer, "bench", "passes");
      for (int i = 0; i < kTracedPasses; ++i) {
        PassResult r = w->Pass();
        CheckPass(*w, r, i == 0 ? nullptr : &first);
        run_s.push_back(r.run_s);
        attempted += r.queries;
        failed += r.stats.failed;
        if (i == 0) first = std::move(r);
      }
    }
    LayerReport layers;
    w->MeasureLayers(first, Median(run_s), &tracer, &layers);
    metrics = layers.metrics();
    for (const Metric& m : metrics) {
      if (m.name == "obs.trace_dropped") {
        Check(m.value == 0, "the trace sink dropped events");
      }
    }
    WriteTrace(args.trace_out, *w, tracer, meta, metrics);
  }

  for (const Metric& m : metrics) {
    std::printf("metric %-34s %16s %s\n", m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str());
  }
  std::printf("{\"meta\": %s}\n", meta.c_str());
  std::printf(
      "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), MetricsJson(metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
