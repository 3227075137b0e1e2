// Measurement plumbing shared by the benchmark's workloads: host clocks,
// host-time spans for the traced run, metric records, the output checks'
// failure path, and the JSON the benchmark prints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Host wall-clock seconds (steady clock).
double NowSec();

/// Host seconds of the fastest of two runs of a fixed reference loop
/// (32768 hash-map inserts and lookups: allocation and pointer chasing, as
/// in the simulator), a few milliseconds. It measures how fast the host
/// runs code right now.
double ReferenceLoopSec();

/// Median of `v` (the mean of the two middle values for even sizes); 0
/// for an empty vector.
double Median(std::vector<double> v);

/// Peak resident set of this process in MiB (VmHWM).
double PeakRssMb();

/// An output check failed: prints the reason and exits with code 1. The
/// benchmark never reports metrics from a run whose outputs are wrong.
[[noreturn]] void Fail(const std::string& what);

/// Fails unless `ok`.
inline void Check(bool ok, const std::string& what) {
  if (!ok) Fail(what);
}

/// One named measurement.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// `value` formatted with all its digits (shortest round-trip form).
std::string FormatNumber(double value);

/// JSON string literal for `s`.
std::string JsonString(const std::string& s);

/// Host-time spans around the benchmark's calls into each layer, kept in
/// memory and written out at exit (traced run only). Untraced code passes
/// a null tracer, which records nothing.
class HostTracer {
 public:
  struct Span {
    std::string layer;
    std::string name;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;  // index into spans(), -1 for a root
  };

  /// RAII span: open on construction, closed on destruction; a no-op for
  /// a null tracer. Spans nest by scope; the innermost open span is the
  /// parent of the next one.
  class Scope {
   public:
    Scope(HostTracer* tracer, const char* layer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HostTracer* tracer_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome trace-event records (comma-separated, no brackets) of every
  /// span on process `pid`, timestamps in microseconds since the first
  /// span opened.
  std::string ChromeEvents(uint32_t pid) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
