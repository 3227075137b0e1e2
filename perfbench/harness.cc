#include "harness.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <unordered_map>

namespace perfbench {

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ReferenceLoopSec() {
  static const std::vector<uint64_t> keys = [] {
    std::vector<uint64_t> k(1u << 15);
    uint64_t z = 1;
    for (uint64_t& v : k) {
      z = z * 6364136223846793005ull + 1442695040888963407ull;
      v = z ^ (z >> 29);
    }
    return k;
  }();
  double best = 1e300;
  for (int rep = 0; rep < 2; ++rep) {
    const double t0 = NowSec();
    std::unordered_map<uint64_t, uint64_t> map;
    for (size_t i = 0; i < keys.size(); ++i) map[keys[i]] = i;
    uint64_t sum = 0;
    for (uint64_t k : keys) sum += map.find(k)->second;
    asm volatile("" : : "r"(sum));  // the lookups must not be optimised out
    best = std::min(best, NowSec() - t0);
  }
  return best;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  Fail("cannot read VmHWM from /proc/self/status");
}

void Fail(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  std::exit(1);
}

std::string FormatNumber(double value) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

HostTracer::Scope::Scope(HostTracer* tracer, const char* layer,
                         std::string name)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  index_ = static_cast<int>(tracer_->spans_.size());
  Span s;
  s.layer = layer;
  s.name = std::move(name);
  s.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  s.start_s = NowSec();
  tracer_->spans_.push_back(std::move(s));
  tracer_->open_.push_back(index_);
}

HostTracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_->spans_[index_].end_s = NowSec();
  tracer_->open_.pop_back();
}

std::string HostTracer::ChromeEvents(uint32_t pid) const {
  std::string out;
  if (spans_.empty()) return out;
  const double t0 = spans_.front().start_s;
  const std::string p = std::to_string(pid);
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + p +
         ",\"tid\":0,\"args\":{\"name\":\"host\"}}";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += ",\n{\"name\":" + JsonString(s.name) +
           ",\"cat\":" + JsonString(s.layer) + ",\"ph\":\"X\",\"ts\":" +
           FormatNumber((s.start_s - t0) * 1e6) +
           ",\"dur\":" + FormatNumber((s.end_s - s.start_s) * 1e6) +
           ",\"pid\":" + p + ",\"tid\":0,\"args\":{\"id\":" +
           std::to_string(i) + ",\"parent\":" + std::to_string(s.parent) +
           "}}";
  }
  return out;
}

}  // namespace perfbench
