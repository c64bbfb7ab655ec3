// Shared plumbing of the craft-bench binary: wall clock, process resource
// usage, and a small JSON emitter that prints doubles with all their digits.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace craftbench {

using WallClock = std::chrono::steady_clock;

inline double SecondsSince(WallClock::time_point t0) {
  return std::chrono::duration<double>(WallClock::now() - t0).count();
}

/// User + system CPU seconds of the whole process (all threads).
inline double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/// Peak resident set of this process, in MiB.
inline double PeakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One-line JSON object builder over craft::json::Writer; Num() keeps 17
/// significant digits so no measured value is rounded away.
class JsonLine {
 public:
  JsonLine& Key(const std::string& k) {
    w_.Sep(&first_, "", ", ").Key(k);
    return *this;
  }
  JsonLine& Num(const std::string& k, double v) {
    Key(k);
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    w_.Raw(buf);
    return *this;
  }
  JsonLine& U64(const std::string& k, std::uint64_t v) {
    Key(k).w_.U64(v);
    return *this;
  }
  JsonLine& Str(const std::string& k, const std::string& v) {
    Key(k).w_.String(v);
    return *this;
  }
  JsonLine& Bool(const std::string& k, bool v) {
    Key(k).w_.Bool(v);
    return *this;
  }
  /// Inserts an already-serialized JSON value.
  JsonLine& Raw(const std::string& k, const std::string& json) {
    Key(k).w_.Raw(json);
    return *this;
  }
  std::string Take() {
    std::string s(1, '{');
    s += w_.str();
    s += '}';
    return s;
  }

 private:
  craft::json::Writer w_;
  bool first_ = true;
};

inline std::string NumArray(const std::vector<double>& v) {
  std::string s = "[";
  char buf[40];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", v[i]);
    s += (i == 0 ? "" : ", ");
    s += buf;
  }
  return s + "]";
}

/// What the binary was built with, for the run stamp.
inline std::string BuildStamp() {
  return JsonLine().Str("build_type", CRAFT_BENCH_BUILD_TYPE)
      .Str("compiler", CRAFT_BENCH_COMPILER).Take();
}

}  // namespace craftbench
