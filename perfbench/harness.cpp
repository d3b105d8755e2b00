#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>

namespace sfbench {

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return mix(mix(mix(a) ^ b) ^ c);
}

double unit_range(std::uint64_t h, double lo, double hi) {
  const double unit = static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return lo + unit * (hi - lo);
}

double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

const std::vector<double>* Recorder::samples(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? nullptr : &it->second;
}

void Recorder::median_into(Metrics& out, const std::string& name,
                           const std::string& unit) const {
  if (const auto* s = samples(name); s != nullptr && !s->empty()) {
    out[name] = Metric{median(*s), unit};
  }
}

LoopResult run_loop(Workload& w, double seconds, int min_ops, Recorder* rec,
                    bool fault, std::uint64_t first_op_index) {
  LoopResult r;
  const auto start = Clock::now();
  std::uint64_t index = first_op_index;
  while (r.attempted < min_ops || seconds_since(start) < seconds) {
    ++r.attempted;
    bool ok = false;
    try {
      w.prepare(index++);
      const auto t0 = Clock::now();
      w.run(rec);
      r.op_ms.push_back(seconds_since(t0) * 1e3);
      ok = w.check(fault);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "sfbench: op %lld threw: %s\n",
                   static_cast<long long>(r.attempted), e.what());
    }
    if (!ok) ++r.failed;
  }
  return r;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace sfbench
