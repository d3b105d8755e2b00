#pragma once
// Measurement harness of the repository benchmark: the closed-loop op
// runner, sample statistics, the recorder that collects per-layer samples
// in traced runs, and the JSON line sfbench prints for run.py.
//
// Tracing here is the benchmark's own: it times calls into each module's
// public functions from this side of the API and reads the program's
// always-on counters.  It never enables the library's SNOWFLAKE_TRACE
// span recorder.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace sfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// splitmix64 step: derives every input of a run from the workload seed.
std::uint64_t mix(std::uint64_t x);
/// mix() over several words (order-sensitive).
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c = 0);
/// Uniform double in [lo, hi) from a hash.
double unit_range(std::uint64_t h, double lo, double hi);

double median(std::vector<double> v);

/// A named metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Per-layer sample sink for traced runs: named samples (timings and
/// per-op counts), reported as their median.
class Recorder {
public:
  void sample(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  const std::vector<double>* samples(const std::string& name) const;
  /// Median of the samples of `name` into `out` with `unit` (no-op when
  /// there are none).
  void median_into(Metrics& out, const std::string& name,
                   const std::string& unit) const;

private:
  std::map<std::string, std::vector<double>> samples_;
};

/// RAII timer around one call into a layer: adds its duration in
/// microseconds to `rec` under `name`.  A null recorder times nothing.
class Span {
public:
  Span(Recorder* rec, std::string name) : rec_(rec), name_(std::move(name)) {
    if (rec_ != nullptr) start_ = Clock::now();
  }
  ~Span() {
    if (rec_ != nullptr) rec_->sample(name_, seconds_since(start_) * 1e6);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  Recorder* rec_;
  std::string name_;
  Clock::time_point start_{};
};

/// One workload as the closed-loop runner sees it.
class Workload {
public:
  virtual ~Workload() = default;
  /// Build solvers and compile kernels (cold JIT cache).
  virtual void setup() = 0;
  /// Untimed warm-up ops that end set-up (op indices 0 .. n-1; timed ops
  /// continue from n).
  virtual int warmup_ops() const { return 1; }
  /// Untimed per-op preparation: fresh inputs, state reset.
  virtual void prepare(std::uint64_t op_index) = 0;
  /// The timed op.  `rec` non-null = traced: time each layer call.
  virtual void run(Recorder* rec) = 0;
  /// Untimed correctness check of the op just run.  With `fault` the
  /// check compares against a deliberately wrong expected answer (the
  /// harness self-test), so it must report failure.
  virtual bool check(bool fault) = 0;
  /// Layer metrics derived from the traced ops (and any probes the
  /// workload runs once after them).  `op_ms` is the median untraced op
  /// of the same process, for ratios against a comparator.
  virtual void layer_metrics(const Recorder& rec, double op_ms,
                             Metrics& out) = 0;
  /// Deterministic facts of the run's inputs for the same-seed check
  /// (name -> value), e.g. iteration counts or a program-set hash.
  virtual std::map<std::string, double> facts() const { return {}; }
};

/// Result of a closed loop of ops.
struct LoopResult {
  std::vector<double> op_ms;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// Run ops one at a time until `seconds` elapse (at least `min_ops`).
/// Exceptions thrown by an op count as failures; the loop continues.
LoopResult run_loop(Workload& w, double seconds, int min_ops, Recorder* rec,
                    bool fault, std::uint64_t first_op_index);

/// JSON string escaping for names and messages.
std::string json_escape(const std::string& s);
/// A double with all its digits (round-trip), C locale.
std::string json_number(double v);

}  // namespace sfbench
