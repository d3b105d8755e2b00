// sfbench: one benchmark process.  run.py (the benchmark's command) builds
// this binary and calls it once per measurement; see README.md.
//
//   sfbench --workload <gmg|krylov|jit|distsim> --seed <n> --seconds <s>
//           --trace <0|1> [--setup-only] [--tiny] [--inject-fault]
//
// Untraced (--trace 0): set up with an empty kernel cache and run the
// untimed warm-up op(s) (setup_s ends there), then closed-loop timed ops
// for --seconds, printed as one "# op_ms_samples" line.  --setup-only
// stops after the warm-up.
//
// Traced (--trace 1): the named workload alternates untraced and traced
// ops for --seconds, giving the tracing overhead; then every other
// workload is set up and runs two of each, so one traced run reports
// every layer.
//
// The last stdout line is one JSON object; lines before it starting with
// "# " are host and input facts.

#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <omp.h>

#include "harness.hpp"
#include "support/fingerprint.hpp"
#include "workloads.hpp"

namespace {

using namespace sfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  bool tiny = false;
  bool fault = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      a.workload = value();
    } else if (arg == "--seed") {
      a.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      a.seconds = std::stod(value());
    } else if (arg == "--trace") {
      a.trace = value() != "0";
    } else if (arg == "--setup-only") {
      a.setup_only = true;
    } else if (arg == "--tiny") {
      a.tiny = true;
    } else if (arg == "--inject-fault") {
      a.fault = true;
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// Set up and run the untimed warm-up ops.  Returns seconds, leaving out
/// the checks of the warm-up ops, which count like those of any op.
double setup(Workload& w, bool fault, LoopResult& totals) {
  auto t0 = Clock::now();
  w.setup();
  double s = 0.0;
  for (int i = 0; i < w.warmup_ops(); ++i) {
    w.prepare(static_cast<std::uint64_t>(i));
    w.run(nullptr);
    s += seconds_since(t0);
    ++totals.attempted;
    if (!w.check(fault)) ++totals.failed;
    t0 = Clock::now();
  }
  return s;
}

void add(LoopResult& totals, const LoopResult& r) {
  totals.attempted += r.attempted;
  totals.failed += r.failed;
}

void append(LoopResult& into, const LoopResult& r) {
  add(into, r);
  into.op_ms.insert(into.op_ms.end(), r.op_ms.begin(), r.op_ms.end());
}

void print_facts(const Workload& w) {
  for (const auto& [name, value] : w.facts()) {
    std::printf("# fact %s %s\n", name.c_str(), json_number(value).c_str());
  }
}

void print_host() {
  const auto& fp = snowflake::fingerprint();
  std::printf("# host: fingerprint %s, cpu '%s', nproc %u, omp threads %d, "
              "compiler gcc %s\n",
              fp.id.c_str(), fp.cpu_model.c_str(),
              std::thread::hardware_concurrency(), omp_get_max_threads(),
              __VERSION__);
}

std::string metrics_json(const Metrics& m) {
  std::string s = "{";
  bool first = true;
  for (const auto& [name, metric] : m) {
    if (!first) s += ", ";
    first = false;
    s += '"';
    s += json_escape(name);
    s += "\": {\"value\": ";
    s += json_number(metric.value);
    s += ", \"unit\": \"";
    s += json_escape(metric.unit);
    s += "\"}";
  }
  return s + "}";
}

int run(const Args& a) {
  WorkloadConfig config;
  config.seed = a.seed;
  config.tiny = a.tiny;
  LoopResult totals;
  Metrics metrics;
  print_host();

  if (!a.trace) {
    auto w = make_workload(a.workload, config);
    const double setup_s = setup(*w, a.fault, totals);
    metrics["setup_s"] = {setup_s, "s"};
    if (!a.setup_only) {
      const LoopResult r =
          run_loop(*w, a.seconds, 3, nullptr, a.fault, w->warmup_ops());
      add(totals, r);
      // run.py pools the samples of its processes into op_ms/op_tail_ms.
      std::string line = "# op_ms_samples";
      for (const double ms : r.op_ms) line += " " + json_number(ms);
      std::printf("%s\n", line.c_str());
    }
    print_facts(*w);
  } else {
    // The named workload first.
    std::vector<std::string> order = {a.workload};
    for (const auto& n : workload_names()) {
      if (n != a.workload) order.push_back(n);
    }
    make_workload(a.workload, config);  // rejects unknown names up front
    for (const auto& name : order) {
      const bool own = name == a.workload;
      auto w = make_workload(name, config);
      setup(*w, a.fault, totals);
      // Untraced and traced ops alternate, so drift in the host's speed
      // cancels out of the overhead.
      LoopResult plain, traced;
      Recorder rec;
      auto index = static_cast<std::uint64_t>(w->warmup_ops());
      const auto start = Clock::now();
      while (traced.attempted < 2 ||
             (own && seconds_since(start) < a.seconds)) {
        append(plain, run_loop(*w, 0.0, 1, nullptr, a.fault, index++));
        append(traced, run_loop(*w, 0.0, 1, &rec, a.fault, index++));
      }
      add(totals, plain);
      add(totals, traced);
      const double plain_ms = median(plain.op_ms);
      if (own) {
        const double traced_ms = median(traced.op_ms);
        metrics["trace.op_ms"] = {traced_ms, "ms"};
        metrics["trace.untraced_op_ms"] = {plain_ms, "ms"};
        metrics["trace.overhead_ms"] = {traced_ms - plain_ms, "ms"};
      }
      w->layer_metrics(rec, plain_ms, metrics);
      print_facts(*w);
    }
  }

  std::printf("{\"workload\": \"%s\", \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              json_escape(a.workload).c_str(),
              static_cast<long long>(totals.attempted),
              static_cast<long long>(totals.failed),
              metrics_json(metrics).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sfbench: %s\n", e.what());
    return 2;
  }
}
