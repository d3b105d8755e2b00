#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include <omp.h>

#include "backend/backend.hpp"
#include "backend/distsim/distsim_backend.hpp"
#include "backend/jit/jit_backend.hpp"
#include "jit/cache.hpp"
#include "multigrid/baseline/hand_solver.hpp"
#include "multigrid/operators.hpp"
#include "multigrid/solver.hpp"
#include "roofline/stream.hpp"
#include "solver/blas1.hpp"
#include "solver/krylov.hpp"
#include "support/hash.hpp"
#include "trace/profile.hpp"
#include "verify/differ.hpp"
#include "verify/generate.hpp"

namespace sfbench {

using namespace snowflake;

namespace {

constexpr double kRtol = 1e-10;

std::uint64_t total_runs() {
  return trace::ProfileRegistry::instance().total_invocations();
}

/// Deep copy of every grid of a set (GridSet copies share storage).
GridSet deep_copy(const GridSet& src) {
  GridSet out;
  for (const auto& name : src.names()) out.add(name, Grid(src.at(name)));
  return out;
}

void copy_into(Grid& dst, const Grid& src) {
  std::copy(src.data(), src.data() + src.size(), dst.data());
}

std::string level_name(const char* base, size_t l) {
  return std::string(base) + ".L" + std::to_string(l);
}

/// Last-level cache bytes of cpu0 (sysfs), 0 when unknown.
double llc_bytes() {
  double best = 0.0;
  for (int idx = 0; idx < 8; ++idx) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(idx) + "/size");
    std::string text;
    if (!(in >> text) || text.empty()) continue;
    double v = std::atof(text.c_str());
    const char suffix = text.back();
    if (suffix == 'K') v *= 1024.0;
    if (suffix == 'M') v *= 1024.0 * 1024.0;
    if (suffix == 'G') v *= 1024.0 * 1024.0 * 1024.0;
    best = std::max(best, v);
  }
  return best;
}

// ---------------------------------------------------------------------------
// gmg: one solve_to_tolerance(1e-10) from a zero guess per op, openmp
// backend, default CompileOptions.  The paper's Fig. 9 figure of merit.

class GmgWorkload final : public Workload {
public:
  explicit GmgWorkload(const WorkloadConfig& c) : config_(c) {
    spec_.rank = 3;
    // 64^3 even for the self-test: the per-level metric names assume its
    // six levels, and set-up (JIT compiles) dominates at any size.
    spec_.n = 64;
    spec_.beta_min = beta_min_for_seed(c.seed);
  }

  void setup() override {
    mg::Solver::Config cfg;
    cfg.problem = spec_;
    cfg.backend = "openmp";
    solver_ = std::make_unique<mg::Solver>(std::move(cfg));
    for (size_t l = 0; l < solver_->num_levels(); ++l) {
      names_.push_back({level_name("multigrid.smooth_us", l),
                        level_name("multigrid.residual_us", l),
                        level_name("multigrid.restrict_us", l),
                        level_name("multigrid.interp_us", l)});
    }
  }

  void prepare(std::uint64_t) override {}

  void run(Recorder* rec) override {
    const std::uint64_t runs0 = total_runs();
    cycles_ = rec == nullptr ? solver_->solve_to_tolerance(kRtol, kMaxCycles)
                             : traced_solve(rec);
    if (rec != nullptr) {
      rec->sample("backend.runs_per_op",
                  static_cast<double>(total_runs() - runs0));
    }
  }

  bool check(bool fault) override {
    if (expected_cycles_ == 0) expected_cycles_ = cycles_;  // warm-up op
    const int expected = expected_cycles_ + (fault ? 1 : 0);
    const double err = solver_->error_vs_exact();
    const bool ok = cycles_ <= kMaxCycles && cycles_ == expected &&
                    err <= kErrTol;
    if (!ok) {
      std::fprintf(stderr,
                   "sfbench gmg: check failed: cycles %d (expected %d), "
                   "error %.3e (tol %.1e)\n",
                   cycles_, expected, err, kErrTol);
    }
    return ok;
  }

  void layer_metrics(const Recorder& rec, double op_ms,
                     Metrics& out) override {
    for (size_t l = 0; l < names_.size(); ++l) {
      for (const auto& name : names_[l]) rec.median_into(out, name, "us");
    }
    out["multigrid.cycles"] = {static_cast<double>(expected_cycles_), "count"};
    rec.median_into(out, "backend.runs_per_op", "count");
    hand_probe(op_ms, out);
    roofline_probe(rec, out);
    all_cores_probe(op_ms, out);
  }

  std::map<std::string, double> facts() const override {
    return {{"gmg.cycles", static_cast<double>(expected_cycles_)},
            {"gmg.beta_min", spec_.beta_min}};
  }

private:
  static constexpr int kMaxCycles = 50;
  /// The manufactured discrete solution is exactly u*, so a solve to
  /// rtol 1e-10 leaves an error at that scale; 1e-8 leaves margin.
  static constexpr double kErrTol = 1e-8;

  int traced_solve(Recorder* rec) {
    // solve_to_tolerance() rebuilt from the public per-level calls, so each
    // call can be timed; check() proves it matches the untimed op exactly.
    solver_->level(0).grids().at(mg::kX).fill(0.0);
    const double r0 = solver_->residual_norm();
    for (int c = 1; c <= kMaxCycles; ++c) {
      traced_vcycle(0, rec);
      if (solver_->residual_norm() <= kRtol * r0) return c;
    }
    return kMaxCycles + 1;
  }

  void traced_smooths(size_t l, int count, Recorder* rec) {
    for (int i = 0; i < count; ++i) {
      Span s(rec, names_[l][0]);
      solver_->smooth(l);
    }
  }

  void traced_vcycle(size_t l, Recorder* rec) {
    const auto& cfg = solver_->config();
    if (l + 1 == solver_->num_levels()) {
      traced_smooths(l, cfg.bottom_smooth, rec);
      return;
    }
    traced_smooths(l, cfg.pre_smooth, rec);
    {
      Span s(rec, names_[l][1]);
      solver_->residual(l);
    }
    {
      Span s(rec, names_[l][2]);
      solver_->restrict_residual(l);
    }
    solver_->level(l + 1).grids().at(mg::kX).fill(0.0);
    for (int g = 0; g < cfg.cycle_gamma; ++g) traced_vcycle(l + 1, rec);
    {
      Span s(rec, names_[l][3]);
      solver_->prolongate_add(l);
    }
    traced_smooths(l, cfg.post_smooth, rec);
  }

  /// The same solve with one OpenMP thread per core.  The benchmark runs
  /// single-threaded because multi-threaded solves swing with hypervisor
  /// steal on shared hosts; this layer figure shows parallel scaling.
  void all_cores_probe(double op_ms, Metrics& out) {
    const int threads = omp_get_max_threads();
    omp_set_num_threads(omp_get_num_procs());
    std::vector<double> ms;
    for (int rep = 0; rep < 9; ++rep) {
      const auto t0 = Clock::now();
      const int cycles = solver_->solve_to_tolerance(kRtol, kMaxCycles);
      ms.push_back(seconds_since(t0) * 1e3);
      if (cycles != expected_cycles_ || solver_->error_vs_exact() > kErrTol) {
        omp_set_num_threads(threads);
        throw std::runtime_error("all-core gmg solve failed its check");
      }
    }
    omp_set_num_threads(threads);
    out["multigrid.allcore_solve_ms"] = {median(ms), "ms"};
    out["multigrid.allcore_speedup"] = {op_ms / median(ms), "ratio"};
    out["multigrid.allcore_threads"] = {
        static_cast<double>(omp_get_num_procs()), "count"};
  }

  /// The hand-written HPGMG comparator on the same problem.
  void hand_probe(double op_ms, Metrics& out) {
    mg::HandSolver::Config hc;
    hc.problem = spec_;
    mg::HandSolver hand(hc);
    std::vector<double> solve_ms;
    for (int rep = 0; rep < 5; ++rep) {
      const auto t0 = Clock::now();
      hand.level(0).grids().at(mg::kX).fill(0.0);
      const double r0 = hand.residual_norm();
      int c = 1;
      for (; c <= kMaxCycles; ++c) {
        hand.vcycle(0);
        if (hand.residual_norm() <= kRtol * r0) break;
      }
      solve_ms.push_back(seconds_since(t0) * 1e3);
      if (c > kMaxCycles || hand.error_vs_exact() > kErrTol) {
        throw std::runtime_error("hand comparator did not converge");
      }
    }
    const double hand_ms = median(solve_ms);
    out["hand.solve_ms"] = {hand_ms, "ms"};
    out["multigrid.vs_hand"] = {hand_ms / op_ms, "ratio"};
    for (size_t l = 0; l < hand.num_levels(); ++l) {
      std::vector<double> us;
      for (int rep = 0; rep < 30; ++rep) {
        const auto t0 = Clock::now();
        hand.smooth(l);
        us.push_back(seconds_since(t0) * 1e6);
      }
      out[level_name("hand.smooth_us", l)] = {median(us), "us"};
    }
  }

  /// Finest-level GSRB bandwidth (static traffic model from the
  /// always-on ProfileRegistry) against STREAM measured in this run.
  void roofline_probe(const Recorder& rec, Metrics& out) {
    const double llc = llc_bytes();
    // Arrays of at least 4x the LLC so the STREAM kernels run from DRAM.
    const double array_bytes =
        config_.tiny ? 32.0 * 1024 * 1024
                     : std::max(4.0 * llc, 256.0 * 1024 * 1024);
    const auto elements = static_cast<std::size_t>(array_bytes / 8.0);
    const StreamResult dot = measure_stream_dot(elements, 4);
    const StreamResult triad = measure_stream_triad(elements, 4);
    std::printf("# roofline: llc %.1f MiB, stream arrays %.1f MiB each "
                "(dot 2 arrays, triad 3), dot %.2f GB/s, triad %.2f GB/s\n",
                llc / (1024.0 * 1024.0), array_bytes / (1024.0 * 1024.0),
                dot.best_bytes_per_s / 1e9, triad.best_bytes_per_s / 1e9);
    out["roofline.stream_dot_gbps"] = {dot.best_bytes_per_s / 1e9, "GB/s"};
    out["roofline.stream_triad_gbps"] = {triad.best_bytes_per_s / 1e9, "GB/s"};
    out["roofline.array_mib"] = {array_bytes / (1024.0 * 1024.0), "MiB"};
    out["roofline.llc_mib"] = {llc / (1024.0 * 1024.0), "MiB"};

    const std::string label = kernel_label(
        mg::gsrb_smooth_group(3), shapes_of(solver_->level(0).grids()));
    double bytes = 0.0;
    for (const auto& p : trace::ProfileRegistry::instance().snapshot()) {
      if (p.label == label && p.backend == "openmp") bytes = p.bytes_per_run;
    }
    const auto* l0 = rec.samples(names_[0][0]);
    if (bytes > 0.0 && l0 != nullptr && !l0->empty()) {
      const double gbps = bytes / (median(*l0) * 1e-6) / 1e9;
      out["kernel.gsrb_gbps.L0"] = {gbps, "GB/s"};
      out["kernel.gsrb_roofline_pct.L0"] = {
          100.0 * gbps / (dot.best_bytes_per_s / 1e9), "%"};
      out["kernel.gsrb_roofline_triad_pct.L0"] = {
          100.0 * gbps / (triad.best_bytes_per_s / 1e9), "%"};
    }
  }

  WorkloadConfig config_;
  mg::ProblemSpec spec_;
  std::unique_ptr<mg::Solver> solver_;
  std::vector<std::vector<std::string>> names_;  // [level][phase]
  int cycles_ = 0;
  int expected_cycles_ = 0;
};

// ---------------------------------------------------------------------------
// krylov: per op, one plain CG and one MG-preconditioned CG solve at 64^3
// on the sequential c backend: the Krylov tier's launches and reductions,
// no OpenMP.  The two BiCGStab solves (plain and MG-preconditioned) are
// layer probes of traced runs.

class KrylovWorkload final : public Workload {
public:
  explicit KrylovWorkload(const WorkloadConfig& c) : config_(c) {
    spec_.rank = 3;
    spec_.n = c.tiny ? 8 : 64;
    spec_.beta_min = beta_min_for_seed(c.seed);
  }

  void setup() override {
    solver::KrylovSolver::Config cfg;
    cfg.problem = spec_;
    cfg.backend = "c";
    cfg.rtol = kRtol;
    plain_ = std::make_unique<solver::KrylovSolver>(cfg);
    cfg.precondition = true;
    precond_ = std::make_unique<solver::KrylovSolver>(cfg);
  }

  void prepare(std::uint64_t) override {}

  void run(Recorder* rec) override {
    for (auto& solve : op_solves_) run_solve(solve, rec);
  }

  bool check(bool fault) override {
    bool ok = true;
    for (auto& solve : op_solves_) {
      // The warm-up op fixes the counts; the c backend repeats them exactly.
      if (solve.expected_iters == 0) solve.expected_iters = solve.stats.iterations;
      const int expected = solve.expected_iters + (fault ? 1 : 0);
      if (!solve.stats.converged || solve.stats.iterations != expected) {
        std::fprintf(stderr,
                     "sfbench krylov: %s took %d iterations (converged %d), "
                     "expected %d\n",
                     solve.name.c_str(), solve.stats.iterations,
                     solve.stats.converged ? 1 : 0, expected);
        ok = false;
      }
    }
    return ok;
  }

  void layer_metrics(const Recorder& rec, double, Metrics& out) override {
    for (const auto& solve : op_solves_) report(rec, solve, out);
    // The BiCGStab probes: a few solves each, every one converged with
    // the first one's iteration count, or no metric (run.py then fails).
    Recorder probe_rec;
    for (auto& solve : probe_solves_) {
      bool ok = true;
      for (int rep = 0; rep < kProbeSolves; ++rep) {
        run_solve(solve, &probe_rec);
        if (solve.expected_iters == 0) solve.expected_iters = solve.stats.iterations;
        ok = ok && solve.stats.converged &&
             solve.stats.iterations == solve.expected_iters;
      }
      if (ok) {
        report(probe_rec, solve, out);
      } else {
        std::fprintf(stderr, "sfbench krylov: %s probe did not converge "
                             "repeatably\n", solve.name.c_str());
      }
    }
    probes(out);
  }

  std::map<std::string, double> facts() const override {
    std::map<std::string, double> f = {{"krylov.beta_min", spec_.beta_min}};
    for (const auto& solve : op_solves_) {
      f["krylov." + solve.name + "_iters"] = solve.expected_iters;
    }
    return f;
  }

private:
  using Method = solver::KrylovSolver::Method;
  struct Solve {
    std::string name;
    Method method;
    bool precondition;
    solver::KrylovStats stats;
    int expected_iters = 0;
  };

  static constexpr int kProbeSolves = 3;

  void run_solve(Solve& solve, Recorder* rec) {
    const std::uint64_t runs0 = total_runs();
    {
      Span s(rec, "solver." + solve.name + "_us");
      solve.stats = (solve.precondition ? precond_ : plain_)->solve(solve.method);
    }
    if (rec != nullptr) {
      rec->sample("solver." + solve.name + "_launches",
                  static_cast<double>(total_runs() - runs0));
    }
  }

  static void report(const Recorder& rec, const Solve& solve, Metrics& out) {
    const std::string& m = solve.name;
    const auto* us = rec.samples("solver." + m + "_us");
    const auto* launches = rec.samples("solver." + m + "_launches");
    const int iters = solve.expected_iters;
    if (us == nullptr || launches == nullptr || iters <= 0) return;
    const double med_us = median(*us);
    out["solver." + m + "_ms"] = {med_us / 1e3, "ms"};
    out["solver." + m + "_iters"] = {static_cast<double>(iters), "count"};
    out["solver." + m + "_iter_us"] = {med_us / iters, "us"};
    out["solver.launches_per_" + m + "_iter"] = {median(*launches) / iters,
                                                 "count"};
  }

  /// Standalone timings of the pieces a Krylov iteration is made of.
  void probes(Metrics& out) {
    {
      // The preconditioner: one V-cycle of the same multigrid solver the
      // MG-CG solve builds (same problem, backend and options).
      mg::Solver::Config mc;
      mc.problem = spec_;
      mc.backend = "c";
      mg::Solver mg(std::move(mc));
      std::vector<double> us;
      for (int rep = 0; rep < 30; ++rep) {
        const auto t0 = Clock::now();
        mg.vcycle(0);
        us.push_back(seconds_since(t0) * 1e6);
      }
      out["solver.precond_vcycle_us"] = {median(us), "us"};
    }
    const Index box(3, spec_.n + 2);
    GridSet g;
    g.add_zeros("a", box).fill_random(mix(config_.seed, 11), -1.0, 1.0);
    g.add_zeros("b", box).fill_random(mix(config_.seed, 12), -1.0, 1.0);
    g.add_zeros("out", solver::scalar_shape(3));
    const auto time_kernel = [&](CompiledKernel& k, const ParamMap& params,
                                 int reps) {
      std::vector<double> us;
      for (int rep = 0; rep < reps; ++rep) {
        const auto t0 = Clock::now();
        k.run(g, params);
        us.push_back(seconds_since(t0) * 1e6);
      }
      return median(us);
    };
    auto dot = compile(solver::dot_group(3, "a", "b", "out"), g, "c");
    out["blas1.dot_us"] = {time_kernel(*dot, {}, 200), "us"};
    auto axpy = compile(solver::axpy_group(3, "a", "b"), g, "c");
    out["blas1.axpy_us"] = {time_kernel(*axpy, {{"alpha", 1e-3}}, 200), "us"};

    // Launch floor: a one-interior-cell copy, so run() is all dispatch.
    GridSet t;
    t.add_zeros("y", Index(3, 3));
    t.add_zeros("x", Index(3, 3)).fill(1.0);
    auto floor_k = compile(solver::copy_group(3, "y", "x"), t, "c");
    std::vector<double> us;
    for (int rep = 0; rep < 2000; ++rep) {
      const auto t0 = Clock::now();
      floor_k->run(t);
      us.push_back(seconds_since(t0) * 1e6);
    }
    out["backend.run_floor_us"] = {median(us), "us"};
  }

  WorkloadConfig config_;
  mg::ProblemSpec spec_;
  std::unique_ptr<solver::KrylovSolver> plain_, precond_;
  std::vector<Solve> op_solves_ = {{"cg", Method::CG, false, {}},
                                   {"mgcg", Method::CG, true, {}}};
  std::vector<Solve> probe_solves_ = {
      {"bicgstab", Method::BiCGStab, false, {}},
      {"mgbicgstab", Method::BiCGStab, true, {}}};
};

// ---------------------------------------------------------------------------
// jit: per op, one snowcheck program never seen before in the process,
// compiled cold through the openmp backend and run once, then recompiled
// warm (a KernelCache memory hit).  The compiler path with almost no
// kernel time.

class JitWorkload final : public Workload {
public:
  explicit JitWorkload(const WorkloadConfig& c) : config_(c) {}

  void setup() override {}
  /// A first-time user's set-up is a warm batch, not one compile: a single
  /// cold compile reads 0.05-0.19 s and moves far more than its bound.
  int warmup_ops() const override { return kWarmup; }

  void prepare(std::uint64_t op_index) override {
    program_ = program(op_index);
    grids_ = program_.materialize();
  }

  void run(Recorder* rec) override {
    const KernelCache::Stats s0 = KernelCache::instance().stats();
    const ShapeMap shapes = program_.shapes();
    {
      Span s(rec, "jit.cold_compile_us");
      kernel_ = compile(program_.group, shapes, "openmp");
    }
    {
      Span s(rec, "jit.first_run_us");
      kernel_->run(grids_, program_.params);
    }
    {
      Span s(rec, "jit.warm_compile_us");
      compile(program_.group, shapes, "openmp");
    }
    if (rec != nullptr) {
      const KernelCache::Stats s1 = KernelCache::instance().stats();
      rec->sample("jit.compiles_per_op",
                  static_cast<double>(s1.compiles - s0.compiles));
      rec->sample("jit.memory_hits_per_op",
                  static_cast<double>(s1.memory_hits - s0.memory_hits));
    }
  }

  bool check(bool fault) override {
    GridSet expected = program_.materialize();
    compile(program_.group, expected, "reference")
        ->run(expected, program_.params);
    if (fault) expected.at(expected.names().front())[0] += 1.0;
    bool ok = true;
    for (const auto& name : expected.names()) {
      // The differ's tolerance, relative once values exceed 1: default
      // (native-order) sum reductions over grids of magnitude 1e3-1e4 land
      // a few ulps, up to ~4e-11, from the reference's pairwise tree.
      const Grid& ref = expected.at(name);
      const double tol = snowcheck::kDefaultTol * std::max(1.0, ref.norm_max());
      const double diff = Grid::max_abs_diff(ref, grids_.at(name));
      if (diff > tol) {
        std::fprintf(stderr,
                     "sfbench jit: grid '%s' differs from the reference by "
                     "%.3e (tol %.1e)\n",
                     name.c_str(), diff, tol);
        ok = false;
      }
    }
    return ok;
  }

  void layer_metrics(const Recorder& rec, double, Metrics& out) override {
    const auto ms = [&](const char* name) {
      const auto* s = rec.samples(name);
      return s == nullptr ? 0.0 : median(*s) / 1e3;
    };
    out["jit.cold_compile_ms"] = {ms("jit.cold_compile_us"), "ms"};
    out["jit.warm_compile_ms"] = {ms("jit.warm_compile_us"), "ms"};
    out["jit.toolchain_ms"] = {
        ms("jit.cold_compile_us") - ms("jit.warm_compile_us"), "ms"};
    rec.median_into(out, "jit.first_run_us", "us");
    rec.median_into(out, "jit.compiles_per_op", "count");
    rec.median_into(out, "jit.memory_hits_per_op", "count");

    // Compile stages, timed outside the ops on the programs of the first
    // kStageProbe timed ops, so the figures repeat for a seed.
    std::vector<double> sched_ms, plan_ms, render_ms;
    const CompileOptions opts;
    for (std::uint64_t op = kWarmup; op < kWarmup + kStageProbe; ++op) {
      const snowcheck::Program p = program(op);
      const ShapeMap shapes = p.shapes();
      auto t0 = Clock::now();
      build_schedule(p.group, shapes, opts);
      sched_ms.push_back(seconds_since(t0) * 1e3);
      t0 = Clock::now();
      build_plan(p.group, shapes, opts);
      plan_ms.push_back(seconds_since(t0) * 1e3);
      t0 = Clock::now();
      render_source(p.group, shapes, opts, true);
      render_ms.push_back(seconds_since(t0) * 1e3);
    }
    out["analysis.schedule_ms"] = {median(sched_ms), "ms"};
    out["codegen.plan_ms"] = {median(plan_ms), "ms"};
    out["codegen.render_ms"] = {median(render_ms), "ms"};
    out["codegen.source_kb"] = {source_kb(), "KiB"};
  }

  std::map<std::string, double> facts() const override {
    // Equal seeds give equal program sets (and so equal source sizes).
    HashStream h;
    for (std::uint64_t op = kWarmup; op < kWarmup + kStageProbe; ++op) {
      h.add(program(op).describe());
    }
    return {{"jit.program_set", static_cast<double>(h.digest() >> 11)},
            {"jit.source_kb", source_kb()}};
  }

private:
  static constexpr int kWarmup = 8;
  static constexpr std::uint64_t kStageProbe = 8;

  /// The program of op `op_index`: 0 .. kWarmup-1 are the set-up batch,
  /// never one of the timed programs that follow.
  snowcheck::Program program(std::uint64_t op_index) const {
    return snowcheck::generate_program(mix(config_.seed, op_index));
  }

  /// Mean generated-source size over the first kStageProbe timed programs.
  double source_kb() const {
    double bytes = 0.0;
    for (std::uint64_t op = kWarmup; op < kWarmup + kStageProbe; ++op) {
      const snowcheck::Program p = program(op);
      bytes += static_cast<double>(
          render_source(p.group, p.shapes(), CompileOptions{}, true).size());
    }
    return bytes / 1024.0 / static_cast<double>(kStageProbe);
  }

  WorkloadConfig config_;
  snowcheck::Program program_;
  GridSet grids_;
  std::unique_ptr<CompiledKernel> kernel_;
};

// ---------------------------------------------------------------------------
// distsim: per op, 10 GSRB smooths on the simulated distributed backend at
// 128^3 over 4 Cartesian ranks (one thread per rank).

class DistsimWorkload final : public Workload {
public:
  explicit DistsimWorkload(const WorkloadConfig& c) : config_(c) {
    spec_.rank = 3;
    spec_.n = c.tiny ? 16 : 128;
    spec_.beta_min = beta_min_for_seed(c.seed);
  }

  void setup() override {
    level_ = std::make_unique<mg::Level>(spec_, spec_.n);
    GridSet& g = level_->grids();
    g.at(mg::kX).fill_random(mix(config_.seed, 21), -1.0, 1.0);
    g.at(mg::kRhs).fill_random(mix(config_.seed, 22), -1.0, 1.0);
    params_ = {{"h2inv", level_->h2inv()}};
    compile(mg::lambda_setup_group(3), g, "c")->run(g, params_);
    initial_x_ = g.at(mg::kX);

    CompileOptions opt;
    opt.dist_grid = {kRanks};
    kernel_ = compile(mg::gsrb_smooth_group(3), g, "distsim", opt);
    info_ = dynamic_cast<const DistSimKernelInfo*>(kernel_.get());
    if (info_ == nullptr) throw std::runtime_error("distsim kernel lacks info");

    // Expected answer: the same smooths on the sequential c backend.
    GridSet ref = deep_copy(g);
    auto c_kernel = compile(mg::gsrb_smooth_group(3), ref, "c");
    for (int s = 0; s < kSmooths; ++s) c_kernel->run(ref, params_);
    expected_x_ = ref.at(mg::kX);
  }

  void prepare(std::uint64_t) override {
    copy_into(level_->grids().at(mg::kX), initial_x_);
  }

  void run(Recorder* rec) override {
    GridSet& g = level_->grids();
    for (int s = 0; s < kSmooths; ++s) {
      {
        Span span(rec, "distsim.smooth_us");
        kernel_->run(g, params_);
      }
      if (rec != nullptr) record_stats(rec);
    }
  }

  bool check(bool fault) override {
    Grid expected = expected_x_;
    if (fault) expected[expected.size() / 2] += 1.0;
    const double diff = Grid::max_abs_diff(expected, level_->grids().at(mg::kX));
    if (diff > snowcheck::kDefaultTol) {
      std::fprintf(stderr,
                   "sfbench distsim: x differs from the c backend by %.3e\n",
                   diff);
      return false;
    }
    return true;
  }

  void layer_metrics(const Recorder& rec, double, Metrics& out) override {
    for (const char* name : {"distsim.compute_ms", "distsim.pack_ms",
                             "distsim.wait_ms", "distsim.stall_ms"}) {
      rec.median_into(out, name, "ms");
    }
    rec.median_into(out, "distsim.imbalance", "ratio");
    out["distsim.halo_bytes"] = {info_->last_halo_bytes(), "B"};
    out["distsim.messages"] = {
        static_cast<double>(info_->last_halo_messages()), "count"};
    out["distsim.ranks"] = {static_cast<double>(info_->ranks()), "count"};
  }

  std::map<std::string, double> facts() const override {
    return {{"distsim.halo_bytes", info_ ? info_->last_halo_bytes() : 0.0},
            {"distsim.beta_min", spec_.beta_min}};
  }

private:
  static constexpr int kRanks = 4;
  static constexpr int kSmooths = 10;

  void record_stats(Recorder* rec) {
    double compute = 0.0, pack = 0.0, wait = 0.0, stall = 0.0, sum = 0.0;
    const auto stats = info_->last_rank_stats();
    for (const auto& s : stats) {
      compute = std::max(compute, s.compute_seconds);
      pack = std::max(pack, s.pack_seconds);
      wait = std::max(wait, s.wait_seconds);
      stall = std::max(stall, s.stall_seconds);
      sum += s.compute_seconds;
    }
    rec->sample("distsim.compute_ms", compute * 1e3);
    rec->sample("distsim.pack_ms", pack * 1e3);
    rec->sample("distsim.wait_ms", wait * 1e3);
    rec->sample("distsim.stall_ms", stall * 1e3);
    if (sum > 0.0) {
      rec->sample("distsim.imbalance",
                  compute / (sum / static_cast<double>(stats.size())));
    }
  }

  WorkloadConfig config_;
  mg::ProblemSpec spec_;
  std::unique_ptr<mg::Level> level_;
  ParamMap params_;
  Grid initial_x_;
  Grid expected_x_;
  std::unique_ptr<CompiledKernel> kernel_;
  const DistSimKernelInfo* info_ = nullptr;
};

}  // namespace

double beta_min_for_seed(std::uint64_t seed) {
  return unit_range(mix(seed, 1), 0.20, 0.30);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"gmg", "krylov", "jit",
                                                 "distsim"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadConfig& config) {
  if (name == "gmg") return std::make_unique<GmgWorkload>(config);
  if (name == "krylov") return std::make_unique<KrylovWorkload>(config);
  if (name == "jit") return std::make_unique<JitWorkload>(config);
  if (name == "distsim") return std::make_unique<DistsimWorkload>(config);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace sfbench
