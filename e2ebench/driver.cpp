// e2e_driver — the end-to-end benchmark of the Costas solver system. It
// drives the program from outside, through its three public surfaces:
//
//   paper  runtime::solve on a seeded corpus of Table I orders: sequential
//          Adaptive Search (one solve in flight per core), then a 4-walker
//          multiwalk hunt per corpus seed, one hunt at a time.
//   serve  a cas_serve process over loopback, closed loop, two request
//          classes at once: `hot` (a few deterministic requests repeated,
//          served from the report cache) and `fresh` (never-repeated seeds,
//          executed on the service pool).
//   dist   fixed-work slices of an elastic cas_run hunt with checkpoints
//          on, alternating a 2-rank and a 3-rank world over the same slice.
//
// Every workload has a heavy and a light operation class (see README.md)
// and reports the same end-to-end metrics; --trace 1 runs the same
// workload with spans recorded around every call into a layer and reports
// the per-layer metrics it measures instead (run.py reports the layers a
// workload does not exercise as 0). The last stdout line is the result
// JSON.
//
//   e2e_driver --workload paper --seed 1 --seconds 30 --trace 0
//              --bin-dir BUILD --work-dir DIR
//   e2e_driver --self-test
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "core/candidate_batch.hpp"
#include "core/rng.hpp"
#include "costas/model.hpp"
#include "dist/ckpt.hpp"
#include "runtime/runtime.hpp"
#include "util/json.hpp"

namespace fs = std::filesystem;
using cas::util::Json;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------------
// Workload constants. Sizes are chosen so that a run on a 4-vCPU host
// measures for about --seconds and every averaged figure rests on enough
// operations to repeat within its bound (README.md, "Steadiness").
// ---------------------------------------------------------------------------

// paper: the smallest Table I order, so the corpus is large.
constexpr int kPaperOrder = 16;
// Corpus seeds per second of --seconds (each seed is solved twice: once
// sequentially, once by a 4-walker hunt).
constexpr double kPaperSeedsPerSecond = 24.0;
// Corpus mean iterations must lie within this factor band of Table I.
constexpr double kTable1Lo = 0.5;
constexpr double kTable1Hi = 2.5;
// Seeds re-solved after the timed phases to prove determinism.
constexpr int kPaperResolve = 4;

// serve: hot requests are small deterministic solves (order 10, below
// Table I's orders, so they warm in milliseconds) served from the cache;
// fresh ones are small orders so each connection completes thousands per
// run.
constexpr int kHotOrder = 10;
constexpr int kHotRequests = 8;
constexpr int kFreshOrder = 13;
constexpr int kHotConnections = 1;
constexpr int kFreshConnections = 1;

// dist: an order the slice cannot be expected to solve (the paper's
// multi-hour Fig. 2 hunts), bounded by max_epochs.
constexpr int kDistOrder = 22;
constexpr int kDistWalkers = 3;  // one vCPU of four left to the ranks' I/O threads
constexpr uint64_t kDistCkptIters = 10000;
constexpr uint64_t kDistEpochs = 6;
constexpr int kDistHeavyRanks = 2;
constexpr int kDistLightRanks = 3;

// Set-up of every workload starts with a fixed-work warm-up: a queue of
// bounded solves of an order no solve of this length finishes, one in
// flight per core. Its work does not depend on the seed or on luck, and
// an aggregate over every core repeats better than one short hunt.
constexpr int kWarmOrder = 20;
constexpr int kWarmSolves = 96;
constexpr uint64_t kWarmIters = 3000;

const Clock::time_point g_start = Clock::now();

double now_s() { return std::chrono::duration<double>(Clock::now() - g_start).count(); }

uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic input seed `i` of stream `stream` under workload seed
/// `wseed`: nonzero (seed 0 means "draw a fresh seed") and below 2^53 so
/// it survives the wire's JSON numbers exactly.
uint64_t input_seed(uint64_t wseed, uint64_t stream, uint64_t i) {
  return (mix64(mix64(wseed * 0x100000001b3ull + stream) + i) >> 11) | 1;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ---------------------------------------------------------------------------
// Spans: recorded only with --trace 1, kept in memory, written at the end.
// ---------------------------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";  // a string literal: recording allocates nothing
  double start = 0, end = 0;
};

class Tracer {
 public:
  bool on = false;

  uint64_t next_id() { return next_.fetch_add(1, std::memory_order_relaxed); }
  void record(const Span& s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(s);
  }
  size_t size() {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }
  void write(const fs::path& path) {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream f(path);
    f << "[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof line,
                    "{\"id\":%" PRIu64 ",\"parent\":%" PRIu64 ",\"start_s\":%.9f,\"end_s\":%.9f,",
                    s.id, s.parent, s.start, s.end);
      f << line << "\"name\":\"" << s.name << "\"}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    f << "]\n";
  }

 private:
  std::atomic<uint64_t> next_{1};
  std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer g_tracer;
thread_local uint64_t t_current_span = 0;

/// RAII span around one call into a layer. The parent is the enclosing
/// span of this thread unless given (worker threads name their phase).
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t parent = UINT64_MAX) {
    if (!g_tracer.on) return;
    span_.id = g_tracer.next_id();
    span_.parent = parent == UINT64_MAX ? t_current_span : parent;
    span_.name = name;
    saved_ = t_current_span;
    t_current_span = span_.id;
    span_.start = now_s();
  }
  ~ScopedSpan() {
    if (span_.id == 0) return;
    span_.end = now_s();
    t_current_span = saved_;
    g_tracer.record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] uint64_t id() const { return span_.id; }

 private:
  Span span_;
  uint64_t saved_ = 0;
};

// ---------------------------------------------------------------------------
// Run bookkeeping
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Run {
  uint64_t seed = 1;
  double seconds = 0;
  bool trace = false;
  fs::path bin_dir;
  fs::path work_dir;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // failed output checks
  std::vector<Metric> e2e;
  std::vector<Metric> layer;

  void check(const std::string& err) {
    if (!err.empty()) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", err.c_str());
      errors.push_back(err);
    }
  }
  void add_e2e(const std::string& n, double v, const std::string& u) { e2e.push_back({n, v, u}); }
  void add_layer(const std::string& n, double v, const std::string& u) {
    layer.push_back({n, v, u});
  }
};

/// The metrics every workload reports; see README.md for what the heavy
/// and light classes are in each workload.
struct EndToEnd {
  double setup_s = 0;
  std::vector<double> heavy_s, light_s;  // per-operation wall times
  double ops = 0;                        // operations completed in the timed phases
  double measured_s = 0;                 // wall time of the timed phases
  double iterations = 0;                 // solver iterations in those phases

  void emit(Run& run) const {
    run.add_e2e("setup_s", setup_s, "s");
    run.add_e2e("heavy_ms", mean(heavy_s) * 1e3, "ms");
    run.add_e2e("light_ms", mean(light_s) * 1e3, "ms");
    run.add_e2e("ops_per_s", ops / measured_s, "1/s");
    run.add_e2e("iters_per_s", iterations / measured_s, "1/s");
  }
};

// ---------------------------------------------------------------------------
// Child processes: own process group, killed with the driver, always reaped.
// ---------------------------------------------------------------------------

/// Process groups of the live children, for the termination handler.
volatile sig_atomic_t g_child_groups[4] = {0, 0, 0, 0};

/// SIGTERM/SIGINT: kill every live child group, wait for them, then exit.
void on_terminate(int sig) {
  for (auto& g : g_child_groups)
    if (g > 0) kill(-static_cast<pid_t>(g), SIGKILL);
  while (waitpid(-1, nullptr, 0) > 0) {
  }
  _exit(128 + sig);
}

class Child {
 public:
  Child(const std::vector<std::string>& args, const fs::path& log) {
    std::vector<char*> argv;
    for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const std::string log_path = log.string();
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      setpgid(0, 0);
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        dup2(fd, 1);
        dup2(fd, 2);
        close(fd);
      }
      execv(argv[0], argv.data());
      _exit(127);
    }
    setpgid(pid_, pid_);
    for (auto& g : g_child_groups)
      if (g == 0) {
        g = pid_;
        break;
      }
  }
  ~Child() { stop(0.0); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Wait up to `grace` seconds for a clean exit, then kill the whole
  /// process group. Returns the exit status, -1 if killed.
  int stop(double grace) {
    const double deadline = now_s() + grace;
    while (!exited()) {
      if (now_s() >= deadline) {
        kill(-pid_, SIGKILL);
        waitpid(pid_, nullptr, 0);
        reap(-1);
        break;
      }
      usleep(2000);
    }
    return status_;
  }
  /// Non-blocking: has the child exited (it is then reaped)?
  bool exited() {
    if (pid_ <= 0) return true;
    int st = 0;
    if (waitpid(pid_, &st, WNOHANG) != pid_) return false;
    reap(WIFEXITED(st) ? WEXITSTATUS(st) : -1);
    return true;
  }

 private:
  /// After the child is reaped: kill and reap what is left of its group.
  /// Orphaned grandchildren (rank processes) are the driver's children,
  /// since it is their subreaper.
  void reap(int status) {
    for (auto& g : g_child_groups)
      if (g == pid_) g = 0;
    status_ = status;
    kill(-pid_, SIGKILL);
    while (waitpid(-pid_, nullptr, 0) > 0) {
    }
    pid_ = -1;
  }

  pid_t pid_ = -1;
  int status_ = -1;
};

// ---------------------------------------------------------------------------
// Layer micro-timings shared by the traced runs: board states come from
// the workload's own seeds.
// ---------------------------------------------------------------------------

std::vector<int> random_perm(int n, uint64_t seed) {
  cas::costas::CostasProblem p(n);
  cas::core::Rng rng(seed);
  p.randomize(rng);
  return p.permutation();
}

template <typename Fn>
double time_loop(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// simd.* and costas.* per-call timings on board states of order n. The
/// kernels are timed through the model's own entries into them
/// (CostasProblem::delta_costs_row and evaluate_batch), which build the
/// kernel context from the model's tables.
void layer_microbench(Run& run, int n, uint64_t stream) {
  ScopedSpan phase("layers.microbench");
  constexpr int kBoards = 16;
  std::vector<std::vector<int>> starts;
  std::vector<cas::costas::CostasProblem> boards;
  for (int b = 0; b < kBoards; ++b) {
    starts.push_back(random_perm(n, input_seed(run.seed, stream, b)));
    boards.emplace_back(n);
    boards.back().set_permutation(starts.back());
  }
  volatile int64_t sink = 0;

  std::vector<int64_t> out(static_cast<size_t>(n));
  constexpr int kRowReps = 400;
  uint64_t calls = 0;
  double secs = 0;
  {
    ScopedSpan s("simd.costas_delta_row");
    secs = time_loop([&] {
      for (int r = 0; r < kRowReps; ++r)
        for (const auto& b : boards)
          for (int i = 0; i < n; ++i) {
            b.delta_costs_row(i, out);
            sink = sink + out[static_cast<size_t>((i + 1) % n)];
            ++calls;
          }
    });
  }
  run.add_layer("simd.delta_row_ns", secs * 1e9 / static_cast<double>(calls), "ns");
  // Computed, not measured: one call walks each checked triangle row once,
  // visiting the row's n - d pair cells, and reads the occ rows (2n - 1
  // slots each), the permutation and the row weights.
  const int depth = boards[0].checked_rows();
  double cells = 0;
  for (int d = 1; d <= depth; ++d) cells += n - d;
  run.add_layer("simd.delta_row_ops", cells, "cells");
  run.add_layer("simd.delta_row_bytes",
                static_cast<double>(depth * (2 * n - 1) * sizeof(int32_t) + n * sizeof(int) +
                                    (depth + 1) * sizeof(int64_t)),
                "B");

  // Batched stateless evaluation of 64 candidates.
  constexpr int kCands = 64;
  cas::core::CandidateBatch batch;
  batch.reset(n, kCands);
  for (int c = 0; c < kCands; ++c) batch.append(random_perm(n, input_seed(run.seed, stream + 1, c)));
  std::vector<int64_t> costs(kCands);
  constexpr int kBatchReps = 2000;
  {
    ScopedSpan s("simd.costas_evaluate_batch");
    secs = time_loop([&] {
      for (int r = 0; r < kBatchReps; ++r) {
        boards[static_cast<size_t>(r % kBoards)].evaluate_batch(batch, INT64_MAX, costs);
        sink = sink + costs[static_cast<size_t>(r % kCands)];
      }
    });
  }
  run.add_layer("simd.eval_batch_ns_per_cand", secs * 1e9 / (kBatchReps * kCands), "ns");

  // Incremental swaps on the model.
  cas::costas::CostasProblem& p = boards[0];
  std::vector<std::pair<int, int>> swaps;
  cas::core::Rng rng(input_seed(run.seed, stream + 2, 0));
  for (int k = 0; k < 4096; ++k) {
    const int i = static_cast<int>(rng() % static_cast<uint64_t>(n));
    const int j = (i + 1 + static_cast<int>(rng() % static_cast<uint64_t>(n - 1))) % n;
    swaps.emplace_back(i, j);
  }
  constexpr int kSwapReps = 50;
  {
    ScopedSpan s("costas.apply_swap");
    secs = time_loop([&] {
      for (int r = 0; r < kSwapReps; ++r)
        for (const auto& [i, j] : swaps) p.apply_swap(i, j);
    });
  }
  sink = sink + p.cost();
  run.add_layer("costas.apply_swap_ns", secs * 1e9 / (kSwapReps * swaps.size()), "ns");

  // The custom reset from each board's initial state (restored untimed).
  constexpr int kResetReps = 40;
  double reset_secs = 0;
  {
    ScopedSpan s("costas.custom_reset");
    for (int r = 0; r < kResetReps; ++r)
      for (const auto& start : starts) {
        p.set_permutation(start);
        reset_secs += time_loop([&] { sink = sink + (p.custom_reset(rng) ? 1 : 0); });
      }
  }
  run.add_layer("costas.custom_reset_us", reset_secs * 1e6 / (kResetReps * kBoards), "us");
}

/// Engine-level figures over a set of walks: sum of the winners' stats.
struct CoreTotals {
  double walks = 0, iterations = 0, resets = 0, reset_candidates = 0;
  double reset_seconds = 0, walk_seconds = 0;
  bool solved_walks = true;  // iters_per_solve is meaningful

  void emit(Run& run) const {
    run.add_layer("core.ns_per_iter", iterations > 0 ? walk_seconds * 1e9 / iterations : 0, "ns");
    run.add_layer("core.iters_per_solve", solved_walks && walks > 0 ? iterations / walks : 0,
                  "iterations");
    run.add_layer("core.resets_per_solve", walks > 0 ? resets / walks : 0, "count");
    run.add_layer("core.reset_candidates_per_reset", resets > 0 ? reset_candidates / resets : 0,
                  "count");
    run.add_layer("core.reset_share", walk_seconds > 0 ? reset_seconds / walk_seconds : 0, "ratio");
  }
};

// ---------------------------------------------------------------------------
// paper
// ---------------------------------------------------------------------------

cas::runtime::SolveRequest paper_request(uint64_t seed, bool hunt) {
  cas::runtime::SolveRequest req;
  req.problem = "costas";
  req.size = kPaperOrder;
  req.engine = "as";
  req.strategy = hunt ? "multiwalk" : "sequential";
  req.walkers = hunt ? 4 : 1;
  req.seed = seed;
  return req;
}

/// Returns false when the solve failed (an error or no solution); a
/// solution is checked by the benchmark's own verifier.
bool accept_report(Run& run, const cas::runtime::SolveReport& rep, const std::string& what) {
  if (!rep.error.empty() || !rep.solved) {
    std::fprintf(stderr, "FAILED: %s: not solved (%s)\n", what.c_str(), rep.error.c_str());
    return false;
  }
  const std::string err = e2e::check_costas(rep.winner_stats.solution);
  run.check(err.empty() ? err : what + ": " + err);
  return true;
}

/// The fixed-work warm-up that opens every workload's set-up.
void warm_up(Run& run) {
  ScopedSpan phase("runtime.solve/warmup");
  std::atomic<int> next{0};
  std::vector<std::thread> workers;
  std::mutex mu;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned w = 0; w < cores; ++w)
    workers.emplace_back([&] {
      for (int i; (i = next.fetch_add(1)) < kWarmSolves;) {
        cas::runtime::SolveRequest req;
        req.size = kWarmOrder;
        req.strategy = "sequential";
        req.walkers = 1;
        req.seed = 2012 + static_cast<uint64_t>(i);
        req.max_iterations = kWarmIters;
        const auto rep = cas::runtime::solve(req);
        std::lock_guard<std::mutex> lock(mu);
        if (!rep.error.empty()) run.check("warm-up: " + rep.error);
      }
    });
  for (auto& t : workers) t.join();
}

void run_paper(Run& run) {
  EndToEnd m;
  warm_up(run);
  m.setup_s = now_s();

  const int corpus = std::max(8, static_cast<int>(kPaperSeedsPerSecond * run.seconds + 0.5));
  std::vector<uint64_t> seeds(static_cast<size_t>(corpus));
  for (int i = 0; i < corpus; ++i) seeds[static_cast<size_t>(i)] = input_seed(run.seed, 1, i);

  // Phase 1: sequential AS, one solve in flight per core.
  std::vector<cas::runtime::SolveReport> seq(static_cast<size_t>(corpus));
  m.heavy_s.assign(static_cast<size_t>(corpus), 0.0);
  const double t_seq = now_s();
  {
    ScopedSpan phase("paper.sequential");
    std::atomic<int> next{0};
    std::vector<std::thread> workers;
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned w = 0; w < cores; ++w)
      workers.emplace_back([&, parent = phase.id()] {
        for (int i; (i = next.fetch_add(1)) < corpus;) {
          ScopedSpan s("runtime.solve/sequential", parent);
          const double t0 = now_s();
          seq[static_cast<size_t>(i)] = cas::runtime::solve(paper_request(seeds[static_cast<size_t>(i)], false));
          m.heavy_s[static_cast<size_t>(i)] = now_s() - t0;
        }
      });
    for (auto& t : workers) t.join();
  }
  const double seq_wall = now_s() - t_seq;

  // Phase 2: a 4-walker hunt per corpus seed, one at a time.
  std::vector<cas::runtime::SolveReport> hunts(static_cast<size_t>(corpus));
  const double t_mw = now_s();
  {
    ScopedSpan phase("paper.multiwalk");
    for (int i = 0; i < corpus; ++i) {
      ScopedSpan s("runtime.solve/multiwalk");
      const double t0 = now_s();
      hunts[static_cast<size_t>(i)] = cas::runtime::solve(paper_request(seeds[static_cast<size_t>(i)], true));
      m.light_s.push_back(now_s() - t0);
    }
  }
  const double mw_wall = now_s() - t_mw;
  m.measured_s = seq_wall + mw_wall;
  m.ops = 2.0 * corpus;
  run.attempted = 2 * static_cast<uint64_t>(corpus);

  CoreTotals core;
  double hunt_overhead = 0, hunt_iters = 0, hunt_winner_iters = 0;
  for (int i = 0; i < corpus; ++i) {
    const auto& s = seq[static_cast<size_t>(i)];
    const auto& h = hunts[static_cast<size_t>(i)];
    if (!accept_report(run, s, "sequential seed " + std::to_string(seeds[static_cast<size_t>(i)])))
      ++run.failed;
    if (!accept_report(run, h, "hunt seed " + std::to_string(seeds[static_cast<size_t>(i)])))
      ++run.failed;
    core.walks += 1;
    core.iterations += static_cast<double>(s.winner_stats.iterations);
    core.resets += static_cast<double>(s.winner_stats.resets);
    core.reset_candidates += static_cast<double>(s.winner_stats.reset_candidates);
    core.reset_seconds += s.winner_stats.reset_seconds;
    core.walk_seconds += s.winner_stats.wall_seconds;
    hunt_overhead += m.light_s[static_cast<size_t>(i)] - h.winner_stats.wall_seconds;
    hunt_iters += static_cast<double>(h.total_iterations);
    hunt_winner_iters += static_cast<double>(h.winner_stats.iterations);
  }
  m.iterations = core.iterations + hunt_iters;

  // Determinism: re-solving sampled seeds reproduces solution + iterations.
  for (int k = 0; k < kPaperResolve; ++k) {
    const size_t i = static_cast<size_t>(k) * static_cast<size_t>(corpus) / kPaperResolve;
    const auto again = cas::runtime::solve(paper_request(seeds[i], false));
    run.check(e2e::check_same_outcome({seq[i].winner_stats.solution, seq[i].winner_stats.iterations},
                                      {again.winner_stats.solution, again.winner_stats.iterations},
                                      "re-solve of seed " + std::to_string(seeds[i])));
  }
  // Table I band around the paper's mean for this order.
  double paper_mean = 0;
  for (const auto& row : cas::bench::paper_table1())
    if (row.n == kPaperOrder) paper_mean = row.avg_iters;
  const double iters_per_solve = core.iterations / core.walks;
  run.check(e2e::check_table1_band(iters_per_solve, paper_mean, kTable1Lo, kTable1Hi));
  std::printf("paper: %d seeds of order %d, mean iterations %.1f (Table I %.0f, x%.3f)\n", corpus,
              kPaperOrder, iters_per_solve, paper_mean, iters_per_solve / paper_mean);

  m.emit(run);

  if (run.trace) {
    core.emit(run);
    run.add_layer("par.hunt_overhead_ms", hunt_overhead / corpus * 1e3, "ms");
    run.add_layer("par.wasted_iter_share", (hunt_iters - hunt_winner_iters) / hunt_iters, "ratio");
    run.add_layer("par.mw_speedup", mean(m.heavy_s) / mean(m.light_s), "x");
    layer_microbench(run, kPaperOrder, 101);
  }
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// A minimal blocking client of cas_serve's framing (4-byte big-endian
/// length, JSON payload), written here so that client-side timing does not
/// depend on the program's own client code.
class WireClient {
 public:
  ~WireClient() {
    if (fd_ >= 0) close(fd_);
  }
  WireClient() = default;
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  void connect_to(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0)
      throw std::runtime_error("connect to cas_serve failed");
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }

  void send(const std::string& payload) {
    std::string frame(4, '\0');
    const uint32_t len = htonl(static_cast<uint32_t>(payload.size()));
    std::memcpy(frame.data(), &len, 4);
    frame += payload;
    size_t off = 0;
    while (off < frame.size()) {
      const ssize_t w = ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) throw std::runtime_error("send to cas_serve failed");
      off += static_cast<size_t>(w);
    }
  }

  /// Next frame's payload; throws on timeout, EOF or a socket error.
  std::string recv(double timeout_s) {
    const double deadline = now_s() + timeout_s;
    for (;;) {
      if (buf_.size() >= 4) {
        uint32_t len = 0;
        std::memcpy(&len, buf_.data(), 4);
        len = ntohl(len);
        if (buf_.size() >= 4 + static_cast<size_t>(len)) {
          std::string payload = buf_.substr(4, len);
          buf_.erase(0, 4 + static_cast<size_t>(len));
          ++frames_in;
          bytes_in += 4 + len;
          return payload;
        }
      }
      const double left = deadline - now_s();
      if (left <= 0) throw std::runtime_error("timed out waiting for cas_serve");
      pollfd p{fd_, POLLIN, 0};
      if (poll(&p, 1, static_cast<int>(left * 1e3) + 1) < 0 && errno != EINTR)
        throw std::runtime_error("poll failed");
      char chunk[65536];
      const ssize_t r = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
      if (r == 0) throw std::runtime_error("cas_serve closed the connection");
      if (r < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
        throw std::runtime_error("recv from cas_serve failed");
      }
      buf_.append(chunk, static_cast<size_t>(r));
    }
  }

  /// Send a solve and read frames until its report; returns the report
  /// and the size of its frame.
  Json solve(const Json& request, size_t* report_bytes, uint64_t* frames) {
    Json msg = Json::object();
    msg["type"] = "solve";
    msg["request"] = request;
    send(msg.dump(0));
    for (;;) {
      const std::string payload = recv(60.0);
      ++*frames;
      Json j = Json::parse(payload);
      const std::string& type = j.at("type").as_string();
      if (type == "report") {
        *report_bytes = payload.size() + 4;
        return j.at("report");
      }
      if (type == "error") throw std::runtime_error("cas_serve error: " + j.dump(0));
    }
  }

  uint64_t frames_in = 0;
  uint64_t bytes_in = 0;

 private:
  int fd_ = -1;
  std::string buf_;
};

Json serve_request(int size, uint64_t seed, const std::string& id) {
  Json r = Json::object();
  r["id"] = id;
  r["problem"] = "costas";
  r["size"] = size;
  r["engine"] = "as";
  r["strategy"] = "sequential";
  r["walkers"] = 1;
  r["seed"] = seed;
  return r;
}

e2e::SolveOutcome wire_outcome(const Json& report) {
  e2e::SolveOutcome o;
  if (const auto* sol = report.find("solution"))
    for (const auto& v : sol->as_array()) o.solution.push_back(static_cast<int>(v.as_int()));
  if (const auto* it = report.find("winner_iterations")) o.iterations = static_cast<uint64_t>(it->as_int());
  return o;
}

/// A wire report that must be solved, verified, and served by `via`.
std::string wire_report_error(const Json& report, const char* via) {
  const auto* solved = report.find("solved");
  if (solved == nullptr || !solved->as_bool()) return "wire report not solved";
  const auto* served = report.find("served_by");
  if (served == nullptr || served->as_string() != via)
    return std::string("wire report not served by ") + via;
  return e2e::check_costas(wire_outcome(report).solution);
}

struct ConnResult {
  std::vector<double> latency_s;
  std::vector<std::string> errors;  // failed output checks
  uint64_t failed = 0;              // requests that got no report
  uint64_t iterations = 0;
  double solve_wall_s = 0;
  uint64_t frames = 0;
  uint64_t report_bytes = 0;
};

void run_serve(Run& run) {
  EndToEnd m;
  warm_up(run);
  const fs::path port_file = run.work_dir / "serve.port";
  fs::remove(port_file);
  Child server({(run.bin_dir / "cas_serve").string(), "--port=0", "--port-file=" + port_file.string(),
                "--cache=256", "--max-inflight=256"},
               run.work_dir / "cas_serve.log");
  uint16_t port = 0;
  {
    ScopedSpan s("net.listen_wait");
    const double deadline = now_s() + 30.0;
    while (port == 0 && now_s() < deadline) {
      std::ifstream f(port_file);
      int p = 0;
      if (f >> p && p > 0) port = static_cast<uint16_t>(p);
      else usleep(200);
    }
  }
  if (port == 0) throw std::runtime_error("cas_serve never wrote its port");

  std::vector<Json> hot;
  for (int h = 0; h < kHotRequests; ++h)
    hot.push_back(serve_request(kHotOrder, input_seed(run.seed, 2, h), "hot" + std::to_string(h)));
  e2e::ServeTally tally;
  std::vector<Json> hot_reports;
  WireClient control;
  control.connect_to(port);
  uint64_t warm_frames = 0;
  {
    // Warm the cache: each hot request executes once.
    ScopedSpan s("net.request/warm");
    for (const auto& req : hot) {
      size_t bytes = 0;
      hot_reports.push_back(control.solve(req, &bytes, &warm_frames));
      ++tally.solves_sent;
      ++tally.reports_seen;
      ++tally.executed;
      run.check(wire_report_error(hot_reports.back(), "executed"));
    }
  }
  std::vector<std::unique_ptr<WireClient>> conns;
  for (int c = 0; c < kHotConnections + kFreshConnections; ++c) {
    conns.push_back(std::make_unique<WireClient>());
    conns.back()->connect_to(port);
  }
  m.setup_s = now_s();

  std::vector<ConnResult> results(conns.size());
  std::atomic<uint64_t> fresh_next{0};
  const double t_run = now_s();
  const double deadline = t_run + run.seconds;
  {
    ScopedSpan phase("serve.closed_loop");
    std::vector<std::thread> threads;
    for (size_t c = 0; c < conns.size(); ++c)
      threads.emplace_back([&, c, parent = phase.id()] {
        const bool is_hot = c < static_cast<size_t>(kHotConnections);
        ConnResult& res = results[c];
        uint64_t k = c;
        while (now_s() < deadline) {
          const Json req = is_hot ? hot[static_cast<size_t>(k++ % kHotRequests)]
                                  : serve_request(kFreshOrder, input_seed(run.seed, 3, fresh_next.fetch_add(1)),
                                                  "fresh");
          ScopedSpan s(is_hot ? "net.request/hot" : "net.request/fresh", parent);
          const double t0 = now_s();
          size_t bytes = 0;
          Json rep;
          try {
            rep = conns[c]->solve(req, &bytes, &res.frames);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "FAILED: request: %s\n", e.what());
            ++res.failed;
            break;
          }
          res.latency_s.push_back(now_s() - t0);
          res.report_bytes += bytes;
          const std::string err = wire_report_error(rep, is_hot ? "cache" : "executed");
          if (!err.empty()) res.errors.push_back(err);
          if (!is_hot) {
            res.iterations += static_cast<uint64_t>(rep.at("total_iterations").as_int());
            res.solve_wall_s += rep.at("wall_seconds").as_number();
          }
        }
      });
    for (auto& t : threads) t.join();
  }
  m.measured_s = now_s() - t_run;

  double fresh_iters = 0, fresh_solve_wall = 0, hot_bytes = 0;
  uint64_t request_frames = 0;
  for (size_t c = 0; c < results.size(); ++c) {
    const bool is_hot = c < static_cast<size_t>(kHotConnections);
    auto& res = results[c];
    for (const auto& e : res.errors) run.check(e);
    run.failed += res.failed;
    run.attempted += res.latency_s.size() + res.failed;
    auto& dst = is_hot ? m.light_s : m.heavy_s;
    dst.insert(dst.end(), res.latency_s.begin(), res.latency_s.end());
    tally.solves_sent += res.latency_s.size();
    tally.reports_seen += res.latency_s.size();
    (is_hot ? tally.cache_served : tally.executed) += res.latency_s.size();
    if (is_hot) hot_bytes += static_cast<double>(res.report_bytes);
    else {
      fresh_iters += static_cast<double>(res.iterations);
      fresh_solve_wall += res.solve_wall_s;
    }
    request_frames += res.frames;
  }
  m.iterations = fresh_iters;
  m.ops = static_cast<double>(m.heavy_s.size() + m.light_s.size());

  // The server's own tally must match the client's.
  Json stats;
  {
    ScopedSpan s("net.stats");
    Json msg = Json::object();
    msg["type"] = "stats";
    control.send(msg.dump(0));
    for (;;) {
      stats = Json::parse(control.recv(30.0));
      if (stats.at("type").as_string() == "stats") break;
    }
  }
  const Json& svc = stats.at("service");
  const Json& srv = stats.at("server");
  e2e::ServeTally server_tally;
  server_tally.solves_sent = static_cast<uint64_t>(srv.at("requests").as_int());
  server_tally.reports_seen = static_cast<uint64_t>(svc.at("completed").as_int());
  server_tally.cache_served = static_cast<uint64_t>(svc.at("cache_hits").as_int());
  server_tally.executed = static_cast<uint64_t>(svc.at("executions").as_int());
  run.check(e2e::check_serve_tally(tally, server_tally));

  // A deterministic request answered over the wire equals the same
  // request solved in-process.
  for (size_t h = 0; h < hot.size(); ++h) {
    cas::runtime::SolveRequest req;
    req.problem = "costas";
    req.size = kHotOrder;
    req.strategy = "sequential";
    req.walkers = 1;
    req.seed = static_cast<uint64_t>(hot[h].at("seed").as_int());
    const auto rep = cas::runtime::solve(req);
    run.check(e2e::check_same_outcome(wire_outcome(hot_reports[h]),
                                      {rep.winner_stats.solution, rep.winner_stats.iterations},
                                      "wire vs in-process, hot request " + std::to_string(h)));
  }

  {
    Json msg = Json::object();
    msg["type"] = "drain";
    control.send(msg.dump(0));
  }
  conns.clear();
  const int status = server.stop(30.0);
  if (status != 0) run.check("cas_serve did not drain cleanly (status " + std::to_string(status) + ")");

  std::printf("serve: %zu hot, %zu fresh requests in %.2f s\n", m.light_s.size(), m.heavy_s.size(),
              m.measured_s);
  m.emit(run);

  if (run.trace) {
    const Json& lat = svc.at("latency");
    const double cache_p50_us = lat.at("cache").at("p50_ms").as_number() * 1e3;
    const double exec_mean_ms = lat.at("executed").at("mean_ms").as_number();
    const double fresh_n = static_cast<double>(m.heavy_s.size());
    run.add_layer("runtime.cache_p50_us", cache_p50_us, "us");
    run.add_layer("runtime.exec_overhead_ms", exec_mean_ms - fresh_solve_wall / fresh_n * 1e3, "ms");
    run.add_layer("runtime.cache_hits", svc.at("cache_hits").as_number(), "count");
    run.add_layer("runtime.executions", svc.at("executions").as_number(), "count");
    run.add_layer("net.edge_p50_us", quantile(m.light_s, 0.5) * 1e6 - cache_p50_us, "us");
    run.add_layer("net.bytes_per_report", hot_bytes / static_cast<double>(m.light_s.size()), "B");
    run.add_layer("net.frames_per_request",
                  static_cast<double>(request_frames) /
                      static_cast<double>(m.light_s.size() + m.heavy_s.size()),
                  "count");
    run.add_layer("net.backpressure_pauses", srv.at("backpressure_pauses").as_number(), "count");
    run.add_layer("serve.hot_p50_ms", quantile(m.light_s, 0.5) * 1e3, "ms");
    run.add_layer("serve.hot_p99_ms", quantile(m.light_s, 0.99) * 1e3, "ms");
    run.add_layer("serve.fresh_p50_ms", quantile(m.heavy_s, 0.5) * 1e3, "ms");
    run.add_layer("serve.fresh_p99_ms", quantile(m.heavy_s, 0.99) * 1e3, "ms");
    layer_microbench(run, kHotOrder, 201);
  }
}

// ---------------------------------------------------------------------------
// dist
// ---------------------------------------------------------------------------

struct World {
  Json report;             // results[0] of member 0's report
  double client_s = 0;     // launch to exit, timed here
  double first_cut_s = 0;  // when the first manifest appeared (watch_cut)
  fs::path ckpt_dir;
};

/// Launch one elastic world over the slice and wait for it. With
/// `watch_cut` the checkpoint directory is polled for the first manifest,
/// which lands one wave after the ranks rendezvoused.
World run_world(Run& run, int ranks, uint64_t seed, int index, bool watch_cut) {
  World w;
  w.ckpt_dir = run.work_dir / ("world" + std::to_string(index));
  const fs::path out = run.work_dir / ("world" + std::to_string(index) + ".json");
  fs::create_directories(w.ckpt_dir);
  ScopedSpan s(ranks == kDistHeavyRanks ? "dist.world/heavy" : "dist.world/light");
  const double t0 = now_s();
  Child child({(run.bin_dir / "cas_run").string(), "--problem=costas",
               "--size=" + std::to_string(kDistOrder), "--walkers=" + std::to_string(kDistWalkers),
               "--seed=" + std::to_string(seed), "--ranks=" + std::to_string(ranks), "--elastic",
               "--ckpt-dir=" + w.ckpt_dir.string(), "--ckpt-iters=" + std::to_string(kDistCkptIters),
               "--max-epochs=" + std::to_string(kDistEpochs), "--compact", "--out=" + out.string()},
              run.work_dir / ("world" + std::to_string(index) + ".log"));
  const fs::path manifest = w.ckpt_dir / cas::dist::kManifestFile;
  while (!child.exited() && now_s() < t0 + 120.0) {
    if (watch_cut && w.first_cut_s == 0 && fs::exists(manifest)) w.first_cut_s = now_s();
    usleep(watch_cut ? 200 : 2000);
  }
  const int status = child.stop(0.0);
  w.client_s = now_s() - t0;
  if (status != 0) throw std::runtime_error("cas_run world exited with status " + std::to_string(status));
  std::ifstream f(out);
  std::stringstream ss;
  ss << f.rdbuf();
  w.report = Json::parse(ss.str()).at("results").as_array().at(0);
  return w;
}

/// A world's last checkpoint cut, read through its manifest.
struct Cut {
  std::map<int, e2e::WalkerState> walkers;
  std::vector<Json> stats;  // each walker's RunStats
  Json payload;             // one member's wave file
  double bytes = 0;         // manifest + wave files
};

Cut read_cut(const fs::path& dir) {
  Cut cut;
  const Json manifest = cas::dist::read_manifest_file(dir.string());
  cut.bytes = static_cast<double>(fs::file_size(dir / cas::dist::kManifestFile));
  for (const auto& file : manifest.at("files").as_array()) {
    const fs::path path = dir / file.as_string();
    cut.bytes += static_cast<double>(fs::file_size(path));
    cut.payload = cas::dist::read_ckpt_file(path.string());
    for (const auto& wj : cut.payload.at("walkers").as_array()) {
      e2e::WalkerState st;
      for (const auto& v : wj.at("config").as_array()) st.config.push_back(static_cast<int>(v.as_int()));
      for (const auto& v : wj.at("rng").as_array()) st.rng.push_back(v.as_string());
      st.iterations = cas::dist::u64_from(wj.at("stats").at("iterations"), "iterations");
      cut.walkers[std::stoi(wj.at("id").as_string())] = std::move(st);
      cut.stats.push_back(wj.at("stats"));
    }
  }
  return cut;
}

void run_dist(Run& run) {
  EndToEnd m;
  CoreTotals core;
  core.solved_walks = false;
  double frames = 0, bytes = 0, ckpt_p50 = 0, cut_bytes = 0, heavy_waves = 0, heavy_worlds = 0;
  std::vector<double> wave_overhead_s;
  Json last_payload;
  warm_up(run);
  const double t_begin = now_s();
  const double deadline = t_begin + run.seconds;
  int pair = 0;
  double waves_total = 0, world_time = 0;
  do {
    const uint64_t seed = input_seed(run.seed, 4, static_cast<uint64_t>(pair));
    World heavy = run_world(run, kDistHeavyRanks, seed, 2 * pair, pair == 0);
    // Set-up: the warm-up, then until the first world's ranks have
    // rendezvoused and cut their first durable checkpoint (one wave).
    if (pair == 0) m.setup_s = heavy.first_cut_s;
    World light = run_world(run, kDistLightRanks, seed, 2 * pair + 1, false);
    for (World* w : {&heavy, &light}) {
      const Json& r = w->report;
      const Json& d = r.at("extras").at("dist");
      const double waves = d.at("epochs").as_number();
      const double wall = r.at("wall_seconds").as_number();
      run.attempted += static_cast<uint64_t>(waves);
      waves_total += waves;
      world_time += w->client_s;
      m.iterations += r.at("total_iterations").as_number();
      (w == &heavy ? m.heavy_s : m.light_s).push_back(wall / waves);
      if (r.at("solved").as_bool()) {
        // A lucky solve ends the slice early; its solution is checked and
        // the fixed-work checks below do not apply.
        std::vector<int> sol;
        for (const auto& v : r.at("solution").as_array()) sol.push_back(static_cast<int>(v.as_int()));
        run.check(e2e::check_costas(sol));
        continue;
      }
      run.check(e2e::check_conserved_iterations(static_cast<uint64_t>(r.at("total_iterations").as_int()),
                                                kDistWalkers, kDistCkptIters,
                                                static_cast<uint64_t>(waves)));
      if (static_cast<uint64_t>(waves) != kDistEpochs)
        run.check("world ran " + std::to_string(waves) + " waves, expected " + std::to_string(kDistEpochs));
      if (w == &heavy) {
        const Json& comm = d.at("comm");
        frames += comm.at("coordinator").at("frames_in").as_number();
        bytes += comm.at("bytes_sent").as_number() + comm.at("bytes_received").as_number();
        ckpt_p50 += d.at("ckpt").at("write_latency").at("p50_seconds").as_number();
        heavy_waves += waves;
        heavy_worlds += 1;
      }
    }
    if (!heavy.report.at("solved").as_bool() && !light.report.at("solved").as_bool()) {
      const Cut cut_h = read_cut(heavy.ckpt_dir);
      const Cut cut_l = read_cut(light.ckpt_dir);
      run.check(e2e::check_same_cut(cut_h.walkers, cut_l.walkers));
      for (const auto& [id, st] : cut_h.walkers)
        if (st.iterations != kDistCkptIters * kDistEpochs)
          run.check("walker " + std::to_string(id) + " cut at " + std::to_string(st.iterations) +
                    " iterations");
      cut_bytes = cut_h.bytes;
      last_payload = cut_h.payload;
      // The part of a wave the slowest walker did not spend walking:
      // barrier, checkpoint cut, frames and rebalancing.
      double slowest_walk = 0;
      for (const Json& st : cut_h.stats) {
        core.walks += 1;
        core.iterations += static_cast<double>(cas::dist::u64_from(st.at("iterations"), "iterations"));
        core.resets += static_cast<double>(cas::dist::u64_from(st.at("resets"), "resets"));
        core.reset_candidates +=
            static_cast<double>(cas::dist::u64_from(st.at("reset_candidates"), "reset_candidates"));
        core.reset_seconds += st.at("reset_seconds").as_number();
        core.walk_seconds += st.at("wall_seconds").as_number();
        slowest_walk = std::max(slowest_walk, st.at("wall_seconds").as_number());
      }
      wave_overhead_s.push_back(m.heavy_s.back() - slowest_walk / static_cast<double>(kDistEpochs));
    }
    fs::remove_all(heavy.ckpt_dir);
    fs::remove_all(light.ckpt_dir);
    ++pair;
  } while (now_s() < deadline);
  m.measured_s = world_time;
  m.ops = waves_total;
  std::printf("dist: %d world pairs, %.0f waves, %.2f s in worlds\n", pair, waves_total, world_time);
  m.emit(run);

  if (run.trace) {
    run.add_layer("dist.overhead_ms_per_wave", mean(wave_overhead_s) * 1e3, "ms");
    std::vector<double> writes;
    if (!last_payload.is_null()) {
      const fs::path probe = run.work_dir / "probe.ckpt";
      ScopedSpan s("dist.write_ckpt_file");
      for (int k = 0; k < 20; ++k) {
        const double t0 = now_s();
        cas::dist::write_ckpt_file(probe.string(), last_payload);
        writes.push_back(now_s() - t0);
      }
    }
    run.add_layer("dist.ckpt_write_ms", quantile(writes, 0.5) * 1e3, "ms");
    run.add_layer("dist.ckpt_write_p50_ms", heavy_worlds > 0 ? ckpt_p50 / heavy_worlds * 1e3 : 0, "ms");
    run.add_layer("dist.ckpt_bytes_per_wave", cut_bytes, "B");
    run.add_layer("dist.frames_per_wave", heavy_waves > 0 ? frames / heavy_waves : 0, "count");
    run.add_layer("dist.bytes_per_wave", heavy_waves > 0 ? bytes / heavy_waves : 0, "B");
    core.emit(run);
    layer_microbench(run, kDistOrder, 301);
  }
}

// ---------------------------------------------------------------------------
// Self-test: every output check fails on a corrupted input.
// ---------------------------------------------------------------------------

int self_test() {
  int bad = 0;
  auto expect = [&](bool ok, const char* what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++bad;
  };
  // Welch construction: 3^i mod 7, i = 1..6, is a Costas array of order 6.
  const std::vector<int> welch{3, 2, 6, 4, 5, 1};
  expect(e2e::check_costas(welch).empty(), "verifier accepts a Welch array");
  expect(!e2e::check_costas({3, 2, 6, 4, 5, 3}).empty(), "verifier rejects a repeated value");
  expect(!e2e::check_costas({3, 2, 6, 4, 5, 7}).empty(), "verifier rejects a value outside 1..n");
  expect(!e2e::check_costas({1, 2, 3, 4, 5, 6}).empty(), "verifier rejects repeated displacements");
  expect(!e2e::check_costas({}).empty(), "verifier rejects an empty solution");
  // A solve of the program must pass the verifier; one corrupted entry
  // must not.
  {
    cas::runtime::SolveRequest req;
    req.size = 12;
    req.strategy = "sequential";
    req.walkers = 1;
    req.seed = 7;
    const auto rep = cas::runtime::solve(req);
    expect(rep.solved && e2e::check_costas(rep.winner_stats.solution).empty(),
           "verifier accepts a solved order-12 array");
    auto broken = rep.winner_stats.solution;
    std::swap(broken[0], broken[1]);
    expect(!e2e::check_costas(broken).empty(), "verifier rejects that array with two entries swapped");
  }
  const e2e::SolveOutcome a{welch, 100};
  expect(e2e::check_same_outcome(a, a, "x").empty(), "identical outcomes agree");
  expect(!e2e::check_same_outcome(a, {welch, 101}, "x").empty(), "iteration mismatch detected");
  expect(!e2e::check_same_outcome(a, {{2, 3, 6, 4, 5, 1}, 100}, "x").empty(),
         "solution mismatch detected");
  expect(e2e::check_table1_band(20000, 12665, kTable1Lo, kTable1Hi).empty(), "Table I band accepts 1.6x");
  expect(!e2e::check_table1_band(40000, 12665, kTable1Lo, kTable1Hi).empty(), "Table I band rejects 3.2x");
  expect(!e2e::check_table1_band(5000, 12665, kTable1Lo, kTable1Hi).empty(), "Table I band rejects 0.4x");
  const e2e::ServeTally t{100, 100, 60, 40};
  expect(e2e::check_serve_tally(t, t).empty(), "matching serve tallies agree");
  expect(!e2e::check_serve_tally(t, {100, 100, 59, 41}).empty(), "cache_hits mismatch detected");
  expect(!e2e::check_serve_tally(t, {101, 100, 60, 40}).empty(), "request count mismatch detected");
  expect(!e2e::check_serve_tally({100, 100, 60, 39}, {100, 100, 60, 39}).empty(),
         "hits + executions != completed detected");
  expect(e2e::check_conserved_iterations(240000, 4, 10000, 6).empty(), "conserved iterations accepted");
  expect(!e2e::check_conserved_iterations(239999, 4, 10000, 6).empty(), "lost iterations detected");
  std::map<int, e2e::WalkerState> cut{{0, {{1, 2}, {"5", "6"}, 60000}}, {1, {{2, 1}, {"7", "8"}, 60000}}};
  expect(e2e::check_same_cut(cut, cut).empty(), "identical cuts agree");
  auto rng_changed = cut;
  rng_changed[1].rng[0] = "9";
  expect(!e2e::check_same_cut(cut, rng_changed).empty(), "changed walker rng detected");
  auto config_changed = cut;
  config_changed[0].config = {2, 1};
  expect(!e2e::check_same_cut(cut, config_changed).empty(), "changed walker config detected");
  auto iters_changed = cut;
  iters_changed[0].iterations = 50000;
  expect(!e2e::check_same_cut(cut, iters_changed).empty(), "changed walker iterations detected");
  auto missing = cut;
  missing.erase(1);
  expect(!e2e::check_same_cut(cut, missing).empty(), "missing walker detected");
  std::printf("%s\n", bad == 0 ? "self-test passed" : "self-test FAILED");
  return bad == 0 ? 0 : 1;
}

std::string fmt_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

void print_result(const Run& run, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += run.errors.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(run.attempted);
  out += ", \"failed\": " + std::to_string(run.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + fmt_value(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--self-test") return self_test();
    if (a == "--workload") workload = val();
    else if (a == "--seed") run.seed = std::stoull(val());
    else if (a == "--seconds") run.seconds = std::stod(val());
    else if (a == "--trace") run.trace = val() == "1";
    else if (a == "--bin-dir") run.bin_dir = val();
    else if (a == "--work-dir") run.work_dir = val();
    else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  // Orphaned rank processes are reparented here, so Child::stop can reap them.
  prctl(PR_SET_CHILD_SUBREAPER, 1);
  signal(SIGTERM, on_terminate);
  signal(SIGINT, on_terminate);
  g_tracer.on = run.trace;
  try {
    if (run.seconds <= 0) throw std::invalid_argument("--seconds must be given and positive");
    fs::create_directories(run.work_dir);
    if (workload == "paper") run_paper(run);
    else if (workload == "serve") run_serve(run);
    else if (workload == "dist") run_dist(run);
    else throw std::invalid_argument("unknown workload '" + workload + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  for (const auto& m : run.e2e)
    std::printf("%s %s %s %s\n", run.trace ? "traced" : "metric", m.name.c_str(),
                fmt_value(m.value).c_str(), m.unit.c_str());
  if (run.trace) {
    std::printf("trace: %zu spans\n", g_tracer.size());
    for (const auto& m : run.layer)
      std::printf("layer %s %s %s\n", m.name.c_str(), fmt_value(m.value).c_str(), m.unit.c_str());
    g_tracer.write(run.work_dir.parent_path() /
                   ("spans-" + workload + "-" + std::to_string(run.seed) + ".json"));
  }
  print_result(run, run.trace ? run.layer : run.e2e);
  return 0;
}
