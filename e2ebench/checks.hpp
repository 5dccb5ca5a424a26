// Output checks of the end-to-end benchmark. Each one is a pure function
// over data the benchmark collected, returning an empty string when the
// check holds and a description of the violation otherwise, so the
// self-test (driver --self-test) can feed each one a corrupted input and
// prove that it fails.
//
// The Costas verifier is written here from the definition and does not
// call costas::is_costas: a check of the program must not trust the code
// it checks.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// A permutation of 1..n whose displacement vectors (j - i, p[j] - p[i]),
/// i < j, are pairwise distinct.
inline std::string check_costas(const std::vector<int>& p) {
  const int n = static_cast<int>(p.size());
  if (n < 1) return "empty solution";
  std::vector<char> seen(static_cast<size_t>(n) + 1, 0);
  for (int v : p) {
    if (v < 1 || v > n) return "value " + std::to_string(v) + " outside 1.." + std::to_string(n);
    if (seen[static_cast<size_t>(v)]) return "value " + std::to_string(v) + " repeated";
    seen[static_cast<size_t>(v)] = 1;
  }
  // used[dx][dy + n - 1] marks the displacement vector (dx, dy).
  std::vector<char> used(static_cast<size_t>(n) * static_cast<size_t>(2 * n - 1), 0);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const size_t cell = static_cast<size_t>(j - i) * static_cast<size_t>(2 * n - 1) +
                          static_cast<size_t>(p[static_cast<size_t>(j)] -
                                              p[static_cast<size_t>(i)] + n - 1);
      if (cell >= used.size() || used[cell])
        return "displacement (" + std::to_string(j - i) + "," +
               std::to_string(p[static_cast<size_t>(j)] - p[static_cast<size_t>(i)]) +
               ") repeated";
      used[cell] = 1;
    }
  }
  return {};
}

/// One solve's observable outcome: its solution and the winner's
/// iteration count.
struct SolveOutcome {
  std::vector<int> solution;
  uint64_t iterations = 0;
};

/// Two solves of the same deterministic request must agree exactly.
inline std::string check_same_outcome(const SolveOutcome& a, const SolveOutcome& b,
                                      const std::string& what) {
  if (a.iterations != b.iterations)
    return what + ": iterations " + std::to_string(a.iterations) + " vs " +
           std::to_string(b.iterations);
  if (a.solution != b.solution) return what + ": solutions differ";
  return {};
}

/// Table I band: the corpus mean iteration count lies within
/// [lo_factor, hi_factor] times the paper's mean for the order.
inline std::string check_table1_band(double corpus_mean, double paper_mean, double lo_factor,
                                     double hi_factor) {
  if (!(paper_mean > 0)) return "no Table I mean for this order";
  const double ratio = corpus_mean / paper_mean;
  if (!(ratio >= lo_factor && ratio <= hi_factor))
    return "corpus mean iterations " + std::to_string(corpus_mean) + " is " +
           std::to_string(ratio) + "x the paper's " + std::to_string(paper_mean) +
           ", outside [" + std::to_string(lo_factor) + ", " + std::to_string(hi_factor) + "]";
  return {};
}

/// Client-side tally of a serve session and the server's stats frame.
struct ServeTally {
  uint64_t solves_sent = 0;     // solve frames the client sent
  uint64_t reports_seen = 0;    // report frames the client received
  uint64_t cache_served = 0;    // reports stamped served_by = "cache"
  uint64_t executed = 0;        // reports stamped served_by = "executed"
};

inline std::string check_serve_tally(const ServeTally& client, const ServeTally& server) {
  std::string err;
  auto cmp = [&](const char* what, uint64_t c, uint64_t s) {
    if (c != s && err.empty())
      err = std::string(what) + ": client " + std::to_string(c) + " vs server " + std::to_string(s);
  };
  cmp("requests", client.solves_sent, server.solves_sent);
  cmp("responses", client.reports_seen, server.reports_seen);
  cmp("cache_hits", client.cache_served, server.cache_served);
  cmp("executions", client.executed, server.executed);
  if (err.empty() && server.cache_served + server.executed != server.reports_seen)
    err = "server cache_hits + executions != completed";
  return err;
}

/// Fixed-work conservation of an elastic slice: every walker advances
/// exactly ckpt_iters per wave, so the world's iterations are a product.
inline std::string check_conserved_iterations(uint64_t total_iterations, uint64_t walkers,
                                              uint64_t ckpt_iters, uint64_t waves) {
  const uint64_t want = walkers * ckpt_iters * waves;
  if (total_iterations != want)
    return "executed iterations " + std::to_string(total_iterations) + " != walkers x ckpt_iters x waves = " +
           std::to_string(want);
  return {};
}

/// One walker's state in a checkpoint cut: the fields that define its
/// future trajectory (configuration, generator state, iteration count).
struct WalkerState {
  std::vector<int> config;
  std::vector<std::string> rng;
  uint64_t iterations = 0;
  bool operator==(const WalkerState&) const = default;
};

/// The last cut of one slice, taken at two rank counts, holds the same
/// walker states (membership invariance).
inline std::string check_same_cut(const std::map<int, WalkerState>& a,
                                  const std::map<int, WalkerState>& b) {
  if (a.empty()) return "empty checkpoint cut";
  if (a.size() != b.size())
    return "cut sizes differ: " + std::to_string(a.size()) + " vs " + std::to_string(b.size()) +
           " walkers";
  for (const auto& [id, st] : a) {
    const auto it = b.find(id);
    if (it == b.end()) return "walker " + std::to_string(id) + " missing from one cut";
    if (!(it->second == st)) return "walker " + std::to_string(id) + " state differs between cuts";
  }
  return {};
}

}  // namespace e2e
