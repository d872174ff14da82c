// Shared helpers for the Fig. 9 / 10 / 11 / 13 benches: run every policy of
// the paper over a scenario and print the paper's time series and averages.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "common/json_writer.h"
#include "common/table.h"
#include "core/goldilocks.h"
#include "schedulers/borg.h"
#include "schedulers/e_pvm.h"
#include "schedulers/mpp.h"
#include "schedulers/rc_informed.h"
#include "sim/simulator.h"
#include "workload/scenarios.h"

namespace gl::bench {

struct PolicyRun {
  std::string name;
  ExperimentResult result;  // result.wall_ms carries the per-policy timing
};

// Runs the paper's five policies over the scenario. With opts.threads > 1
// the policies are evaluated concurrently (ExperimentRunner::RunMany);
// results — state hashes included — are identical at every thread count.
inline std::vector<PolicyRun> RunAllPolicies(
    const Scenario& scenario, const Topology& topo,
    const RunnerOptions& opts = {}, int goldilocks_repartition_interval = 1) {
  ExperimentRunner runner(scenario, topo, opts);
  GoldilocksOptions gopts;
  gopts.repartition_interval = goldilocks_repartition_interval;
  // One knob for both fan-outs: the policies run concurrently and
  // Goldilocks' recursive bipartitioning fans out internally.
  gopts.partition.threads = opts.threads;

  std::vector<std::unique_ptr<Scheduler>> schedulers;
  schedulers.push_back(std::make_unique<EPvmScheduler>());
  schedulers.push_back(std::make_unique<MppScheduler>());
  schedulers.push_back(std::make_unique<BorgScheduler>());
  schedulers.push_back(std::make_unique<RcInformedScheduler>());
  schedulers.push_back(std::make_unique<GoldilocksScheduler>(gopts));

  std::vector<Scheduler*> ptrs;
  ptrs.reserve(schedulers.size());
  for (const auto& s : schedulers) ptrs.push_back(s.get());
  auto results = runner.RunMany(ptrs);

  std::vector<PolicyRun> runs;
  runs.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    runs.push_back({schedulers[i]->name(), std::move(results[i])});
  }
  return runs;
}

inline void PrintTimeSeries(const std::vector<PolicyRun>& runs, int stride,
                            const char* time_unit) {
  Table t({time_unit, "policy", "active servers", "power W", "TCT ms",
           "J/req"});
  const int epochs = static_cast<int>(runs.front().result.epochs.size());
  for (int e = 0; e < epochs; e += stride) {
    for (const auto& r : runs) {
      const auto& m = r.result.epochs[static_cast<std::size_t>(e)];
      t.AddRow({Table::Int(e), r.name, Table::Int(m.active_servers),
                Table::Num(m.total_watts, 0), Table::Num(m.mean_tct_ms, 2),
                Table::Num(m.energy_per_request_j, 4)});
    }
  }
  t.Print();
}

// One row of the machine-readable bench output (--json): what ran, how wide
// the fan-out was, how long it took, and the resulting problem/solution
// sizes (see EXPERIMENTS.md, "Machine-readable output"). wall_ms is the
// minimum over the repeats; median_wall_ms is the noise-resistant number
// perf tracking compares (tools/perf_check.py).
struct ScaleRecord {
  std::string name;
  int threads = 1;
  double wall_ms = 0.0;
  int containers = 0;
  int servers = 0;
  double median_wall_ms = 0.0;
  int repeats = 1;
  // The fields below are written only when the bench measured them: an
  // absent field, never a placeholder default, is what lets the perf gate
  // tell "not measured" from "measured zero".
  //
  // Parallel-efficiency telemetry from one extra instrumented (untimed) run
  // per configuration — informational, never compared against a hard
  // threshold (tools/perf_check.py carries them through when present in
  // both baseline and candidate and ignores them otherwise):
  // parallel_efficiency is pool busy / (workers × batch wall),
  // critical_path_ms the longest non-overlappable span chain, peak_bytes
  // the scratch-arena high-water mark.
  std::optional<double> parallel_efficiency = std::nullopt;
  std::optional<double> critical_path_ms = std::nullopt;
  std::optional<std::uint64_t> peak_bytes = std::nullopt;
  // Width-1 share of the critical path (serial_ms / path_ms): the Amdahl
  // wall. Gated hard by tools/perf_check.py --serial-share-max at the
  // largest parallel configuration.
  std::optional<double> serial_share = std::nullopt;
  // Solution quality guard: the recursive partition's total cut weight.
  // Thread-count invariant (DESIGN.md §9), so any drift is algorithmic.
  std::optional<double> cut_weight = std::nullopt;
};

// Median of the samples (averages the middle pair for even counts).
// Sorts a copy; sample vectors here are tiny.
inline double MedianOf(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  if (samples.size() % 2 == 1) return samples[mid];
  return 0.5 * (samples[mid - 1] + samples[mid]);
}

// Writes the records as a JSON array via the shared writer (one escaping
// implementation for benches, RunLogger and the trace exporter). Returns
// false (with a message on stderr) if the file cannot be opened.
inline bool WriteScaleJson(const char* path,
                           const std::vector<ScaleRecord>& records) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return false;
  }
  std::string out;
  JsonWriter w(&out);
  w.BeginArray();
  for (const auto& r : records) {
    w.BeginObject();
    w.Key("name");
    w.String(r.name);
    w.Key("threads");
    w.Int(r.threads);
    w.Key("wall_ms");
    w.Double(r.wall_ms);
    w.Key("median_wall_ms");
    w.Double(r.median_wall_ms);
    w.Key("repeats");
    w.Int(r.repeats);
    w.Key("containers");
    w.Int(r.containers);
    w.Key("servers");
    w.Int(r.servers);
    // Telemetry keys append after the original layout so older consumers
    // (and the committed perf baselines) keep parsing by prefix.
    const auto optional_double = [&w](const char* key,
                                      const std::optional<double>& v) {
      if (!v) return;
      w.Key(key);
      w.Double(*v);
    };
    optional_double("parallel_efficiency", r.parallel_efficiency);
    optional_double("critical_path_ms", r.critical_path_ms);
    if (r.peak_bytes) {
      w.Key("peak_bytes");
      w.UInt(*r.peak_bytes);
    }
    optional_double("serial_share", r.serial_share);
    optional_double("cut_weight", r.cut_weight);
    w.EndObject();
  }
  w.EndArray();
  out.push_back('\n');
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  std::fclose(f);
  return ok;
}

// Parses "--json out.json" / "--json=out.json" from argv; nullptr if absent.
inline const char* JsonPathFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      return argv[i + 1];
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) return argv[i] + 7;
  }
  return nullptr;
}

// Parses "--repeat=N" / "--repeat N" from argv; `fallback` (default 5) if
// absent. Benches run each timed configuration N times and report median +
// min, so one background hiccup cannot shift the perf trajectory.
inline int RepeatFromArgs(int argc, char** argv, int fallback = 5) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
      return std::max(1, std::atoi(argv[i + 1]));
    }
    if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
      return std::max(1, std::atoi(argv[i] + 9));
    }
  }
  return fallback;
}

// Parses "--threads=N" / "--threads N" from argv; 1 if absent.
inline int ThreadsFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      return std::atoi(argv[i + 1]);
    }
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      return std::atoi(argv[i] + 10);
    }
  }
  return 1;
}

inline void PrintAverages(const std::vector<PolicyRun>& runs) {
  const double epvm_watts = runs.front().result.Average().total_watts;
  Table t({"policy", "servers", "power W", "saving vs E-PVM", "TCT ms",
           "p99 ms", "J/req", "SLA viol", "migr/epoch"});
  for (const auto& r : runs) {
    const auto m = r.result.Average();
    t.AddRow({r.name, Table::Int(m.active_servers),
              Table::Num(m.total_watts, 0),
              Table::Pct(1.0 - m.total_watts / epvm_watts),
              Table::Num(m.mean_tct_ms, 2), Table::Num(m.p99_tct_ms, 2),
              Table::Num(m.energy_per_request_j, 4),
              Table::Pct(m.sla_violation_rate), Table::Int(m.migrations)});
  }
  t.Print();
}

}  // namespace gl::bench
