// Metric names, units and the benchmark's result line.
//
// The two tables below are the benchmark's contract with BENCHMARK.json: an
// untraced run (--trace 0) emits exactly kEndToEnd, a traced run (--trace 1)
// exactly kPerLayer. run.py checks the emitted names against
// BENCHMARK.json, so a metric added here must be declared there too.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace epochbench {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

inline constexpr MetricSpec kEndToEnd[] = {
    {"epoch_p50_ref", "ref"},     {"containers_per_ref", "1/ref"},
    {"setup_s", "s"},             {"peak_rss_mb", "MB"},
    {"power_kw", "kW"},           {"sim_tct_ms", "ms"},
    {"migrations_per_epoch", "count"}, {"active_servers", "count"},
};

inline constexpr MetricSpec kPerLayer[] = {
    {"workload.epoch_inputs_ms", "ms"},
    {"workload.epoch_inputs_share", "share"},
    {"core.place_ms", "ms"},
    {"core.place_share", "share"},
    {"core.graph_build_ms", "ms"},
    {"core.graph_build_share", "share"},
    {"core.place_self_ms", "ms"},
    {"core.place_self_share", "share"},
    {"core.partition_cache_hit_ratio", "ratio"},
    {"core.pee_cap_rejections", "count"},
    {"core.vc_groups_split", "count"},
    {"core.vc_bandwidth_violations", "count"},
    {"graph.partition_ms", "ms"},
    {"graph.partition_share", "share"},
    {"graph.groups", "count"},
    {"graph.cut_weight", "flows"},
    {"graph.cut_edges_evaluated", "count"},
    {"graph.bisection_rejections", "count"},
    {"schedulers.server_loads_ms", "ms"},
    {"schedulers.server_loads_share", "share"},
    {"netsim.traffic_ms", "ms"},
    {"netsim.traffic_share", "share"},
    {"power.network_ms", "ms"},
    {"power.network_share", "share"},
    {"power.switches_gated", "count"},
    {"sim.tct_model_ms", "ms"},
    {"sim.tct_model_share", "share"},
    {"sim.migration_ms", "ms"},
    {"sim.migration_share", "share"},
    {"trace.unattributed_share", "share"},
    {"trace.overhead_ratio", "ratio"},
};

// A name starts with a letter or digit and has at most 64 letters, digits,
// '_', '.' and '-'.
bool IsValidMetricName(std::string_view name);
// A unit has 1 to 16 letters, digits, '_', '/', '%', '.' and '-'.
bool IsValidUnit(std::string_view unit);

// Collects the measured metrics of one run. Every metric is printed as a
// human-readable report line with its unit and the base it was measured
// over; the last line of the run is the JSON result.
class Result {
 public:
  explicit Result(std::span<const MetricSpec> declared)
      : declared_(declared) {}

  // Records a declared metric; throws std::logic_error for an undeclared or
  // malformed name or unit, or a non-finite value. `base` states what the
  // value was measured over (sample count, denominator).
  void Add(std::string_view name, double value, const std::string& base);

  // Declared metrics that were never added.
  [[nodiscard]] std::vector<std::string> Missing() const;

  // {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  [[nodiscard]] std::string JsonLine(bool correct, std::uint64_t attempted,
                                     std::uint64_t failed) const;

 private:
  struct Entry {
    std::string_view name;
    std::string_view unit;
    double value;
  };
  std::span<const MetricSpec> declared_;
  std::vector<Entry> entries_;
};

}  // namespace epochbench
