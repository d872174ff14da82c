// End-to-end epoch benchmark for the Goldilocks scheduler.
//
//   epochbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--partition-threads <t>]
//
// --trace 0 times ExperimentRunner::Run over the workload's scenarios with
// tracing off and prints the end-to-end metrics, its timings in units of
// the reference kernel (reference.h) run between them; --trace 1 replays
// the same scenarios through the traced loop (traced_loop.h) and prints the
// per-layer metrics. Each run prints a report line per metric, the host
// fingerprint, the output checks, and as its last line one JSON result.
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error.
#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "host.h"
#include "metrics.h"
#include "obs/memory.h"
#include "reference.h"
#include "stats.h"
#include "traced_loop.h"
#include "workloads.h"

namespace epochbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Set-up is repeated and its median reported, so one slow allocation does
// not decide the figure: at least kMinSetupRepeats builds, and more until
// kMinSetupSeconds of building have been timed.
constexpr int kMinSetupRepeats = 9;
constexpr int kMaxSetupRepeats = 200;
constexpr double kMinSetupSeconds = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  int partition_threads = 0;  // 0: the workload's default
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      continue;
    }
    if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      args.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (key == "--partition-threads") {
      args.partition_threads = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      return false;
    }
    if (end == value || *end != '\0') return false;
  }
  return argc % 2 == 1 && IsWorkloadName(args.workload) &&
         args.seconds > 0.0 && (args.trace == 0 || args.trace == 1) &&
         args.partition_threads >= 0;
}

std::string Base(const char* format, auto... values) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, values...);
  return buf;
}

// Simulated per-workload means over every epoch of one pass.
struct SimTotals {
  std::vector<double> power_kw, tct_ms, migrations, active_servers;
  std::uint64_t placed = 0, unplaced = 0;

  void Add(const gl::EpochMetrics& m) {
    power_kw.push_back(m.total_watts / 1000.0);
    tct_ms.push_back(m.mean_tct_ms);
    // Epoch 0 has no previous placement to migrate from.
    if (m.epoch > 0) migrations.push_back(m.migrations);
    active_servers.push_back(m.active_servers);
    placed += static_cast<std::uint64_t>(m.placed_containers);
    unplaced += static_cast<std::uint64_t>(m.unplaced_containers);
  }
};

struct Outcome {
  std::vector<std::string> failures;
  // Distinct container-epochs handed to Place() (the first pass; later
  // passes repeat them bit for bit), and of those, the ones left unplaced.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

void CountPlacements(Outcome& out, const std::vector<gl::EpochMetrics>& es) {
  for (const auto& m : es) {
    out.attempted +=
        static_cast<std::uint64_t>(m.placed_containers + m.unplaced_containers);
    out.failed += static_cast<std::uint64_t>(m.unplaced_containers);
  }
}

void AddFailures(Outcome& out, const std::string& where,
                 const std::vector<std::string>& lines) {
  for (const auto& l : lines) out.failures.push_back(where + ": " + l);
}

// Times the reference kernel (reference.h) and checks that it did the same
// work as its first run.
class ReferenceClock {
 public:
  explicit ReferenceClock(Outcome& out) : out_(out) {
    checksum_ = RunReferenceKernel().checksum;  // warm-up, untimed
  }

  double SampleMs() {
    const ReferenceTiming t = RunReferenceKernel();
    if (t.checksum != checksum_) {
      out_.failures.push_back("reference kernel checksum changed");
    }
    return t.ms;
  }

 private:
  Outcome& out_;
  std::uint64_t checksum_ = 0;
};

// --trace 0: untraced ExperimentRunner::Run, pass after pass over the
// workload's scenarios until `seconds` have elapsed (at least one pass).
// The reference kernel runs before the first and after every Run; each
// Run's epochs are divided by the mean of the two samples around it. The
// first Run warms caches and allocator and is not timed.
Outcome MeasureEndToEnd(const Workload& w, double seconds, Result& result) {
  Outcome out;
  ReferenceClock clock(out);
  std::vector<double> epoch_ms, epoch_ref, ref_ms;
  double run_ms = 0.0, run_ref = 0.0;
  std::uint64_t placed = 0;
  SimTotals sim;
  std::vector<std::vector<gl::EpochMetrics>> reference(w.instances.size());
  int passes = 0;
  const auto start = Clock::now();
  double ref_before = clock.SampleMs();
  for (bool done = false; !done; ++passes) {
    for (std::size_t i = 0; i < w.instances.size(); ++i) {
      gl::GoldilocksScheduler scheduler(w.instances[i].goldilocks);
      const gl::ExperimentResult r = w.instances[i].runner->Run(scheduler);
      const double ref_after = clock.SampleMs();
      const double ref = 0.5 * (ref_before + ref_after);
      ref_before = ref_after;
      if (passes > 0 || i > 0) {
        ref_ms.push_back(ref);
        run_ms += r.wall_ms;
        run_ref += r.wall_ms / ref;
        for (const auto& m : r.epochs) {
          epoch_ms.push_back(m.wall_ms);
          epoch_ref.push_back(m.wall_ms / ref);
          placed += static_cast<std::uint64_t>(m.placed_containers);
        }
      }
      if (passes == 0) {
        // The distinct work of the run: later passes repeat it exactly.
        CountPlacements(out, r.epochs);
        for (const auto& m : r.epochs) sim.Add(m);
        reference[i] = r.epochs;
      } else {
        // Every pass replays the same scenarios: the simulated fields must
        // repeat bit for bit.
        AddFailures(out, "pass " + std::to_string(passes) + " scenario " +
                             std::to_string(i),
                    CompareEpochs(reference[i], r.epochs));
      }
      if (passes > 0 && SecondsSince(start) >= seconds) {
        done = true;
        break;
      }
    }
    done = done || SecondsSince(start) >= seconds;
  }

  const std::size_t n = epoch_ms.size();
  result.Add("epoch_p50_ref", Median(epoch_ref),
             Base("median of %zu untraced epochs over %d passes, each in "
                  "reference-kernel times",
                  n, passes));
  result.Add("containers_per_ref", static_cast<double>(placed) / run_ref,
             Base("%" PRIu64 " placed container-epochs / %.1f ref in Run()",
                  placed, run_ref));
  std::printf("note   reference kernel = %.6g ms (median of %zu samples "
              "around the timed runs)\n",
              Median(ref_ms), ref_ms.size());
  std::printf("note   epoch_ms_p50 = %.6g ms (median of %zu untraced epochs, "
              "host time)\n",
              Median(epoch_ms), n);
  if (const auto tail = SelectTail(epoch_ms)) {
    std::printf("note   epoch_ms_p99 = %.6g ms at p%g (%zu epochs, %zu "
                "beyond)\n",
                tail->value, tail->percentile, n, tail->beyond);
  } else {
    std::printf("note   epoch_ms_p99 absent: %zu epochs leave no percentile "
                "from p90 up with %zu samples beyond it\n",
                n, kMinSamplesBeyondTail);
  }
  std::printf("note   containers_per_s = %.6g 1/s (%" PRIu64
              " placed container-epochs / %.3f s in Run(), host time)\n",
              static_cast<double>(placed) / (run_ms / 1e3), placed,
              run_ms / 1e3);
  result.Add("power_kw", Mean(sim.power_kw),
             Base("mean over %zu epochs, first pass", sim.power_kw.size()));
  result.Add("sim_tct_ms", Mean(sim.tct_ms),
             Base("mean over %zu epochs, first pass", sim.tct_ms.size()));
  result.Add("migrations_per_epoch", Mean(sim.migrations),
             Base("mean over %zu epochs with a previous placement",
                  sim.migrations.size()));
  result.Add("active_servers", Mean(sim.active_servers),
             Base("mean over %zu epochs of %d servers",
                  sim.active_servers.size(), w.topology->num_servers()));
  std::printf("note   unplaced_share = %.6g (%" PRIu64 " unplaced / %" PRIu64
              " container-epochs, first pass)\n",
              static_cast<double>(sim.unplaced) /
                  static_cast<double>(sim.placed + sim.unplaced),
              sim.unplaced, sim.placed + sim.unplaced);
  return out;
}

void AddLayer(Result& result, std::string_view stem, const LayerTimes& layer,
              double traced_total_ms, const char* what) {
  const std::string name(stem);
  result.Add(name + "_ms", Median(layer.samples_ms),
             Base("median over %zu epochs that %s", layer.samples_ms.size(),
                  what));
  result.Add(name + "_share", layer.total_ms / traced_total_ms,
             Base("%.3f ms of %.3f ms traced epoch time", layer.total_ms,
                  traced_total_ms));
}

// --trace 1: per scenario, one untraced reference Run and one traced
// replay, pass after pass until `seconds` have elapsed (at least one pass).
// Counts come from the first pass; timings from every pass.
Outcome MeasureLayers(const Workload& w, double seconds, Result& result) {
  Outcome out;
  std::array<LayerTimes, kLayerCount> layers;
  std::vector<double> place_self_ms;
  double traced_ms = 0.0, untraced_ms = 0.0, unattributed_ms = 0.0;
  RunCounts counts;  // first pass
  std::size_t first_pass_epochs = 0;
  std::vector<double> pool_busy, pool_wait, pool_eff;
  int passes = 0;
  const auto start = Clock::now();
  for (bool done = false; !done; ++passes) {
    for (std::size_t i = 0; i < w.instances.size(); ++i) {
      const Instance& inst = w.instances[i];
      gl::GoldilocksScheduler scheduler(inst.goldilocks);
      const gl::ExperimentResult reference = inst.runner->Run(scheduler);
      TracedRun run = RunTraced(w, inst, inst.goldilocks);
      const std::string where =
          "pass " + std::to_string(passes) + " scenario " + std::to_string(i);
      AddFailures(out, where, CompareEpochs(reference.epochs, run.epochs));
      AddFailures(out, where, run.failures);

      for (std::size_t e = 0; e < run.epochs.size(); ++e) {
        traced_ms += run.epochs[e].wall_ms;
        untraced_ms += reference.epochs[e].wall_ms;
        unattributed_ms += run.unattributed_ms[e];
      }
      for (int l = 0; l < kLayerCount; ++l) {
        auto& dst = layers[static_cast<std::size_t>(l)];
        const auto& src = run.layers[static_cast<std::size_t>(l)];
        dst.samples_ms.insert(dst.samples_ms.end(), src.samples_ms.begin(),
                              src.samples_ms.end());
        dst.total_ms += src.total_ms;
      }
      place_self_ms.insert(place_self_ms.end(), run.place_self_ms.begin(),
                           run.place_self_ms.end());
      pool_busy.insert(pool_busy.end(), run.pool_busy_ms.begin(),
                       run.pool_busy_ms.end());
      pool_wait.insert(pool_wait.end(), run.pool_queue_wait_ms.begin(),
                       run.pool_queue_wait_ms.end());
      pool_eff.insert(pool_eff.end(), run.pool_efficiency.begin(),
                      run.pool_efficiency.end());
      if (passes == 0) {
        CountPlacements(out, run.epochs);
        first_pass_epochs += run.epochs.size();
        counts += run.counts;
      }
      if (passes > 0 && SecondsSince(start) >= seconds) {
        done = true;
        break;
      }
    }
    done = done || SecondsSince(start) >= seconds;
  }

  AddLayer(result, kLayerStems[kEpochInputs], layers[kEpochInputs], traced_ms,
           "ran it");
  AddLayer(result, kLayerStems[kPlace], layers[kPlace], traced_ms, "ran it");
  AddLayer(result, kLayerStems[kGraphBuild], layers[kGraphBuild], traced_ms,
           "repartitioned (replica call)");
  double place_self_total = 0.0;
  for (const double ms : place_self_ms) place_self_total += ms;
  result.Add("core.place_self_ms", Median(place_self_ms),
             Base("median over %zu epochs of Place() minus replica graph "
                  "build and partition", place_self_ms.size()));
  result.Add("core.place_self_share", place_self_total / traced_ms,
             Base("%.3f ms of %.3f ms traced epoch time", place_self_total,
                  traced_ms));
  const auto first = static_cast<double>(first_pass_epochs);
  result.Add("core.partition_cache_hit_ratio",
             static_cast<double>(counts.partition_cache_hits) / first,
             Base("%" PRIu64 " cache hits / %zu epochs, first pass",
                  counts.partition_cache_hits, first_pass_epochs));
  const std::string per_pass =
      Base("total over %zu epochs, first pass", first_pass_epochs);
  result.Add("core.pee_cap_rejections",
             static_cast<double>(counts.pee_cap_rejections), per_pass);
  const std::string vc_base =
      w.instances.front().goldilocks.use_virtual_clusters
          ? per_pass
          : per_pass + "; this workload does not use the VC placer";
  result.Add("core.vc_groups_split",
             static_cast<double>(counts.vc_groups_split), vc_base);
  result.Add("core.vc_bandwidth_violations",
             static_cast<double>(counts.vc_bandwidth_violations), vc_base);

  AddLayer(result, kLayerStems[kPartition], layers[kPartition], traced_ms,
           "repartitioned (replica call)");
  const std::string repartition_base = Base(
      "total over %d repartitions (%d incremental repairs), first pass",
      counts.repartitions, counts.repairs);
  result.Add("graph.groups", static_cast<double>(counts.groups),
             repartition_base);
  result.Add("graph.cut_weight", counts.cut_weight, repartition_base);
  result.Add("graph.cut_edges_evaluated",
             static_cast<double>(counts.cut_edges_evaluated),
             repartition_base);
  result.Add("graph.bisection_rejections",
             static_cast<double>(counts.bisection_rejections),
             repartition_base);
  if (pool_busy.empty()) {
    std::printf("note   graph.pool_* absent: the partitioner ran "
                "single-threaded and published no pool gauges\n");
  } else {
    std::printf("note   graph.pool_busy_ms = %.6g ms, graph.pool_queue_wait_ms "
                "= %.6g ms, graph.pool_efficiency = %.6g (medians over %zu "
                "replica partitions; efficiency = busy / (workers x wall))\n",
                Median(pool_busy), Median(pool_wait), Median(pool_eff),
                pool_busy.size());
  }

  AddLayer(result, kLayerStems[kServerLoads], layers[kServerLoads], traced_ms,
           "ran it");
  AddLayer(result, kLayerStems[kTraffic], layers[kTraffic], traced_ms,
           "ran it");
  AddLayer(result, kLayerStems[kNetworkPower], layers[kNetworkPower],
           traced_ms, "ran it");
  result.Add("power.switches_gated",
             static_cast<double>(counts.switches_gated), per_pass);
  AddLayer(result, kLayerStems[kTctModel], layers[kTctModel], traced_ms,
           "ran it");
  AddLayer(result, kLayerStems[kMigration], layers[kMigration], traced_ms,
           "had a previous placement");
  result.Add("trace.unattributed_share", unattributed_ms / traced_ms,
             Base("%.3f ms outside layer spans of %.3f ms traced epoch time",
                  unattributed_ms, traced_ms));
  result.Add("trace.overhead_ratio", traced_ms / untraced_ms,
             Base("%.3f ms traced / %.3f ms untraced over the same %d passes",
                  traced_ms, untraced_ms, passes));
  std::printf("check  %d epochs audited, first pass; %d auditor capacity "
              "errors exceeded only the NIC under its raw per-container sum "
              "and were re-checked against the traffic model\n",
              counts.audits, counts.nic_raw_sum_findings);
  return out;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: epochbench --workload <msr_fig13|azure_churn|"
                 "vc_reuse> --seed <n> --seconds <s> --trace <0|1> "
                 "[--partition-threads <t>]\n");
    return 2;
  }
  const int threads =
      args.workload != "msr_fig13" ? 1
      : args.partition_threads > 0 ? args.partition_threads
                                   : std::min(4, HardwareThreads());
  std::printf("epochbench workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace);
  std::printf("host   %s\n", HostFingerprintJson(threads).c_str());
  std::fflush(stdout);

  // Set-up: scenarios, topology and runners, built repeatedly.
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < kMinSetupRepeats ||
                  (setup_total_s < kMinSetupSeconds && i < kMaxSetupRepeats);
       ++i) {
    w.reset();
    const auto start = Clock::now();
    w = BuildWorkload(args.workload, args.seed, threads);
    setup_s.push_back(SecondsSince(start));
    setup_total_s += setup_s.back();
  }
  int epochs_per_pass = 0;
  for (const auto& inst : w->instances) {
    epochs_per_pass += inst.scenario->num_epochs();
  }
  std::printf("setup  %zu runs and %d epochs per pass, %d containers in "
              "the first, %d servers\n",
              w->instances.size(), epochs_per_pass,
              w->instances.front().scenario->workload().size(),
              w->topology->num_servers());

  Result result(args.trace == 0 ? std::span<const MetricSpec>(kEndToEnd)
                                : std::span<const MetricSpec>(kPerLayer));
  const Outcome out = args.trace == 0
                          ? MeasureEndToEnd(*w, args.seconds, result)
                          : MeasureLayers(*w, args.seconds, result);
  if (args.trace == 0) {
    result.Add("setup_s", Median(setup_s),
               Base("median of %zu builds", setup_s.size()));
    result.Add("peak_rss_mb",
               static_cast<double>(gl::obs::PeakRssBytes()) / (1024.0 * 1024.0),
               "process peak resident set");
  }

  std::vector<std::string> failures = out.failures;
  for (const auto& name : result.Missing()) {
    failures.push_back("metric " + name + " was not measured");
  }
  for (const auto& f : failures) std::printf("FAIL   %s\n", f.c_str());
  std::printf("check  %s (%zu failed output checks)\n",
              failures.empty() ? "ok" : "FAILED", failures.size());
  std::printf("%s\n", result.JsonLine(failures.empty(), out.attempted,
                                      out.failed)
                          .c_str());
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace epochbench

int main(int argc, char** argv) {
  try {
    return epochbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "epochbench: %s\n", e.what());
    return 1;
  }
}
