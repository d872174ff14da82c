#include "host.h"

#include <sched.h>

#include <fstream>
#include <thread>

#include "common/json_writer.h"

#ifndef EPOCHBENCH_BUILD_TYPE
#define EPOCHBENCH_BUILD_TYPE "unknown"
#endif

namespace epochbench {
namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? std::string() : line.substr(start);
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int HardwareThreads() {
  // The affinity mask honours CPU limits that hardware_concurrency() does
  // not see.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return count;
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

std::string HostFingerprintJson(int partitioner_threads) {
  std::string out;
  gl::JsonWriter w(&out);
  w.BeginObject();
  w.Key("cpu_model");
  w.String(CpuModel());
  w.Key("nproc");
  w.Int(HardwareThreads());
  w.Key("compiler");
  w.String(Compiler());
  w.Key("build_type");
  w.String(EPOCHBENCH_BUILD_TYPE);
  w.Key("partitioner_threads");
  w.Int(partitioner_threads);
  w.EndObject();
  return out;
}

}  // namespace epochbench
