#include "reference.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_map>
#include <vector>

namespace epochbench {
namespace {

// xorshift64; the kernel's input is fixed, so its work never varies.
struct XorShift {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t operator()() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
};

std::uint64_t SortKeys(XorShift& rng) {
  std::vector<std::uint32_t> keys(std::size_t{1} << 15);
  std::uint64_t sum = 0;
  for (int rep = 0; rep < 2; ++rep) {
    for (auto& k : keys) k = static_cast<std::uint32_t>(rng());
    std::sort(keys.begin(), keys.end());
    sum += keys[keys.size() / 3];
  }
  return sum;
}

std::uint64_t OrderedChurn(XorShift& rng) {
  std::map<std::uint32_t, std::uint64_t> m;
  for (std::uint64_t i = 0; i < 20000; ++i) {
    m[static_cast<std::uint32_t>(rng() % 8000)] += i;
    if (i % 3 == 0) m.erase(static_cast<std::uint32_t>(rng() % 8000));
  }
  return m.size() + m.begin()->second;
}

std::uint64_t HashedVectors(XorShift& rng) {
  std::unordered_map<std::uint64_t, std::vector<double>> m;
  for (int i = 0; i < 40000; ++i) {
    auto& v = m[rng() % 4000];
    v.push_back(i * 0.5);
    if (v.size() > 8) v.clear();
  }
  return m.size();
}

std::uint64_t GraphWalk(XorShift& rng) {
  constexpr int kVertices = 20000;
  std::vector<std::vector<int>> adj(kVertices);
  for (int e = 0; e < 4 * kVertices; ++e) {
    const int a = static_cast<int>(rng() % kVertices);
    const int b = static_cast<int>(rng() % kVertices);
    adj[static_cast<std::size_t>(a)].push_back(b);
    adj[static_cast<std::size_t>(b)].push_back(a);
  }
  std::vector<int> dist(kVertices, -1);
  std::vector<int> queue;
  queue.reserve(kVertices);
  dist[0] = 0;
  queue.push_back(0);
  std::uint64_t sum = 0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int u = queue[head];
    for (const int v : adj[static_cast<std::size_t>(u)]) {
      if (dist[static_cast<std::size_t>(v)] >= 0) continue;
      dist[static_cast<std::size_t>(v)] = dist[static_cast<std::size_t>(u)] + 1;
      sum += static_cast<std::uint64_t>(dist[static_cast<std::size_t>(v)]);
      queue.push_back(v);
    }
  }
  return sum + queue.size();
}

}  // namespace

ReferenceTiming RunReferenceKernel() {
  using Clock = std::chrono::steady_clock;
  XorShift rng;
  const auto start = Clock::now();
  std::uint64_t checksum = SortKeys(rng);
  checksum = checksum * 31 + OrderedChurn(rng);
  checksum = checksum * 31 + HashedVectors(rng);
  checksum = checksum * 31 + GraphWalk(rng);
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  return {ms, checksum};
}

}  // namespace epochbench
