// gl-analyze-expect: GL005
//
// Exact equality on accumulated resource doubles.

struct Resource { double cpu, mem_gb, net_mbps; };
bool Same(const Resource& a, const Resource& b) {
  return a.cpu == b.cpu;
}
