// gl-analyze-expect: clean
//
// Comparisons through an epsilon helper.

struct Resource { double cpu, mem_gb, net_mbps; };
bool Within(double v, double cap);
bool Fits(const Resource& a, const Resource& cap) {
  return Within(a.cpu, cap.cpu) && Within(a.mem_gb, cap.mem_gb);
}
