#include "workload/workload_io.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <vector>

namespace gl {
namespace {

AppType AppTypeFromName(const std::string& name, bool& known) {
  known = true;
  for (const auto& p : AllAppProfiles()) {
    if (name == AppTypeName(p.type)) return p.type;
  }
  known = false;
  return AppType::kCassandra;  // generic service profile
}

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::stringstream ss(line);
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.emplace_back();
  return cells;
}

// Demands and flows must be finite: std::stod accepts "nan" and "inf", and
// NaN fails every range comparison, so the callers' checks alone would let
// it through.
bool ParseDouble(const std::string& s, double& out) {
  try {
    std::size_t pos = 0;
    out = std::stod(s, &pos);
    return pos == s.size() && std::isfinite(out);
  } catch (...) {
    return false;
  }
}

bool ParseInt(const std::string& s, int& out) {
  try {
    std::size_t pos = 0;
    out = std::stoi(s, &pos);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

}  // namespace

void WriteContainersCsv(const Workload& workload, std::ostream& out) {
  out << "id,app,cpu,mem_gb,net_mbps,service,replica_set\n";
  for (const auto& c : workload.containers) {
    out << c.id.value() << ',' << AppTypeName(c.app) << ',' << c.demand.cpu
        << ',' << c.demand.mem_gb << ',' << c.demand.net_mbps << ','
        << c.service << ',';
    if (c.replica_set.valid()) out << c.replica_set.value();
    out << '\n';
  }
}

void WriteEdgesCsv(const Workload& workload, std::ostream& out) {
  out << "a,b,flows,is_query\n";
  for (const auto& e : workload.edges) {
    out << e.a.value() << ',' << e.b.value() << ',' << e.flows << ','
        << (e.is_query ? 1 : 0) << '\n';
  }
}

LoadResult ReadWorkloadCsv(std::istream& containers, std::istream& edges) {
  LoadResult result;
  std::string line;
  int line_no = 0;
  auto fail = [&](const std::string& what) {
    result.ok = false;
    result.error = "line " + std::to_string(line_no) + ": " + what;
    return result;
  };

  // --- containers -----------------------------------------------------------
  bool header = true;
  while (std::getline(containers, line)) {
    ++line_no;
    if (header) {
      header = false;
      continue;
    }
    if (line.empty()) continue;
    const auto cells = SplitCsvLine(line);
    if (cells.size() != 7) return fail("expected 7 container columns");
    Container c;
    int id = 0;
    if (!ParseInt(cells[0], id) || id != result.workload.size()) {
      return fail("container ids must be dense and ascending from 0");
    }
    c.id = ContainerId{id};
    bool known = false;
    c.app = AppTypeFromName(cells[1], known);
    double cpu = 0, mem = 0, net = 0;
    if (!ParseDouble(cells[2], cpu) || !ParseDouble(cells[3], mem) ||
        !ParseDouble(cells[4], net) || cpu < 0 || mem < 0 || net < 0) {
      return fail("bad demand values");
    }
    c.demand = Resource{.cpu = cpu, .mem_gb = mem, .net_mbps = net};
    if (!ParseInt(cells[5], c.service)) return fail("bad service id");
    if (!cells[6].empty()) {
      int rs = 0;
      if (!ParseInt(cells[6], rs) || rs < 0) return fail("bad replica_set");
      c.replica_set = GroupId{rs};
    }
    result.workload.containers.push_back(c);
  }

  // --- edges --------------------------------------------------------------------
  line_no = 0;
  header = true;
  while (std::getline(edges, line)) {
    ++line_no;
    if (header) {
      header = false;
      continue;
    }
    if (line.empty()) continue;
    const auto cells = SplitCsvLine(line);
    if (cells.size() != 4) return fail("expected 4 edge columns");
    int a = 0, b = 0, q = 0;
    double flows = 0;
    if (!ParseInt(cells[0], a) || !ParseInt(cells[1], b) ||
        !ParseDouble(cells[2], flows) || !ParseInt(cells[3], q)) {
      return fail("bad edge values");
    }
    const int n = result.workload.size();
    if (a < 0 || a >= n || b < 0 || b >= n) {
      return fail("edge endpoints out of range");
    }
    if (a == b) return fail("self-loop edge");
    // Anti-affinity comes from replica_set, never from a negative flow.
    if (flows <= 0) return fail("edge flows must be positive");
    result.workload.edges.push_back(
        {ContainerId{a}, ContainerId{b}, flows, q != 0});
  }

  result.ok = true;
  return result;
}

bool SaveWorkload(const Workload& workload,
                  const std::string& containers_path,
                  const std::string& edges_path) {
  std::ofstream cf(containers_path);
  std::ofstream ef(edges_path);
  if (!cf || !ef) return false;
  WriteContainersCsv(workload, cf);
  WriteEdgesCsv(workload, ef);
  return static_cast<bool>(cf) && static_cast<bool>(ef);
}

LoadResult LoadWorkload(const std::string& containers_path,
                        const std::string& edges_path) {
  std::ifstream cf(containers_path);
  std::ifstream ef(edges_path);
  if (!cf || !ef) {
    LoadResult r;
    r.error = "cannot open input files";
    return r;
  }
  return ReadWorkloadCsv(cf, ef);
}

}  // namespace gl
