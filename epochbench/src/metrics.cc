#include "metrics.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "common/json_writer.h"

namespace epochbench {
namespace {

bool IsAlnum(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

bool IsValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool IsValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

void Result::Add(std::string_view name, double value,
                 const std::string& base) {
  const auto spec =
      std::find_if(declared_.begin(), declared_.end(),
                   [&](const MetricSpec& s) { return s.name == name; });
  if (spec == declared_.end() || !IsValidMetricName(spec->name) ||
      !IsValidUnit(spec->unit)) {
    throw std::logic_error("undeclared or malformed metric " +
                           std::string(name));
  }
  if (!std::isfinite(value)) {
    throw std::logic_error("non-finite value for " + std::string(name));
  }
  entries_.push_back({spec->name, spec->unit, value});
  std::printf("metric %-32.*s %.6g %.*s  (%s)\n",
              static_cast<int>(name.size()), name.data(), value,
              static_cast<int>(spec->unit.size()), spec->unit.data(),
              base.c_str());
}

std::vector<std::string> Result::Missing() const {
  std::vector<std::string> missing;
  for (const auto& spec : declared_) {
    const bool seen = std::any_of(
        entries_.begin(), entries_.end(),
        [&](const Entry& e) { return e.name == spec.name; });
    if (!seen) missing.emplace_back(spec.name);
  }
  return missing;
}

std::string Result::JsonLine(bool correct, std::uint64_t attempted,
                             std::uint64_t failed) const {
  std::string out;
  gl::JsonWriter w(&out);
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct);
  w.Key("attempted");
  w.UInt(attempted);
  w.Key("failed");
  w.UInt(failed);
  w.Key("metrics");
  w.BeginObject();
  for (const auto& e : entries_) {
    w.Key(e.name);
    w.BeginObject();
    w.Key("value");
    w.Double(e.value);
    w.Key("unit");
    w.String(e.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  return out;
}

}  // namespace epochbench
