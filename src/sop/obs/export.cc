#include "sop/obs/export.h"

#include <cmath>
#include <cstdio>
#include <vector>

namespace sop {
namespace obs {

namespace {

// Shortest round-trippable representation without scientific-notation
// surprises for typical metric magnitudes; always finite and JSON-legal.
std::string FormatDouble(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

struct HistField {
  const char* name;
  double value;
};

std::vector<HistField> HistogramFields(const Histogram::Stats& h) {
  return {{"count", static_cast<double>(h.count)},
          {"sum", h.sum},
          {"mean", h.mean},
          {"min", h.min},
          {"max", h.max},
          {"p50", h.p50},
          {"p90", h.p90},
          {"p95", h.p95},
          {"p99", h.p99}};
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string ToJson(const Snapshot& snapshot) {
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(name) + "\": " + std::to_string(value);
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(name) + "\": " + std::to_string(value);
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, stats] : snapshot.histograms) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(name) + "\": {";
    bool first_field = true;
    for (const HistField& f : HistogramFields(stats)) {
      if (!first_field) out += ", ";
      first_field = false;
      out += "\"" + std::string(f.name) + "\": " + FormatDouble(f.value);
    }
    out += "}";
  }
  out += "}}";
  return out;
}

}  // namespace obs
}  // namespace sop
