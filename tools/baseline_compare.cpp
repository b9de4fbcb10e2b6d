// baseline_compare — exact comparison of a re-run bench JSON document with
// its checked-in baseline.
//
// The checked-in BENCH_*.json files of the dynamic, fault and cloud sweeps
// are behaviour, not timing: re-running the command EXPERIMENTS.md records
// must reproduce every simulated number bit for bit. This tool checks that.
// Both documents must have the same structure (object keys in the same
// order, arrays of the same length, equal strings and booleans) and every
// number must have the same bit pattern.
//
// Wall-clock values are skipped: the members named `solve_seconds` and
// `speedup` hold timings, which differ from run to run. The set is fixed
// below and cannot be widened from the command line, so a baseline test
// cannot be loosened by its invocation.
//
// Usage:
//   baseline_compare <baseline.json> <current.json>
//
// Exit status: 0 when the documents agree, 1 when they differ (one line per
// difference on stdout), 2 on bad usage or unreadable input.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "exp/json_reader.h"

namespace {

using tsajs::exp::JsonValue;

/// Members whose values are wall-clock measurements.
bool is_timing_key(const std::string& key) {
  return key == "solve_seconds" || key == "speedup";
}

std::string show(const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      return "null";
    case JsonValue::Kind::kBool:
      return value.as_bool() ? "true" : "false";
    case JsonValue::Kind::kNumber: {
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.17g (%a)", value.as_number(),
                    value.as_number());
      return buffer;
    }
    case JsonValue::Kind::kString:
      return "\"" + value.as_string() + "\"";
    case JsonValue::Kind::kArray:
      return "array[" + std::to_string(value.as_array().size()) + "]";
    case JsonValue::Kind::kObject:
      return "object{" + std::to_string(value.members().size()) + "}";
  }
  return "?";
}

/// Appends one line per difference between `baseline` and `current` under
/// `path` to `diffs`.
void compare(const JsonValue& baseline, const JsonValue& current,
             const std::string& path, std::vector<std::string>& diffs) {
  const auto differ = [&] {
    diffs.push_back(path + ": baseline " + show(baseline) + ", current " +
                    show(current));
  };
  if (baseline.kind() != current.kind()) {
    differ();
    return;
  }
  switch (baseline.kind()) {
    case JsonValue::Kind::kNull:
      return;
    case JsonValue::Kind::kBool:
      if (baseline.as_bool() != current.as_bool()) differ();
      return;
    case JsonValue::Kind::kNumber:
      if (std::bit_cast<std::uint64_t>(baseline.as_number()) !=
          std::bit_cast<std::uint64_t>(current.as_number())) {
        differ();
      }
      return;
    case JsonValue::Kind::kString:
      if (baseline.as_string() != current.as_string()) differ();
      return;
    case JsonValue::Kind::kArray: {
      const auto& a = baseline.as_array();
      const auto& b = current.as_array();
      if (a.size() != b.size()) {
        differ();
        return;
      }
      for (std::size_t i = 0; i < a.size(); ++i) {
        compare(a[i], b[i], path + "[" + std::to_string(i) + "]", diffs);
      }
      return;
    }
    case JsonValue::Kind::kObject: {
      const auto& a = baseline.members();
      const auto& b = current.members();
      if (a.size() != b.size()) {
        differ();
        return;
      }
      for (std::size_t i = 0; i < a.size(); ++i) {
        const std::string member = path + "." + a[i].first;
        if (a[i].first != b[i].first) {
          diffs.push_back(member + ": current has key \"" + b[i].first +
                          "\" here");
          continue;
        }
        if (!is_timing_key(a[i].first)) {
          compare(a[i].second, b[i].second, member, diffs);
        }
      }
      return;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: baseline_compare <baseline.json> <current.json>\n";
    return 2;
  }
  try {
    const JsonValue baseline = tsajs::exp::parse_json_file(argv[1]);
    const JsonValue current = tsajs::exp::parse_json_file(argv[2]);
    std::vector<std::string> diffs;
    compare(baseline, current, "$", diffs);
    for (const std::string& diff : diffs) std::cout << diff << "\n";
    if (!diffs.empty()) {
      std::cout << diffs.size() << " difference(s) between " << argv[1]
                << " and " << argv[2] << "\n";
      return 1;
    }
    std::cout << argv[2] << " matches " << argv[1]
              << " in every non-timing field\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "baseline_compare: " << error.what() << "\n";
    return 2;
  }
}
