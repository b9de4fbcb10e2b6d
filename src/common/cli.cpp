#include "common/cli.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "common/error.h"

namespace tsajs {

CliParser::CliParser(std::string program_summary)
    : summary_(std::move(program_summary)) {
  add_switch("help", "print this help text and exit");
}

void CliParser::add_flag(const std::string& name,
                         const std::string& description,
                         const std::string& default_value) {
  TSAJS_REQUIRE(!name.empty() && name.rfind("--", 0) != 0,
                "flag names are registered without the leading --");
  TSAJS_REQUIRE(!flags_.contains(name), "duplicate flag: " + name);
  flags_[name] = Flag{description, default_value, std::nullopt, false};
}

void CliParser::add_switch(const std::string& name,
                           const std::string& description) {
  TSAJS_REQUIRE(!flags_.contains(name), "duplicate flag: " + name);
  flags_[name] = Flag{description, "false", std::nullopt, true};
}

bool CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // No program reads positional arguments, so a stray one is a typo
    // (say, a second list value after a space) that must not pass silently.
    if (arg.rfind("--", 0) != 0) {
      throw InvalidArgumentError("unexpected argument '" + arg +
                                 "': every argument is a --flag or its value"
                                 " (lists are comma-separated)");
    }
    std::string name = arg.substr(2);
    std::optional<std::string> inline_value;
    if (const auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    const auto it = flags_.find(name);
    if (it == flags_.end()) {
      throw InvalidArgumentError("unknown flag --" + name + "\n" +
                                 help_text());
    }
    Flag& flag = it->second;
    if (flag.is_switch) {
      TSAJS_REQUIRE(!inline_value.has_value(),
                    "switch --" + name + " does not take a value");
      flag.value = "true";
    } else if (inline_value.has_value()) {
      flag.value = std::move(*inline_value);
    } else {
      TSAJS_REQUIRE(i + 1 < argc, "flag --" + name + " expects a value");
      flag.value = argv[++i];
    }
  }
  if (get_bool("help")) {
    std::cout << help_text();
    return false;
  }
  return true;
}

const CliParser::Flag& CliParser::find(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) {
    throw NotFoundError("flag --" + name + " was never registered");
  }
  return it->second;
}

std::string CliParser::get_string(const std::string& name) const {
  const Flag& flag = find(name);
  return flag.value.value_or(flag.default_value);
}

std::int64_t CliParser::get_int(const std::string& name) const {
  const std::string text = get_string(name);
  std::size_t consumed = 0;
  std::int64_t result = 0;
  try {
    result = std::stoll(text, &consumed);
  } catch (const std::exception&) {
    throw InvalidArgumentError("--" + name + ": not an integer: " + text);
  }
  TSAJS_REQUIRE(consumed == text.size(),
                "--" + name + ": trailing characters in integer: " + text);
  return result;
}

std::uint64_t CliParser::get_uint(const std::string& name) const {
  const std::int64_t value = get_int(name);
  TSAJS_REQUIRE(value >= 0,
                "--" + name + ": must be non-negative, got " +
                    std::to_string(value));
  return static_cast<std::uint64_t>(value);
}

double CliParser::get_double(const std::string& name) const {
  const std::string text = get_string(name);
  std::size_t consumed = 0;
  double result = 0;
  try {
    result = std::stod(text, &consumed);
  } catch (const std::exception&) {
    // std::stod throws out_of_range for values beyond double range.
    throw InvalidArgumentError("--" + name + ": not a number: " + text);
  }
  TSAJS_REQUIRE(consumed == text.size(),
                "--" + name + ": trailing characters in number: " + text);
  // "nan"/"inf" parse successfully but poison every downstream rate,
  // budget, and accumulator; no flag of ours has a meaningful use for them.
  TSAJS_REQUIRE(std::isfinite(result),
                "--" + name + ": must be finite, got " + text);
  return result;
}

bool CliParser::get_bool(const std::string& name) const {
  const std::string text = get_string(name);
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  throw InvalidArgumentError("--" + name + ": not a boolean: " + text);
}

std::vector<double> CliParser::get_double_list(const std::string& name) const {
  const std::string text = get_string(name);
  std::vector<double> values;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) continue;
    std::size_t consumed = 0;
    double value = 0.0;
    try {
      value = std::stod(item, &consumed);
    } catch (const std::exception&) {
      throw InvalidArgumentError("--" + name + ": not a number: " + item);
    }
    TSAJS_REQUIRE(consumed == item.size(),
                  "--" + name + ": trailing characters in number: " + item);
    TSAJS_REQUIRE(std::isfinite(value),
                  "--" + name + ": must be finite, got " + item);
    values.push_back(value);
  }
  return values;
}

std::string CliParser::help_text() const {
  std::ostringstream os;
  os << summary_ << "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name;
    if (!flag.is_switch) os << " <value> (default: " << flag.default_value << ')';
    os << "\n      " << flag.description << '\n';
  }
  return os.str();
}

int run_main(int argc, char** argv, int (*body)(int, char**)) {
  try {
    return body(argc, argv);
  } catch (const std::exception& error) {
    std::fflush(stdout);
    const std::string program =
        argc > 0 ? std::filesystem::path(argv[0]).filename().string()
                 : "tsajs";
    std::cerr << program << ": " << error.what() << '\n';
    return 2;
  }
}

}  // namespace tsajs
