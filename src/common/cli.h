// Minimal command-line flag parser for the bench and example binaries.
//
// Supports `--name value` and `--name=value` forms plus boolean switches,
// with typed accessors, defaults, and an auto-generated `--help` text.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tsajs {

class CliParser {
 public:
  /// `program_summary` is printed at the top of --help.
  explicit CliParser(std::string program_summary);

  /// Registers a flag. `description` appears in --help.
  void add_flag(const std::string& name, const std::string& description,
                const std::string& default_value);

  /// Registers a boolean switch (present => true).
  void add_switch(const std::string& name, const std::string& description);

  /// Parses argv. Returns false (after printing help) when --help was given.
  /// Throws InvalidArgumentError on unknown flags, malformed input, or any
  /// argument that is neither a flag nor a flag's value.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get_string(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  /// Like get_int but rejects negative values; for counts (threads, trials,
  /// chain lengths) that would otherwise wrap when cast to unsigned.
  [[nodiscard]] std::uint64_t get_uint(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  /// Parses a comma-separated list of doubles, e.g. "1000,2000,3000".
  [[nodiscard]] std::vector<double> get_double_list(
      const std::string& name) const;

  [[nodiscard]] std::string help_text() const;

 private:
  struct Flag {
    std::string description;
    std::string default_value;
    std::optional<std::string> value;
    bool is_switch = false;
  };

  const Flag& find(const std::string& name) const;

  std::string summary_;
  std::map<std::string, Flag> flags_;
};

/// Runs a command-line program's `body` and returns its exit code. An
/// exception that escapes it (a flag or value the parser rejects, a failed
/// precondition) is reported as "<program>: <message>" on stderr, after
/// flushing stdout, with exit code 2, instead of reaching std::terminate.
int run_main(int argc, char** argv, int (*body)(int, char**));

}  // namespace tsajs
