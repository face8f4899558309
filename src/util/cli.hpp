// Tiny command-line flag parser for the tools, benches and examples.
//
// Supports `--name=value` and `--name value`; a flag given without a value
// reads as empty (true for a bool). Unknown flags and malformed values exit
// with status 2 and a message naming the flag, so a typo cannot silently
// run the wrong experiment: a number must parse whole and fit its type.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dmis::util {

class Cli {
 public:
  Cli(int argc, char** argv);

  /// Declare a flag with a default; returns the parsed (or default) value.
  [[nodiscard]] std::int64_t flag_int(const std::string& name, std::int64_t def,
                                      const std::string& help);
  [[nodiscard]] double flag_double(const std::string& name, double def,
                                   const std::string& help);
  [[nodiscard]] std::string flag_string(const std::string& name, std::string def,
                                        const std::string& help);
  [[nodiscard]] bool flag_bool(const std::string& name, bool def,
                               const std::string& help);
  /// A comma-separated list; empty items are dropped.
  [[nodiscard]] std::vector<std::string> flag_list(const std::string& name,
                                                   const std::string& def,
                                                   const std::string& help);
  /// A non-empty comma-separated list of integers, each at least `min`.
  [[nodiscard]] std::vector<std::int64_t> flag_int_list(const std::string& name,
                                                        const std::string& def,
                                                        std::int64_t min,
                                                        const std::string& help);

  /// Call after declaring all flags: handles --help and rejects unknown flags.
  void finish() const;

 private:
  struct Entry {
    std::string name;
    std::string value;
    bool used = false;
  };
  struct HelpLine {
    std::string name;
    std::string def;
    std::string help;
  };

  [[nodiscard]] const std::string* lookup(const std::string& name);

  std::string program_;
  std::vector<Entry> entries_;
  std::vector<HelpLine> help_;
  bool help_requested_ = false;
};

}  // namespace dmis::util
