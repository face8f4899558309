#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace dmis::util {

namespace {

[[noreturn]] void reject(const std::string& name, const std::string& value,
                         const char* want) {
  std::fprintf(stderr, "bad value for --%s: '%s' (want %s)\n", name.c_str(),
               value.c_str(), want);
  std::exit(2);
}

std::int64_t parse_int(const std::string& name, const std::string& value,
                       const char* want) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || errno == ERANGE) reject(name, value, want);
  return parsed;
}

/// The items of a comma-separated list, empty items dropped.
std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = std::min(list.find(',', start), list.size());
    if (comma > start) out.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace

Cli::Cli(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "?";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n", arg.c_str());
      std::exit(2);
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    Entry entry;
    if (eq != std::string::npos) {
      entry.name = arg.substr(0, eq);
      entry.value = arg.substr(eq + 1);
    } else {
      entry.name = arg;
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        entry.value = argv[++i];
      } else {
        entry.value = "";  // bare flag: true for a bool, malformed for a number
      }
    }
    entries_.push_back(std::move(entry));
  }
}

const std::string* Cli::lookup(const std::string& name) {
  for (auto& entry : entries_) {
    if (entry.name == name) {
      entry.used = true;
      return &entry.value;
    }
  }
  return nullptr;
}

std::int64_t Cli::flag_int(const std::string& name, std::int64_t def,
                           const std::string& help) {
  help_.push_back({name, std::to_string(def), help});
  const std::string* raw = lookup(name);
  return raw != nullptr ? parse_int(name, *raw, "an integer") : def;
}

double Cli::flag_double(const std::string& name, double def, const std::string& help) {
  help_.push_back({name, std::to_string(def), help});
  const std::string* raw = lookup(name);
  if (raw == nullptr) return def;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(raw->c_str(), &end);
  if (raw->empty() || *end != '\0' || errno == ERANGE) reject(name, *raw, "a number");
  return parsed;
}

std::string Cli::flag_string(const std::string& name, std::string def,
                             const std::string& help) {
  help_.push_back({name, def, help});
  const std::string* raw = lookup(name);
  return raw != nullptr ? *raw : def;
}

bool Cli::flag_bool(const std::string& name, bool def, const std::string& help) {
  help_.push_back({name, def ? "true" : "false", help});
  const std::string* raw = lookup(name);
  if (raw == nullptr) return def;
  return raw->empty() || *raw == "true" || *raw == "1" || *raw == "yes";
}

std::vector<std::string> Cli::flag_list(const std::string& name, const std::string& def,
                                        const std::string& help) {
  return split_list(flag_string(name, def, help));
}

std::vector<std::int64_t> Cli::flag_int_list(const std::string& name,
                                             const std::string& def, std::int64_t min,
                                             const std::string& help) {
  help_.push_back({name, def, help});
  const std::string* raw = lookup(name);
  const std::string& list = raw != nullptr ? *raw : def;
  const std::string want = "a comma-separated list of integers >= " + std::to_string(min);
  std::vector<std::int64_t> out;
  for (const std::string& item : split_list(list)) {
    out.push_back(parse_int(name, item, want.c_str()));
    if (out.back() < min) reject(name, item, want.c_str());
  }
  if (out.empty()) reject(name, list, want.c_str());
  return out;
}

void Cli::finish() const {
  if (help_requested_) {
    std::printf("usage: %s [--flag=value ...]\n", program_.c_str());
    for (const auto& line : help_)
      std::printf("  --%-24s (default %s)  %s\n", line.name.c_str(),
                  line.def.c_str(), line.help.c_str());
    std::exit(0);
  }
  for (const auto& entry : entries_) {
    if (!entry.used) {
      std::fprintf(stderr, "unknown flag: --%s (see --help)\n", entry.name.c_str());
      std::exit(2);
    }
  }
}

}  // namespace dmis::util
