#include "util/cli.hpp"

#include <cstdlib>
#include <sstream>

#include "util/error.hpp"

namespace nmdt {

CliParser::CliParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw ParseError("positional arguments are not supported: " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--flag value` unless the next token is another flag or absent, in
    // which case treat as boolean presence.
    const bool has_value = i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0;
    // Move-assigned: GCC 12 misreports operator=(const char*) as -Wrestrict.
    values_[arg] = std::string(has_value ? argv[++i] : "1");
  }
}

void CliParser::declare(const std::string& name, const std::string& help_text) {
  declared_.emplace_back(name, help_text);
}

bool CliParser::has(const std::string& name) const { return values_.count(name) > 0; }

std::string CliParser::get(const std::string& name, const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

i64 CliParser::get_int(const std::string& name, i64 fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const i64 v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    throw ParseError("flag --" + name + " expects an integer, got '" + it->second + "'");
  }
  return v;
}

double CliParser::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    throw ParseError("flag --" + name + " expects a number, got '" + it->second + "'");
  }
  return v;
}

void CliParser::validate() const {
  for (const auto& [name, value] : values_) {
    (void)value;
    bool known = name == "help";
    for (const auto& [decl, help_text] : declared_) {
      (void)help_text;
      if (decl == name) {
        known = true;
        break;
      }
    }
    if (!known) throw ParseError("unknown flag --" + name + " (try --help)");
  }
}

std::string CliParser::help(const std::string& program_summary) const {
  std::ostringstream os;
  os << program_summary << "\n\nFlags:\n";
  for (const auto& [name, help_text] : declared_) {
    os << "  --" << name << "\n      " << help_text << "\n";
  }
  return os.str();
}

}  // namespace nmdt
