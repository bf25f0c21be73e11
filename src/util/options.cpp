#include "util/options.hpp"

#include <cstdlib>

#include "util/require.hpp"

namespace slipflow::util {

Options Options::parse(int argc, const char* const* argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      // A bare --flag means --flag=1.
      const auto eq = arg.find('=');
      o.kv_[arg.substr(2, eq - 2)] =
          eq == std::string::npos ? std::string(1, '1') : arg.substr(eq + 1);
    } else {
      o.positional_.push_back(std::move(arg));
    }
  }
  return o;
}

std::string Options::get(const std::string& key,
                         const std::string& fallback) const {
  touched_[key] = true;
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

long long Options::get(const std::string& key, long long fallback) const {
  touched_[key] = true;
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  SLIPFLOW_REQUIRE_MSG(end && *end == '\0',
                       "option --" << key << " expects an integer, got '"
                                   << it->second << "'");
  return v;
}

double Options::get(const std::string& key, double fallback) const {
  touched_[key] = true;
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  SLIPFLOW_REQUIRE_MSG(end && *end == '\0',
                       "option --" << key << " expects a number, got '"
                                   << it->second << "'");
  return v;
}

bool Options::get(const std::string& key, bool fallback) const {
  touched_[key] = true;
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  const std::string& s = it->second;
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  SLIPFLOW_REQUIRE_MSG(false, "option --" << key << " expects a bool, got '"
                                          << s << "'");
  return fallback;  // unreachable
}

bool Options::has(const std::string& key) const {
  touched_[key] = true;
  return kv_.count(key) > 0;
}

std::vector<std::string> Options::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : kv_) {
    (void)v;
    if (!touched_.count(k)) out.push_back(k);
  }
  return out;
}

std::vector<std::string> Options::known_keys() const {
  std::vector<std::string> out;
  out.reserve(touched_.size());
  for (const auto& [k, used] : touched_) {
    (void)used;
    out.push_back(k);  // touched_ is ordered, so this is already sorted
  }
  return out;
}

std::string Options::unknown_diagnostic() const {
  const std::vector<std::string> unknown = unused_keys();
  if (unknown.empty()) return {};
  std::string out;
  for (const std::string& k : unknown)
    out += "unknown option --" + k + "\n";
  out += "valid flags:";
  for (const std::string& k : known_keys()) out += " --" + k;
  out += "\n";
  return out;
}

}  // namespace slipflow::util
