#include "serve/job_spec.hpp"

#include <limits>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <utility>

#include "balance/policy.hpp"
#include "serve/protocol.hpp"
#include "transport/shm_comm.hpp"
#include "util/options.hpp"

namespace slipflow::serve {

namespace {

using util::JsonValue;

/// One knob's declaration, paired in the table with its JobSpec member.
struct Knob {
  std::string path;       ///< spec JSON key; "group.key" nests once
  std::string flag = {};  ///< worker flag; "" = not in the argv
  bool warm = false;      ///< enters warm_key
  bool gated = false;     ///< flag rides only with its JobPaths entry
};
constexpr bool kWarm = true;
constexpr bool kGated = true;
constexpr long long kIntMax = std::numeric_limits<int>::max();

/// Rules return why a value is inadmissible, or "" when it is fine.
auto in(long long lo, long long hi = std::numeric_limits<long long>::max()) {
  return [lo, hi](long long v) {
    if (v < lo) return "must be >= " + std::to_string(lo);
    if (v > hi) return "must be <= " + std::to_string(hi);
    return std::string{};
  };
}
const auto any = [](const auto&) { return ""; };
const auto positive = [](double v) { return v > 0.0 ? "" : "must be > 0"; };

/// The knob table: every job knob once, the argv ones in argv order.
template <class Spec, class Visit>
void for_each_knob(Spec& s, Visit&& visit) {
  visit(Knob{"geometry.nx", "nx", kWarm}, s.nx, in(2));
  visit(Knob{"geometry.ny", "ny", kWarm}, s.ny, in(2));
  visit(Knob{"geometry.nz", "nz", kWarm}, s.nz, in(1));
  visit(Knob{"components", "", kWarm}, s.components, [](long long c) {
    return c == 2 ? "" : "must be 2 (the microchannel water+air model)";
  });
  // ParallelLbm::run takes an int phase count.
  visit(Knob{"phases", "phases"}, s.phases, in(1, kIntMax));
  visit(Knob{"params.wall_accel", "wall-accel", kWarm}, s.wall_accel, any);
  visit(Knob{"params.wall_decay", "wall-decay", kWarm}, s.wall_decay, any);
  visit(Knob{"params.air_fraction", "air-fraction", kWarm}, s.air_fraction,
        any);
  visit(Knob{"params.coupling_g", "coupling-g", kWarm}, s.coupling_g, any);
  visit(Knob{"params.gravity", "gravity", kWarm}, s.gravity, any);
  visit(Knob{"ranks"}, s.ranks, in(1));
  visit(Knob{"policy", "policy"}, s.policy, [](const std::string& p) {
    return balance::RemapPolicy::known(p) ? "" : "is not a remap policy";
  });
  visit(Knob{"remap_interval", "remap-interval"}, s.remap_interval, in(1));
  visit(Knob{"window", "window"}, s.window, in(1));
  visit(Knob{"min_transfer", "min-transfer"}, s.min_transfer, in(1));
  visit(Knob{"threads", "threads"}, s.threads, in(1));
  visit(Knob{"transport"}, s.transport, [](const std::string& t) {
    const bool known = t == "socket" || t == "shm" || t == "auto";
    return known ? "" : "must be \"socket\", \"shm\" or \"auto\"";
  });
  visit(Knob{"shm_ring_bytes"}, s.shm_ring_bytes, [](long long b) {
    return b == 0 ? std::string{} : in(transport::kShmMinRingBytes)(b);
  });
  visit(Knob{"warm_phases", "warm-phases", kWarm, kGated}, s.warm_phases,
        in(0));
  visit(Knob{"stream_every", "stream-every", false, kGated}, s.stream_every,
        in(0));
  // RunnerConfig's output interval is an int.
  visit(Knob{"checkpoint_every", "checkpoint-every", false, kGated},
        s.checkpoint_every, in(0, kIntMax));
  visit(Knob{"heartbeat_interval"}, s.heartbeat_interval, positive);
  visit(Knob{"heartbeat_grace"}, s.heartbeat_grace, any);
  visit(Knob{"wall_clock_budget"}, s.wall_clock_budget, positive);
  visit(Knob{"observables", "observables"}, s.observables, [](const auto& o) {
    return o == "physics" || o == "full" ? "" : "must be physics or full";
  });
  visit(Knob{"fault.kill_rank"}, s.fault_kill_rank, any);
  visit(Knob{"fault.kill_phase", "fault-kill-phase", false, kGated},
        s.fault_kill_phase, any);
}

void require(bool ok, const std::string& what) {
  if (!ok) throw serve_error("invalid job spec: " + what);
}

/// The rules that span knobs; each knob's own rule is in the table.
void check_cross_fields(const JobSpec& s) {
  require(s.nx >= s.ranks, "nx must be >= ranks (one plane per rank)");
  require(s.warm_phases <= s.phases, "warm_phases must be <= phases");
}

/// Integers are read and checked as long long, before any narrowing.
template <class T, class V = std::decay_t<T>>
using Wide = std::conditional_t<std::is_integral_v<V>, long long, V>;

std::string text(const std::string& v) { return v; }
std::string text(auto v) { return util::json_number(Wide<decltype(v)>(v)); }

template <class W>
W read(const JsonValue& o, const std::string& key, const W& fallback) {
  if constexpr (std::is_same_v<W, long long>)
    return o.int_or(key, fallback);
  else if constexpr (std::is_same_v<W, double>)
    return o.number_or(key, fallback);
  else
    return o.string_or(key, fallback);
}

/// Store `v` in `member` when its type and the knob's rule admit it;
/// otherwise throw a serve_error that names the knob as `name`.
template <class T, class Rule>
void admit(const std::string& name, const Wide<T>& v, T& member,
           const Rule& rule) {
  const std::string given = name + "=" + text(v) + " ";
  if constexpr (std::is_integral_v<T>)
    require(std::in_range<T>(v), given + "is out of range");
  const std::string why = rule(v);
  require(why.empty(), given + why);
  member = static_cast<T>(v);
}

std::pair<std::string, std::string> split(const std::string& path) {
  const std::size_t dot = path.find('.');
  if (dot == std::string::npos) return {"", path};
  return {path.substr(0, dot), path.substr(dot + 1)};
}

/// Reject members no knob declares, so a sweep-key typo fails admission.
/// `known` holds every knob's path and each group's "group." prefix.
void check_keys(const JsonValue& obj, const std::string& prefix,
                const std::set<std::string>& known) {
  for (const auto& [key, value] : obj.as_object()) {
    const std::string path = prefix + key;
    if (prefix.empty() && known.count(path + ".") != 0)
      check_keys(value, path + ".", known);
    else if (key.find('.') != std::string::npos || known.count(path) == 0)
      throw serve_error("unknown job spec field \"" + path + "\"");
  }
}

/// The knobs (all, or only the warm ones) as a nested spec object.
JsonValue knobs_json(const JobSpec& spec, bool warm_only) {
  std::map<std::string, JsonValue::Object> groups;  // "" = the top level
  for_each_knob(spec, [&](const Knob& k, const auto& member, const auto&) {
    const auto [group, key] = split(k.path);
    if (!warm_only || k.warm)
      groups[group][key] = JsonValue(Wide<decltype(member)>(member));
  });
  JsonValue::Object top = std::move(groups[""]);
  for (auto& [group, members] : groups)
    if (!group.empty()) top[group] = JsonValue(std::move(members));
  return JsonValue(std::move(top));
}

}  // namespace

JobSpec JobSpec::from_json(const JsonValue& v) {
  if (!v.is_object()) throw serve_error("job spec must be a JSON object");
  JobSpec s;
  std::set<std::string> known;
  for_each_knob(s, [&](const Knob& k, auto& member, const auto& rule) {
    const auto [group, key] = split(k.path);
    known.emplace(k.path);
    if (!group.empty()) known.insert(group + ".");
    const JsonValue* obj = group.empty() ? &v : v.find(group);
    const Wide<decltype(member)> fallback = member;
    admit(k.path, obj ? read(*obj, key, fallback) : fallback, member, rule);
  });
  check_keys(v, "", known);
  check_cross_fields(s);
  return s;
}

void JobSpec::read_worker_flags(const util::Options& opts) {
  for_each_knob(*this, [&](const Knob& k, auto& member, const auto& rule) {
    const Wide<decltype(member)> value = member;
    if (k.flag.empty())
      admit(k.path, value, member, rule);
    else
      admit("--" + k.flag, opts.get(k.flag, value), member, rule);
  });
  check_cross_fields(*this);
}

util::JsonValue JobSpec::to_json() const { return knobs_json(*this, false); }

std::string JobSpec::warm_key() const {
  // dump() is canonical (sorted keys, deterministic number formatting),
  // so equal physics always hashes to the same cache entry.
  return knobs_json(*this, true).dump();
}

transport::LaunchConfig make_launch_config(const JobSpec& spec,
                                           const std::string& worker_exe,
                                           const JobPaths& paths) {
  transport::LaunchConfig lc;
  lc.ranks = spec.ranks;
  lc.transport = spec.transport;
  lc.shm_ring_bytes = spec.shm_ring_bytes;
  lc.heartbeat_interval = spec.heartbeat_interval;
  lc.heartbeat_grace = spec.heartbeat_grace;
  lc.wall_clock_timeout = spec.wall_clock_budget;
  std::vector<std::string>& argv = lc.worker_command;
  argv = {worker_exe};
  std::map<const void*, std::string> gated;  // by member, placed below
  for_each_knob(spec, [&](const Knob& k, const auto& member, const auto&) {
    if (k.flag.empty()) return;
    std::string arg = "--" + k.flag + "=" + text(member);
    if (k.gated)
      gated[&member] = std::move(arg);
    else
      argv.push_back(std::move(arg));
  });
  if (!paths.observables_out.empty())
    argv.push_back("--observables-out=" + paths.observables_out);
  if (!paths.load_checkpoint.empty())
    argv.push_back("--load-checkpoint=" + paths.load_checkpoint);
  // The path-gated pairs: an interval is lowered only with its path.
  const auto pair = [&](const long long& every, const std::string& path,
                        const std::string& path_flag) {
    if (every <= 0 || path.empty()) return;
    argv.push_back(gated.at(&every));
    argv.push_back("--" + path_flag + "=" + path);
  };
  pair(spec.warm_phases, paths.warm_checkpoint_out, "warm-checkpoint-out");
  pair(spec.stream_every, paths.stream_dir, "stream-dir");
  pair(spec.checkpoint_every, paths.checkpoint_prefix, "checkpoint-out");
  if (spec.fault_kill_rank >= 0 && spec.fault_kill_rank < spec.ranks &&
      spec.fault_kill_phase >= 0)
    lc.extra_args[spec.fault_kill_rank] = {gated.at(&spec.fault_kill_phase)};
  return lc;
}

}  // namespace slipflow::serve
