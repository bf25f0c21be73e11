/// Submit client of the campaign server.
///
///   slipflow_submit --socket=/tmp/slipflow.sock --spec=job.json
///       [--tenant=alice] [--sweep=params.wall_accel=0.1,0.2,0.3]
///       [--out-dir=results] [--quiet] [--no-wait]
///   slipflow_submit --direct --spec=job.json [--out-dir=results]
///       [--worker=/path/to/slipflow_worker]
///
/// The spec file is one JSON job spec (see serve/job_spec.hpp; "-"
/// reads stdin). --sweep fans the spec out over comma-separated values
/// for one (possibly dotted) key, one job per value; the jobs run
/// concurrently on the server and are waited in submission order.
/// --direct runs the spec as a standalone launch_workers invocation on
/// this machine — same argv builder as the server, so its observables
/// are the byte-identity reference for served results.
///
/// Exit code: 0 when every job finished "done", 1 otherwise, 2 on bad
/// flags or an unreadable/invalid spec.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/job_spec.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/options.hpp"

#ifndef SLIPFLOW_WORKER_EXE
#error "SLIPFLOW_WORKER_EXE must point at the slipflow_worker binary"
#endif

using namespace slipflow;
using util::JsonValue;

namespace {

std::string read_spec_text(const std::string& path) {
  std::ostringstream os;
  if (path == "-") {
    os << std::cin.rdbuf();
  } else {
    std::ifstream f(path, std::ios::binary);
    if (!f) throw serve::serve_error("cannot read spec file " + path);
    os << f.rdbuf();
  }
  return os.str();
}

/// Return a copy of `root` with the member at `dotted` path replaced.
JsonValue set_path(const JsonValue& root, const std::string& dotted,
                   const JsonValue& val) {
  JsonValue::Object o =
      root.is_object() ? root.as_object() : JsonValue::Object{};
  const std::size_t dot = dotted.find('.');
  if (dot == std::string::npos) {
    o[dotted] = val;
  } else {
    const std::string head = dotted.substr(0, dot);
    const auto it = o.find(head);
    o[head] = set_path(it == o.end() ? JsonValue(JsonValue::Object{})
                                     : it->second,
                       dotted.substr(dot + 1), val);
  }
  return JsonValue(std::move(o));
}

/// Sweep values are JSON scalars when they parse as one ("0.2", "true"),
/// plain strings otherwise ("filtered").
JsonValue sweep_value(const std::string& text) {
  try {
    return util::json_parse(text);
  } catch (const std::exception&) {
    return JsonValue(text);
  }
}

void write_observables(const std::string& out_dir, long long job,
                       const std::string& obs) {
  if (out_dir.empty()) return;
  const std::string path =
      out_dir + "/obs_job" + std::to_string(job) + ".txt";
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw serve::serve_error("cannot write " + path);
  f << obs;
}

int run_direct(const std::vector<JsonValue>& specs,
               const std::string& worker_exe, const std::string& out_dir) {
  int failures = 0;
  long long n = 0;
  for (const JsonValue& spec_json : specs) {
    ++n;
    const serve::JobSpec spec = serve::JobSpec::from_json(spec_json);
    serve::JobPaths paths;
    const std::string dir = out_dir.empty() ? "." : out_dir;
    paths.observables_out =
        dir + "/obs_direct" + std::to_string(n) + ".txt";
    const transport::LaunchConfig lc =
        serve::make_launch_config(spec, worker_exe, paths);
    const transport::LaunchResult res = transport::launch_workers(lc);
    if (res.ok) {
      std::cout << "direct run " << n << ": done in " << res.elapsed_seconds
                << "s, observables at " << paths.observables_out << "\n";
    } else {
      ++failures;
      std::cout << "direct run " << n << ": FAILED (rank "
                << res.failed_rank << ")\n"
                << res.diagnostic << "\n";
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = util::Options::parse(argc, argv);
  const std::string socket = opts.get("socket", std::string{});
  const std::string spec_path = opts.get("spec", std::string{});
  const std::string tenant = opts.get("tenant", std::string("default"));
  const std::string sweep = opts.get("sweep", std::string{});
  const std::string out_dir = opts.get("out-dir", std::string{});
  const bool quiet = opts.get("quiet", false);
  const bool no_wait = opts.get("no-wait", false);
  const bool direct = opts.get("direct", false);
  const std::string worker =
      opts.get("worker", std::string(SLIPFLOW_WORKER_EXE));
  const double timeout = opts.get("connect-timeout", 10.0);
  if (const std::string diag = opts.unknown_diagnostic(); !diag.empty()) {
    std::cerr << diag;
    return 2;
  }
  if (spec_path.empty()) {
    std::cerr << "slipflow_submit needs --spec=<file|->\n";
    return 2;
  }
  if (!direct && socket.empty()) {
    std::cerr << "slipflow_submit needs --socket=<path> (or --direct)\n";
    return 2;
  }

  try {
    const JsonValue base = util::json_parse(read_spec_text(spec_path));

    // Fan the spec out over the sweep values (one job per value).
    std::vector<JsonValue> specs;
    if (sweep.empty()) {
      specs.push_back(base);
    } else {
      const std::size_t eq = sweep.find('=');
      if (eq == std::string::npos || eq == 0)
        throw serve::serve_error("--sweep needs key=v1,v2,...");
      const std::string key = sweep.substr(0, eq);
      std::istringstream values(sweep.substr(eq + 1));
      std::string v;
      while (std::getline(values, v, ','))
        specs.push_back(set_path(base, key, sweep_value(v)));
      if (specs.empty())
        throw serve::serve_error("--sweep produced no values");
    }
    // Validate everything before submitting anything.
    for (const JsonValue& s : specs) (void)serve::JobSpec::from_json(s);
    // Both modes write obs_*.txt into --out-dir; create it (and parents)
    // up front so a missing directory never fails a finished job.
    if (!out_dir.empty()) std::filesystem::create_directories(out_dir);

    if (direct) return run_direct(specs, worker, out_dir);

    serve::Client client(socket, timeout);
    std::vector<long long> ids;
    for (const JsonValue& s : specs) {
      const long long id =
          client.submit(tenant, serve::JobSpec::from_json(s));
      std::cout << "submitted job " << id << "\n";
      ids.push_back(id);
    }
    if (no_wait) return 0;

    int failures = 0;
    for (const long long id : ids) {
      const JsonValue record =
          client.wait(id, [&](const JsonValue& ev) {
            if (!quiet) std::cout << "job " << id << ": " << ev.dump() << "\n";
          });
      const std::string state = record.string_or("state", "?");
      std::cout << "job " << id << ": " << state << ", attempts "
                << record.int_or("attempts", 0) << ", phases executed "
                << record.int_or("phases_executed", 0)
                << (record.bool_or("warm_hit", false) ? ", warm cache hit"
                                                      : "")
                << "\n";
      if (state == "done") {
        write_observables(out_dir, id,
                          record.string_or("observables", ""));
      } else {
        ++failures;
        std::cout << "  diagnostic: " << record.string_or("diagnostic", "")
                  << "\n";
      }
    }
    return failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "slipflow_submit: " << e.what() << "\n";
    return 2;
  }
}
