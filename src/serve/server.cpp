#include "serve/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <thread>
#include <utility>

#include "lbm/checkpoint.hpp"

namespace slipflow::serve {

namespace fs = std::filesystem;
using util::JsonValue;

namespace {

bool is_terminal(JobState s) {
  return s == JobState::done || s == JobState::failed ||
         s == JobState::cancelled;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw serve_error("missing output file " + path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

std::string make_event(std::initializer_list<std::pair<const char*, JsonValue>> kv) {
  JsonValue::Object o;
  for (auto& [k, v] : kv) o[k] = v;
  return JsonValue(std::move(o)).dump();
}

std::string error_json(const std::string& what) {
  JsonValue::Object o;
  o["ok"] = JsonValue(false);
  o["error"] = JsonValue(what);
  return JsonValue(std::move(o)).dump();
}

/// Newest complete recovery checkpoint `<prefix>.<P>.ckpt` in `dir`
/// matching the spec's domain. Torn files cannot appear (every
/// checkpoint is published by rename), but validate header + exact size
/// anyway — the directory is also the tenant's, not only ours.
struct RecoveryCandidate {
  std::string path;
  long long phase = 0;
};

RecoveryCandidate best_recovery_checkpoint(const std::string& dir,
                                           const JobSpec& spec) {
  RecoveryCandidate best;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 9 || name.compare(0, 3, "ck.") != 0 ||
        name.compare(name.size() - 5, 5, ".ckpt") != 0)
      continue;
    const std::string digits = name.substr(3, name.size() - 8);
    if (digits.empty() ||
        !std::all_of(digits.begin(), digits.end(),
                     [](unsigned char c) { return std::isdigit(c); }))
      continue;
    try {
      const std::string path = entry.path().string();
      const lbm::CheckpointInfo info = lbm::read_checkpoint_info(path);
      if (info.global.nx != spec.nx || info.global.ny != spec.ny ||
          info.global.nz != spec.nz ||
          info.components != static_cast<std::size_t>(spec.components))
        continue;
      std::error_code sec;
      if (fs::file_size(path, sec) != lbm::expected_checkpoint_bytes(info) ||
          sec)
        continue;
      if (info.phase > best.phase && info.phase <= spec.phases) {
        best.path = path;
        best.phase = info.phase;
      }
    } catch (const std::exception&) {
      continue;  // unreadable candidate: not a recovery seed
    }
  }
  return best;
}

}  // namespace

const char* to_string(JobState s) {
  switch (s) {
    case JobState::queued: return "queued";
    case JobState::running: return "running";
    case JobState::done: return "done";
    case JobState::failed: return "failed";
    case JobState::cancelled: return "cancelled";
  }
  return "unknown";
}

int pick_next_job(const std::vector<QueuedJob>& queue,
                  const std::map<std::string, int>& tenant_running_slots,
                  int free_slots) {
  int best = -1;
  int best_load = 0;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (queue[i].ranks > free_slots) continue;
    const auto it = tenant_running_slots.find(queue[i].tenant);
    const int load = it == tenant_running_slots.end() ? 0 : it->second;
    if (best < 0 || load < best_load) {
      best = static_cast<int>(i);
      best_load = load;
    }
  }
  return best;
}

CampaignServer::CampaignServer(Config cfg)
    : cfg_(std::move(cfg)), cache_(cfg_.work_dir + "/warm") {}

CampaignServer::~CampaignServer() { stop(); }

void CampaignServer::start() {
  {
    std::lock_guard lk(mu_);
    if (started_) throw serve_error("server already started");
    started_ = true;
    free_slots_ = cfg_.policy.total_slots;
  }
  if (!cfg_.socket_path.empty()) {
    listener_ = unix_listen(cfg_.socket_path);
    accept_thread_ = std::thread(&CampaignServer::accept_loop, this);
  }
  scheduler_thread_ = std::thread(&CampaignServer::scheduler_loop, this);
}

void CampaignServer::stop() {
  {
    std::lock_guard lk(mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
    for (const QueuedJob& q : queue_) {
      JobRecord& rec = *jobs_.at(q.id);
      rec.state = JobState::cancelled;
      rec.diagnostic = "cancelled: server shutdown";
      append_event(rec, make_event({{"event", JsonValue("cancelled")},
                                    {"job", JsonValue(q.id)}}));
    }
    queue_.clear();
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    cv_.notify_all();
  }
  unix_shutdown(listener_);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (scheduler_thread_.joinable()) scheduler_thread_.join();
  // Running jobs finish on their own — every launch is bounded by the
  // job's wall-clock budget, so this join cannot hang indefinitely.
  for (std::thread& t : job_threads_)
    if (t.joinable()) t.join();
  for (std::thread& t : conn_threads_)
    if (t.joinable()) t.join();
  listener_.reset();
  if (!cfg_.socket_path.empty()) ::unlink(cfg_.socket_path.c_str());
}

bool CampaignServer::shutdown_requested() const {
  std::lock_guard lk(mu_);
  return shutdown_requested_;
}

void CampaignServer::append_event(JobRecord& rec, std::string event_json_line) {
  rec.events.push_back(std::move(event_json_line));
  cv_.notify_all();
}

long long CampaignServer::submit(const std::string& tenant,
                                 const JobSpec& spec) {
  std::lock_guard lk(mu_);
  if (!started_ || stopping_) throw serve_error("server is not accepting jobs");
  const AdmissionPolicy& pol = cfg_.policy;
  if (spec.ranks > pol.max_ranks_per_job)
    throw serve_error("admission reject: job wants " +
                      std::to_string(spec.ranks) +
                      " ranks, policy allows at most " +
                      std::to_string(pol.max_ranks_per_job) + " per job");
  // Each rank's thread pool spawns threads-1 workers outside the slot
  // accounting, so a rank may not ask for more lanes than the host has.
  const int max_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  if (spec.threads > max_threads)
    throw serve_error("admission reject: job wants threads=" +
                      std::to_string(spec.threads) +
                      " per rank, this host allows at most " +
                      std::to_string(max_threads));
  if (spec.ranks > pol.total_slots)
    throw serve_error("admission reject: job wants " +
                      std::to_string(spec.ranks) +
                      " ranks but the slot pool holds " +
                      std::to_string(pol.total_slots));
  if (static_cast<int>(queue_.size()) >= pol.max_queued)
    throw serve_error("admission reject: queue full (max_queued=" +
                      std::to_string(pol.max_queued) + ")");
  const long long id = next_id_++;
  auto rec = std::make_unique<JobRecord>();
  rec->id = id;
  rec->tenant = tenant;
  rec->spec = spec;
  append_event(*rec, make_event({{"event", JsonValue("queued")},
                                 {"job", JsonValue(id)},
                                 {"tenant", JsonValue(tenant)}}));
  queue_.push_back(QueuedJob{id, tenant, spec.ranks});
  jobs_.emplace(id, std::move(rec));
  cv_.notify_all();
  return id;
}

JsonValue CampaignServer::record_json_locked(const JobRecord& rec) const {
  JsonValue::Object o;
  o["id"] = JsonValue(rec.id);
  o["tenant"] = JsonValue(rec.tenant);
  o["state"] = JsonValue(to_string(rec.state));
  o["attempts"] = JsonValue(static_cast<long long>(rec.attempts));
  o["failed_rank"] = JsonValue(static_cast<long long>(rec.failed_rank));
  o["diagnostic"] = JsonValue(rec.diagnostic);
  o["warm_hit"] = JsonValue(rec.warm_hit);
  o["phases_executed"] = JsonValue(rec.phases_executed);
  o["top_phase"] = JsonValue(rec.top_phase);
  o["spec"] = rec.spec.to_json();
  if (rec.state == JobState::done)
    o["observables"] = JsonValue(rec.observables);
  return JsonValue(std::move(o));
}

JsonValue CampaignServer::status(long long id) const {
  std::lock_guard lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw serve_error("no such job " + std::to_string(id));
  return record_json_locked(*it->second);
}

JsonValue CampaignServer::wait(long long id) {
  std::unique_lock lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end())
    throw serve_error("no such job " + std::to_string(id));
  JobRecord& rec = *it->second;
  cv_.wait(lk, [&] { return stopping_ || is_terminal(rec.state); });
  return record_json_locked(rec);
}

JsonValue CampaignServer::stats() const {
  std::lock_guard lk(mu_);
  long long queued = 0, running = 0, done = 0, failed = 0, cancelled = 0;
  for (const auto& [id, rec] : jobs_) {
    (void)id;
    switch (rec->state) {
      case JobState::queued: ++queued; break;
      case JobState::running: ++running; break;
      case JobState::done: ++done; break;
      case JobState::failed: ++failed; break;
      case JobState::cancelled: ++cancelled; break;
    }
  }
  JsonValue::Object o;
  o["ok"] = JsonValue(true);
  o["jobs"] = JsonValue(static_cast<long long>(jobs_.size()));
  o["queued"] = JsonValue(queued);
  o["running"] = JsonValue(running);
  o["done"] = JsonValue(done);
  o["failed"] = JsonValue(failed);
  o["cancelled"] = JsonValue(cancelled);
  o["cache_hits"] = JsonValue(cache_hits_);
  o["cache_misses"] = JsonValue(cache_misses_);
  o["slots_total"] = JsonValue(static_cast<long long>(cfg_.policy.total_slots));
  o["slots_free"] = JsonValue(static_cast<long long>(free_slots_));
  return JsonValue(std::move(o));
}

void CampaignServer::scheduler_loop() {
  std::unique_lock lk(mu_);
  while (!stopping_) {
    const int idx = pick_next_job(queue_, tenant_running_slots_, free_slots_);
    if (idx < 0) {
      cv_.wait(lk);
      continue;
    }
    const QueuedJob q = queue_[static_cast<std::size_t>(idx)];
    queue_.erase(queue_.begin() + idx);
    free_slots_ -= q.ranks;
    tenant_running_slots_[q.tenant] += q.ranks;
    JobRecord& rec = *jobs_.at(q.id);
    rec.state = JobState::running;
    append_event(rec, make_event({{"event", JsonValue("started")},
                                  {"job", JsonValue(q.id)},
                                  {"ranks", JsonValue(static_cast<long long>(
                                                q.ranks))}}));
    job_threads_.emplace_back([this, &rec, q] {
      run_job(rec);
      std::lock_guard lk2(mu_);
      free_slots_ += q.ranks;
      tenant_running_slots_[q.tenant] -= q.ranks;
      cv_.notify_all();
    });
  }
}

namespace {

/// Forwarded stream-fragment files, ordered by phase so the event log
/// replays the run in simulation order.
struct Fragment {
  long long phase;
  std::string kind;
  std::string name;
};

}  // namespace

void CampaignServer::run_job(JobRecord& rec) {
  const JobSpec spec = rec.spec;  // immutable once registered
  const std::string jobdir =
      cfg_.work_dir + "/job_" + std::to_string(rec.id);
  const std::string stream_dir = jobdir + "/stream";
  std::error_code ec;
  fs::create_directories(jobdir, ec);
  if (spec.stream_every > 0) fs::create_directories(stream_dir, ec);

  // Warm-state cache: a hit seeds the run at warm_phases; a miss makes
  // this job the producer of the cache entry.
  std::string load_ck;
  long long seed_phase = 0;
  std::string warm_tmp;
  std::string key;
  if (spec.warm_phases > 0) {
    key = spec.warm_key();
    const std::string hit = cache_.lookup(key, spec.warm_phases);
    std::lock_guard lk(mu_);
    if (!hit.empty()) {
      load_ck = hit;
      seed_phase = spec.warm_phases;
      rec.warm_hit = true;
      ++cache_hits_;
      append_event(rec,
                   make_event({{"event", JsonValue("warm_hit")},
                               {"seed_phase", JsonValue(seed_phase)}}));
    } else {
      ++cache_misses_;
      warm_tmp = jobdir + "/warm.ckpt";
    }
  }

  std::set<std::string> consumed;  // fragment files already forwarded
  const auto forward_fragments = [&] {
    std::vector<Fragment> fresh;
    std::error_code dec;
    for (const auto& entry : fs::directory_iterator(stream_dir, dec)) {
      const std::string name = entry.path().filename().string();
      std::string kind;
      if (name.compare(0, 4, "obs_") == 0) kind = "obs";
      else if (name.compare(0, 6, "trace_") == 0) kind = "trace";
      else continue;
      if (name.size() < 6 || name.compare(name.size() - 5, 5, ".json") != 0)
        continue;  // skips in-flight .tmp files
      if (consumed.count(name) != 0) continue;
      const std::string digits = name.substr(
          kind.size() + 1, name.size() - kind.size() - 6);
      long long phase = 0;
      try {
        phase = std::stoll(digits);
      } catch (const std::exception&) {
        continue;
      }
      fresh.push_back(Fragment{phase, kind, name});
    }
    std::sort(fresh.begin(), fresh.end(), [](const Fragment& a,
                                             const Fragment& b) {
      return a.phase != b.phase ? a.phase < b.phase : a.kind < b.kind;
    });
    for (const Fragment& f : fresh) {
      std::string data;
      try {
        data = read_file(stream_dir + "/" + f.name);
      } catch (const std::exception&) {
        continue;  // racing with the writer's rename; retry next tick
      }
      consumed.insert(f.name);
      std::lock_guard lk(mu_);
      append_event(rec, make_event({{"event", JsonValue("fragment")},
                                    {"kind", JsonValue(f.kind)},
                                    {"phase", JsonValue(f.phase)},
                                    {"data", JsonValue(data)}}));
    }
  };

  for (int attempt = 1; attempt <= cfg_.policy.max_attempts; ++attempt) {
    {
      std::lock_guard lk(mu_);
      rec.attempts = attempt;
    }
    JobSpec attempt_spec = spec;
    if (attempt > 1) {
      // Injected faults fire once: the recovery attempt runs clean.
      attempt_spec.fault_kill_rank = -1;
      attempt_spec.fault_kill_phase = -1;
    }
    JobPaths paths;
    paths.observables_out = jobdir + "/observables.txt";
    if (spec.checkpoint_every > 0) paths.checkpoint_prefix = jobdir + "/ck";
    if (spec.stream_every > 0) paths.stream_dir = stream_dir;
    paths.load_checkpoint = load_ck;
    if (!warm_tmp.empty() && seed_phase < spec.warm_phases)
      paths.warm_checkpoint_out = warm_tmp;

    transport::LaunchConfig lc =
        make_launch_config(attempt_spec, cfg_.worker_exe, paths);
    const long long attempt_start = seed_phase;
    lc.on_progress = [this, &rec](int rank, long long phase) {
      std::lock_guard lk(mu_);
      if (phase <= rec.top_phase) return;
      rec.top_phase = phase;
      append_event(rec,
                   make_event({{"event", JsonValue("progress")},
                               {"rank", JsonValue(static_cast<long long>(rank))},
                               {"phase", JsonValue(phase)}}));
    };
    if (spec.stream_every > 0) lc.on_tick = forward_fragments;

    const transport::LaunchResult res = transport::launch_workers(lc);
    if (spec.stream_every > 0) forward_fragments();  // final fragments

    if (res.ok) {
      std::string obs;
      try {
        obs = read_file(paths.observables_out);
      } catch (const std::exception& e) {
        std::lock_guard lk(mu_);
        rec.state = JobState::failed;
        rec.diagnostic = e.what();
        cv_.notify_all();
        return;
      }
      bool promoted = false;
      if (!warm_tmp.empty() && fs::exists(warm_tmp))
        promoted = cache_.promote(key, spec.warm_phases, warm_tmp);
      std::lock_guard lk(mu_);
      rec.phases_executed += spec.phases - attempt_start;
      rec.observables = std::move(obs);
      rec.state = JobState::done;
      append_event(rec, make_event({{"event", JsonValue("completed")},
                                    {"attempt", JsonValue(static_cast<long long>(
                                                    attempt))},
                                    {"warm_promoted", JsonValue(promoted)}}));
      cv_.notify_all();
      return;
    }

    // Failure: keep the launcher's guilty-rank diagnostic, then try to
    // recover from the newest complete checkpoint.
    long long reached = attempt_start;
    for (const long long p : res.last_phase) reached = std::max(reached, p);
    {
      std::lock_guard lk(mu_);
      rec.failed_rank = res.failed_rank;
      rec.diagnostic = res.diagnostic;
      rec.phases_executed += std::max(0LL, reached - attempt_start);
      append_event(
          rec, make_event(
                   {{"event", JsonValue("failure")},
                    {"attempt", JsonValue(static_cast<long long>(attempt))},
                    {"failed_rank",
                     JsonValue(static_cast<long long>(res.failed_rank))}}));
      if (attempt == cfg_.policy.max_attempts || stopping_) {
        rec.state = JobState::failed;
        cv_.notify_all();
        return;
      }
    }
    if (spec.checkpoint_every > 0) {
      const RecoveryCandidate best = best_recovery_checkpoint(jobdir, spec);
      if (!best.path.empty() && best.phase > seed_phase) {
        load_ck = best.path;
        seed_phase = best.phase;
      }
    }
    std::lock_guard lk(mu_);
    append_event(rec,
                 make_event({{"event", JsonValue("recovery")},
                             {"attempt", JsonValue(static_cast<long long>(
                                             attempt + 1))},
                             {"resume_phase", JsonValue(seed_phase)}}));
  }
}

void CampaignServer::accept_loop() {
  while (true) {
    Fd c = unix_accept(listener_);
    if (!c.valid()) return;
    std::lock_guard lk(mu_);
    if (stopping_) return;
    conn_threads_.emplace_back(&CampaignServer::handle_connection, this,
                               std::move(c));
  }
}

void CampaignServer::handle_connection(Fd fd) {
  const int raw = fd.get();
  {
    std::lock_guard lk(mu_);
    conn_fds_.insert(raw);
  }
  {
    LineChannel ch(std::move(fd));
    try {
      std::string line;
      if (ch.read_line(line)) {
        JsonValue req;
        try {
          req = util::json_parse(line);
        } catch (const std::exception& e) {
          ch.write_line(error_json(std::string("bad request: ") + e.what()));
          line.clear();
        }
        if (req.is_object()) {
          try {
            const std::string cmd = req.string_or("cmd", "");
            if (cmd == "submit") {
              const JsonValue* spec_json = req.find("spec");
              if (spec_json == nullptr)
                throw serve_error("submit needs a \"spec\" object");
              const JobSpec spec = JobSpec::from_json(*spec_json);
              const std::string tenant = req.string_or("tenant", "default");
              const long long id = submit(tenant, spec);
              JsonValue::Object ack;
              ack["ok"] = JsonValue(true);
              ack["job"] = JsonValue(id);
              ch.write_line(JsonValue(std::move(ack)).dump());
              if (req.bool_or("wait", false)) stream_job(ch, id);
            } else if (cmd == "status") {
              const JsonValue rec = status(req.int_or("job", -1));
              JsonValue::Object o;
              o["ok"] = JsonValue(true);
              o["record"] = rec;
              ch.write_line(JsonValue(std::move(o)).dump());
            } else if (cmd == "wait") {
              const long long id = req.int_or("job", -1);
              {
                std::lock_guard lk(mu_);
                if (jobs_.find(id) == jobs_.end())
                  throw serve_error("no such job " + std::to_string(id));
              }
              JsonValue::Object ack;
              ack["ok"] = JsonValue(true);
              ack["job"] = JsonValue(id);
              ch.write_line(JsonValue(std::move(ack)).dump());
              stream_job(ch, id);
            } else if (cmd == "stats") {
              ch.write_line(stats().dump());
            } else if (cmd == "shutdown") {
              {
                std::lock_guard lk(mu_);
                shutdown_requested_ = true;
              }
              JsonValue::Object o;
              o["ok"] = JsonValue(true);
              ch.write_line(JsonValue(std::move(o)).dump());
            } else {
              throw serve_error("unknown cmd \"" + cmd + "\"");
            }
          } catch (const std::exception& e) {
            ch.write_line(error_json(e.what()));
          }
        }
      }
    } catch (const std::exception&) {
      // Peer vanished mid-conversation: nothing left to tell it.
    }
    std::lock_guard lk(mu_);
    conn_fds_.erase(raw);
  }
}

void CampaignServer::stream_job(LineChannel& ch, long long id) {
  std::size_t next = 0;
  while (true) {
    std::vector<std::string> batch;
    bool terminal = false;
    JsonValue record;
    {
      std::unique_lock lk(mu_);
      const auto it = jobs_.find(id);
      if (it == jobs_.end())
        throw serve_error("no such job " + std::to_string(id));
      JobRecord& rec = *it->second;
      cv_.wait(lk, [&] {
        return stopping_ || rec.events.size() > next || is_terminal(rec.state);
      });
      while (next < rec.events.size()) batch.push_back(rec.events[next++]);
      terminal = stopping_ || is_terminal(rec.state);
      if (terminal) record = record_json_locked(rec);
    }
    for (const std::string& e : batch) ch.write_line(e);
    if (terminal) {
      JsonValue::Object o;
      o["event"] = JsonValue("done");
      o["record"] = record;
      ch.write_line(JsonValue(std::move(o)).dump());
      return;
    }
  }
}

}  // namespace slipflow::serve
