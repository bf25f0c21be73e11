#!/usr/bin/env python3
"""slipflow benchmark: direct-run and served-job timings plus a per-layer
ledger.

    python3 perfbench/run.py --workload resweep|tenants --seed N \
        --seconds S --trace 0|1

Run from the root of a slipflow checkout. The benchmark builds the
worker, the campaign daemon, the submit client and two bench binaries
from that checkout (CMake, Release, build dir $CARGO_TARGET_DIR or
.bench_build), then measures one workload and prints one JSON object as
the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The traffic is the README's service quickstart: a daemon with 8 slots,
and the job spec

    {"geometry": {"nx": 64, "ny": 16, "nz": 8}, "phases": 400,
     "ranks": 4, "warm_phases": 100, "stream_every": 50,
     "checkpoint_every": 50}

fanned out as a three-value sweep of params.gravity over the README's
range 1e-5..4e-5 (values drawn from --seed), plus its byte-identity
reference `slipflow_submit --direct` on the same spec and sweep. All
files and sockets live in <build dir>/perfbench, wiped at the start.

  set-up  Start the daemon and run one probe job (the JobSpec defaults)
          through it, three times; the last daemon stays up. setup_s is
          the median cold start: spawn -> control socket answers -> probe
          job done.
  rounds  Until --seconds have passed, alternate a direct round and a
          served round, so both sample the same stretch of host time.
          Direct: each tenant runs `slipflow_submit --direct --spec=...
          --sweep=...` on its first sweep, all tenants at once, the way
          users without the daemon would. Direct round 0 is an untimed
          warm-up. phase_ms is the wall time of one such process divided
          by the phases it ran (3 x 400), averaged over the middle half of
          the processes; it includes the launcher's 50 ms supervision
          tick, as a user pays it. Served: each tenant submits its next
          sweep over the control socket (jobs in order, like
          slipflow_submit) and all jobs are waited for. job_ms is the
          submit -> done latency of a job as the client sees it, averaged
          over the middle half of the jobs.

Workloads:

  resweep  The README quickstart as written: one tenant repeats one
           sweep on the socket transport, so the first sweep computes
           and publishes the three equilibrations and every later job is
           a warm-cache hit that executes 300 of 400 phases.
  tenants  Two tenants sweep at once with new gravity values every
           sweep, so every job misses the cache: six 4-rank jobs for 8
           slots, jobs queue and fair share decides who runs. The direct
           rounds are two concurrent --direct processes, what the two
           users would get without the daemon. Shm transport, the spec's
           other same-host transport.

Correctness, checked on every run: every process exits 0; every job ends
"done" in one attempt, hits the warm cache exactly when its key was
computed before and then executes phases - warm_phases; the streamed
observable fragments arrive for every 50th executed phase and each
conserves both masses; every final observable file conserves the mass of
both components (nx*ny*nz and nx*ny*nz*air_fraction to 1e-9) with
finite velocities, positive densities and a net flow along +x; jobs of
equal physics are byte-identical; every --direct result is byte-identical
to the served job of the same gravity. With --trace 1 also: the
per-backend kernel bench reports every backend, and the paper's 20-node
virtual scenario (fig09_execution_profile) is deterministic and ranks
the schemes as the paper's Figure 9 does.

Per-layer metrics (--trace 1) and the end-to-end metric each should
move:

  lbm        lbm_kernel_ms (rank 0, per phase, from the streamed trace
             fragments) -> phase_ms, job_ms; lbm_mlups_<backend> from
             micro_lbm_kernels, one per kernel backend.
  sim        sim_phase_ms (rank 0 traced time per phase), sim_plan_ms
             -> phase_ms, job_ms.
  transport  transport_halo_post_ms, transport_halo_wait_ms (per phase)
             -> phase_ms, job_ms; socket on resweep, shm on tenants.
  balance    balance_remap_ms (per remap) -> phase_ms, job_ms.
  io         io_checkpoint_ms (per recovery checkpoint) -> job_ms.
  launch     launch_ms: a job's run span minus its traced worker time
             (spawn, mesh connect, teardown, supervision tick)
             -> phase_ms, job_ms.
  serve      serve_submit_ms, serve_queue_ms, serve_run_ms,
             serve_result_ms -> job_ms (queue mostly on tenants);
             serve_warm_hit_ratio, serve_phases_executed_share -> job_ms
             on resweep; serve_jobs_per_s; setup_bind_ms, setup_probe_ms
             -> setup_s.
  cluster    cluster_fig09_ms: host time to simulate the 20-node virtual
             scenario (4 schemes x 600 phases); no end-to-end metric,
             the virtual times themselves are a deterministic canary.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

SETUP_REPEATS = 3      # cold starts measured for setup_s
TIMEOUT = 60.0         # seconds one process or job may take
FIG09_REPEATS = 5      # virtual-scenario runs timed with --trace 1

# README service quickstart: daemon slots, job spec, sweep key and range.
SLOTS = 8
SPEC = {"geometry": {"nx": 64, "ny": 16, "nz": 8}, "phases": 400,
        "ranks": 4, "warm_phases": 100, "stream_every": 50,
        "checkpoint_every": 50}
SWEEP_LEN = 3
GRAVITY_RANGE = (1e-5, 4e-5)
AIR_FRACTION = 0.03    # JobSpec default
PROBE_SPEC = {"phases": 10, "ranks": 1}

WORKLOADS = {
    "resweep": dict(tenants=["a"], transport="socket", repeat=True),
    "tenants": dict(tenants=["a", "b"], transport="shm", repeat=False),
}

BACKENDS = ("scalar", "autovec", "avx2", "avx512")
KERNEL_STAGES = ("collide", "interior_stream", "boundary_stream",
                 "interior_force", "boundary_force")
FIG09_RANKING = ("dedicated", "filtered", "conservative", "no-remap")


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def now():
    return time.perf_counter()


# --------------------------------------------------------------- processes

class Procs:
    """Every process the benchmark starts, each in its own session so the
    workers a launcher forks die with it. kill_all() ends and reaps them."""

    def __init__(self):
        self.live = []

    def spawn(self, argv, **kw):
        p = subprocess.Popen(argv, start_new_session=True,
                             stdin=subprocess.DEVNULL, **kw)
        self.live.append(p)
        return p

    @staticmethod
    def killpg(p):
        try:
            os.killpg(p.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def kill(self, p):
        if p.returncode is None:  # not reaped yet: its group may live on
            self.killpg(p)
        p.wait()
        if p in self.live:
            self.live.remove(p)

    def kill_all(self):
        for p in list(self.live):
            self.kill(p)

    def run_timed(self, argvs, out_paths):
        """Start the commands together; return (exit code, wall seconds)
        of each. Blocking waits on one thread per process: a timed
        Popen.wait polls on a 50 ms grid, which would round every wall
        time. A watchdog kills the processes when they overrun."""
        results = [None] * len(argvs)
        procs = []
        t0 = now()
        for argv, out in zip(argvs, out_paths):
            with open(out, "w") as f:
                procs.append(self.spawn(argv, stdout=f, stderr=f))

        def waiter(i):
            code = procs[i].wait()
            results[i] = (code, now() - t0)

        threads = [threading.Thread(target=waiter, args=(i,))
                   for i in range(len(procs))]
        watchdog = threading.Timer(
            TIMEOUT, lambda: [self.killpg(p) for p in procs])
        watchdog.start()
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        watchdog.cancel()
        for p in procs:
            self.kill(p)
        return results


# --------------------------------------------------------------- build

TARGETS = ("slipflow_worker", "slipflow_served", "slipflow_submit",
           "fig09_execution_profile", "micro_lbm_kernels")


def find_exe(build_dir, name):
    for root, _dirs, files in os.walk(build_dir):
        if name in files and "CMakeFiles" not in root:
            path = os.path.join(root, name)
            if os.access(path, os.X_OK):
                return os.path.abspath(path)
    raise BenchError(f"{name} not found under {build_dir}")


def build(build_dir):
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise BenchError("run from the root of a slipflow checkout")
    jobs = str(min(8, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", ".", "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    *TARGETS], check=True, stdout=sys.stderr)
    return {name: find_exe(build_dir, name) for name in TARGETS}


# --------------------------------------------------------------- inputs

def sweep_values(seed, tenant, k, repeat):
    """Gravity values of sweep k of a tenant; resweep repeats sweep 0."""
    rng = random.Random(f"{seed}/{tenant}/{0 if repeat else k}")
    return [rng.uniform(*GRAVITY_RANGE) for _ in range(SWEEP_LEN)]


def base_spec(workload):
    return dict(SPEC, transport=WORKLOADS[workload]["transport"])


def job_spec(workload, gravity):
    return dict(base_spec(workload), params={"gravity": gravity})


# --------------------------------------------------------------- checks

def check_masses(masses, cells):
    if len(masses) != 2:
        return "expected masses of two components"
    for c, expect in ((0, cells), (1, cells * AIR_FRACTION)):
        if abs(masses[c] / expect - 1.0) > 1e-9:
            return f"component {c} mass {masses[c]!r} != {expect!r}"
    return None


def check_observables(text, geometry):
    """Physics invariants of one observable file; returns a problem or
    None."""
    masses, ux, rho = {}, [], []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "mass":
            masses[int(parts[1])] = float.fromhex(parts[2])
        elif len(parts) == 4 and parts[0] == "ux":
            ux.append(float.fromhex(parts[3]))
        elif len(parts) == 4 and parts[0] == "rho0":
            rho.append(float.fromhex(parts[3]))
    planes = geometry["nx"] * geometry["ny"]
    if sorted(masses) != [0, 1]:
        return "expected masses of two components"
    problem = check_masses([masses[0], masses[1]], planes * geometry["nz"])
    if problem:
        return problem
    if len(ux) != planes or len(rho) != planes:
        return "profile size mismatch"
    if not all(math.isfinite(v) for v in ux):
        return "non-finite velocity"
    if not all(math.isfinite(v) and v > 0.0 for v in rho):
        return "non-positive density"
    if statistics.fmean(ux) <= 0.0:
        return "no net flow along +x"
    return None


# --------------------------------------------------------------- daemon

class Request:
    """One request on a fresh control-socket connection (the protocol is
    one request per connection); iterating yields the reply lines as
    parsed JSON."""

    def __init__(self, path, req, timeout):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.settimeout(timeout)
            self.sock.connect(path)
            self.sock.sendall((json.dumps(req) + "\n").encode())
            self.lines = self.sock.makefile("rb")
        except BaseException:
            self.sock.close()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self.close()

    def close(self):
        self.lines.close()
        self.sock.close()

    def __iter__(self):
        return (json.loads(line) for line in self.lines)


class Job:
    """One submitted job. Creating it sends the spec and reads the ack;
    follow() reads the event stream to the final record."""

    def __init__(self, daemon, tenant, spec, keep_trace):
        self.daemon, self.tenant, self.spec = daemon, tenant, spec
        self.keep_trace = keep_trace
        self.t = {"submit": now()}
        self.record = None
        self.fragments = []   # (phase, masses) of the obs fragments
        self.trace = []       # trace fragment events (keep_trace only)
        self.error = None
        req = {"cmd": "submit", "tenant": tenant, "spec": spec, "wait": True}
        self.req = Request(daemon.sock, req, TIMEOUT + 30.0)
        self.stream = iter(self.req)
        ack = next(self.stream, {})
        self.t["ack"] = now()
        if not ack.get("ok"):
            self.error = f"rejected: {ack.get('error')}"
            self.req.close()

    def follow(self):
        if self.error:
            return
        try:
            for msg in self.stream:
                stamp = now()
                ev = msg.get("event")
                if ev in ("started", "completed"):
                    self.t[ev] = stamp
                elif ev == "fragment" and msg["kind"] == "obs":
                    data = json.loads(msg["data"])
                    self.fragments.append((data["phase"], data["masses"]))
                elif ev == "fragment" and self.keep_trace:
                    self.trace += [json.loads(line) for line in
                                   msg["data"].splitlines() if line]
                elif ev == "done":
                    self.t["done"] = stamp
                    self.record = msg["record"]
                    break
        except (OSError, ValueError, KeyError) as e:
            self.error = f"event stream: {e!r}"
            return
        finally:
            self.req.close()
        if self.record is None:
            self.error = f"stream ended early ({sorted(self.t)})"
        elif self.record["state"] != "done":
            self.error = f"{self.record['state']}: {self.record['diagnostic']}"
        else:  # the recovery checkpoints are ~20 MB a job; keep the disk flat
            shutil.rmtree(f"{self.daemon.work}/job_{self.record['id']}",
                          ignore_errors=True)

    def gravity(self):
        return self.spec["params"]["gravity"]


class Daemon:
    def __init__(self, ctx, tag):
        self.sock = f"ctl{tag}.sock"
        self.work = f"srv{tag}"
        self.procs = ctx.procs
        with open(f"out/daemon{tag}.log", "w") as log_file:
            self.proc = ctx.procs.spawn(
                [ctx.exe["slipflow_served"], f"--socket={self.sock}",
                 f"--work-dir={self.work}", f"--slots={SLOTS}"],
                stdout=log_file, stderr=log_file)
        deadline = now() + 10.0
        while True:
            try:
                with Request(self.sock, {"cmd": "stats"}, 5.0) as r:
                    if next(iter(r), {}).get("ok"):
                        return
            except (OSError, ValueError):
                pass
            if self.proc.poll() is not None or now() > deadline:
                raise BenchError(f"daemon {tag} did not come up")
            time.sleep(0.002)

    def shutdown(self):
        try:
            with Request(self.sock, {"cmd": "shutdown"}, 5.0) as r:
                list(r)
            self.proc.wait(timeout=TIMEOUT)
        finally:
            self.procs.kill(self.proc)


# --------------------------------------------------------------- phases

class Ctx:
    pass


def setup_phase(ctx):
    """SETUP_REPEATS cold starts; the last daemon is returned running."""
    times, binds, probes = [], [], []
    daemon = None
    for i in range(SETUP_REPEATS):
        t0 = now()
        daemon = Daemon(ctx, i)
        t1 = now()
        job = Job(daemon, "probe", PROBE_SPEC, False)
        job.follow()
        t2 = now()
        ctx.attempted += 1
        if job.error:
            raise BenchError(f"probe job: {job.error}")
        problem = check_observables(job.record["observables"],
                                    {"nx": 16, "ny": 6, "nz": 4})
        if problem:
            raise BenchError(f"probe job: {problem}")
        times.append(t2 - t0)
        binds.append(t1 - t0)
        probes.append(t2 - t1)
        if i + 1 < SETUP_REPEATS:
            daemon.shutdown()
    return daemon, dict(setup_s=statistics.median(times),
                        setup_bind_ms=statistics.median(binds) * 1e3,
                        setup_probe_ms=statistics.median(probes) * 1e3)


def direct_round(ctx, r):
    """Concurrent `slipflow_submit --direct` processes, one per tenant,
    each running that tenant's first sweep."""
    w = WORKLOADS[ctx.workload]
    argvs, outs, dirs, values = [], [], [], []
    for t in w["tenants"]:
        values.append(sweep_values(ctx.seed, t, 0, w["repeat"]))
        dirs.append(f"direct/{r}{t}")
        os.makedirs(dirs[-1])
        outs.append(f"out/direct{r}{t}.log")
        argvs.append([ctx.exe["slipflow_submit"], "--direct",
                      "--spec=spec.json", "--out-dir=" + dirs[-1],
                      "--sweep=params.gravity=" +
                      ",".join(repr(g) for g in values[-1])])
    runs = []
    for i, (code, wall) in enumerate(ctx.procs.run_timed(argvs, outs)):
        run = dict(round=r, wall=wall, error=None, obs={})
        if code != 0:
            run["error"] = f"direct run {r}: exit {code}, see {outs[i]}"
        else:
            for n, g in enumerate(values[i]):
                with open(f"{dirs[i]}/obs_direct{n + 1}.txt") as f:
                    run["obs"][g] = f.read()
        runs.append(run)
    shutil.rmtree("direct", ignore_errors=True)
    return runs


def served_round(ctx, daemon, k):
    """Sweep k of every tenant: all jobs submitted in order, then waited
    for together."""
    w = WORKLOADS[ctx.workload]
    jobs = []
    for t in w["tenants"]:
        for g in sweep_values(ctx.seed, t, k, w["repeat"]):
            jobs.append(Job(daemon, t, job_spec(ctx.workload, g), ctx.trace))
            jobs[-1].sweep = k
    readers = [threading.Thread(target=j.follow) for j in jobs]
    for th in readers:
        th.start()
    for th in readers:
        th.join()
    return jobs


def measure(ctx, daemon, seconds):
    """Alternate direct and served rounds until `seconds` have passed, so
    both sample the same stretch of host time. Direct round 0 is a
    warm-up, checked but not timed: the first launch after a build or a
    daemon start runs 10-50% slower while page and CPU caches fill."""
    with open("spec.json", "w") as f:
        json.dump(base_spec(ctx.workload), f)
    runs, jobs, served_s = [], [], 0.0
    end = now() + seconds
    r = 0
    while r < 3 or now() < end:
        runs += direct_round(ctx, r)
        t0 = now()
        jobs += served_round(ctx, daemon, r)
        served_s += now() - t0
        r += 1
    return runs, jobs, served_s


# --------------------------------------------------------------- checks

def verify(runs, jobs):
    """Problems with the outputs of the successful runs and jobs."""
    problems = []
    geometry = SPEC["geometry"]
    cells = geometry["nx"] * geometry["ny"] * geometry["nz"]
    phases, warm, every = SPEC["phases"], SPEC["warm_phases"], SPEC["stream_every"]
    first_of = {}
    for j in jobs:
        name = f"job {j.record['id']} ({j.tenant}, sweep {j.sweep})"
        rec = j.record
        hit = j.gravity() in first_of
        first = first_of.setdefault(j.gravity(), j)
        if rec["attempts"] != 1:
            problems.append(f"{name}: {rec['attempts']} attempts")
        if rec["warm_hit"] != hit:
            problems.append(f"{name}: warm_hit {rec['warm_hit']}, expected {hit}")
        start = warm if hit else 0
        if rec["phases_executed"] != phases - start:
            problems.append(f"{name}: executed {rec['phases_executed']} "
                            f"phases, expected {phases - start}")
        expect = list(range(start + every, phases + 1, every))
        if sorted(p for p, _ in j.fragments) != expect:
            problems.append(f"{name}: obs fragments at "
                            f"{sorted(p for p, _ in j.fragments)}, "
                            f"expected {expect}")
        for p, masses in j.fragments:
            if (problem := check_masses(masses, cells)):
                problems.append(f"{name}: fragment {p}: {problem}")
        if first is not j:
            if rec["observables"] != first.record["observables"]:
                problems.append(f"{name} differs from job {first.record['id']} "
                                "of the same physics")
        elif (problem := check_observables(rec["observables"], geometry)):
            problems.append(f"{name}: {problem}")
    for r in runs:
        for g, obs in r["obs"].items():
            if g not in first_of:
                problems.append(f"direct round {r['round']}: no served job "
                                f"with gravity {g!r}")
            elif obs != first_of[g].record["observables"]:
                problems.append(f"direct round {r['round']}, gravity {g!r}: "
                                "differs from the served job")
    return problems


def run_fig09(ctx):
    """Time the paper's 20-node virtual scenario; check it is
    deterministic and ranks the schemes as Figure 9 does."""
    walls, outputs = [], []
    for i in range(FIG09_REPEATS):
        path = f"out/fig09_{i}.json"
        (code, wall), = ctx.procs.run_timed(
            [[ctx.exe["fig09_execution_profile"], f"--json={path}"]],
            [f"out/fig09_{i}.log"])
        ctx.attempted += 1
        if code != 0:
            raise BenchError(f"fig09_execution_profile: exit {code}")
        with open(path) as f:
            outputs.append(f.read())
        walls.append(wall)
    problems = []
    if len(set(outputs)) != 1:
        problems.append("fig09 virtual scenario is not deterministic")
    times = json.loads(outputs[0])
    exec_s = [times[f"exec_time_s/{s}"] for s in FIG09_RANKING]
    if exec_s != sorted(exec_s):
        problems.append(f"fig09 ranks schemes {exec_s} against the paper")
    return statistics.median(walls) * 1e3, problems


def run_kernel_bench(ctx):
    """MLUPS of the full two-component phase per kernel backend."""
    (code, _wall), = ctx.procs.run_timed(
        [[ctx.exe["micro_lbm_kernels"], "--json=out/kernels.json",
          "--benchmark_filter=BM_FullPhase_TwoComponent_Backend_",
          "--benchmark_min_time=0.3"]], ["out/kernels.log"])
    ctx.attempted += 1
    if code != 0:
        raise BenchError(f"micro_lbm_kernels: exit {code}")
    with open("out/kernels.json") as f:
        summary = json.load(f)
    mlups = {b: summary.get(f"mlups_backend_{b}", 0.0) for b in BACKENDS}
    missing = [b for b, v in mlups.items() if not v > 0.0]
    return mlups, [f"kernel backend {b} not measured" for b in missing]


# --------------------------------------------------------------- metrics

def median_of(items, fn):
    return statistics.median(fn(x) for x in items)


def interquartile_mean(values):
    """Mean of the middle half. The launcher polls its workers on a 50 ms
    tick, so wall times fall on a few discrete levels; a median jumps a
    whole level when their shares cross one half, this mean moves
    smoothly with them and still ignores stragglers."""
    v = sorted(values)
    q = len(v) // 4
    return statistics.fmean(v[q:len(v) - q])


def end_to_end_metrics(runs, jobs, setup):
    phases = SWEEP_LEN * SPEC["phases"]
    return {
        "phase_ms": (interquartile_mean(r["wall"] / phases * 1e3 for r in runs), "ms"),
        "job_ms": (interquartile_mean((j.t["done"] - j.t["submit"]) * 1e3 for j in jobs), "ms"),
        "setup_s": (setup["setup_s"], "s"),
    }


def stage_ms(job, names):
    return sum(e["dur"] for e in job.trace if e["name"] in names) / 1e3


def stage_count(job, name):
    return sum(1 for e in job.trace if e["name"] == name)


def traced_s(job):
    """Rank 0's traced extent: first span start to last span end."""
    return (max(e["ts"] + e["dur"] for e in job.trace) -
            min(e["ts"] for e in job.trace)) / 1e6


def layer_metrics(jobs, job_seconds, setup, fig09_ms, mlups):
    """Medians over jobs of rank 0's streamed stage spans (per executed
    phase, per remap, per checkpoint) and of the client-side protocol
    spans."""
    def per_phase(names):
        return lambda j: stage_ms(j, names) / j.record["phases_executed"]

    def per_call(name):
        return lambda j: stage_ms(j, (name,)) / max(1, stage_count(j, name))

    def span_ms(a, b):
        return median_of(jobs, lambda j: (j.t[b] - j.t[a]) * 1e3)

    metrics = {f"lbm_mlups_{b}": (v, "MLUPS") for b, v in mlups.items()}
    metrics.update({
        "lbm_kernel_ms": (median_of(jobs, per_phase(KERNEL_STAGES)), "ms"),
        "sim_phase_ms": (median_of(jobs, lambda j: traced_s(j) * 1e3 / j.record["phases_executed"]), "ms"),
        "sim_plan_ms": (median_of(jobs, lambda j: stage_ms(j, ("plan",))), "ms"),
        "transport_halo_post_ms": (median_of(jobs, per_phase(("halo_post_f", "halo_post_density"))), "ms"),
        "transport_halo_wait_ms": (median_of(jobs, per_phase(("halo_wait_f", "halo_wait_density"))), "ms"),
        "balance_remap_ms": (median_of(jobs, per_call("remap")), "ms"),
        "io_checkpoint_ms": (median_of(jobs, per_call("io")), "ms"),
        "launch_ms": (median_of(jobs, lambda j: (j.t["completed"] - j.t["started"] - traced_s(j)) * 1e3), "ms"),
        "serve_submit_ms": (span_ms("submit", "ack"), "ms"),
        "serve_queue_ms": (span_ms("ack", "started"), "ms"),
        "serve_run_ms": (span_ms("started", "completed"), "ms"),
        "serve_result_ms": (span_ms("completed", "done"), "ms"),
        "serve_warm_hit_ratio": (statistics.fmean(j.record["warm_hit"] for j in jobs), "ratio"),
        "serve_phases_executed_share": (statistics.fmean(j.record["phases_executed"] for j in jobs) / SPEC["phases"], "ratio"),
        "serve_jobs_per_s": (len(jobs) / job_seconds, "1/s"),
        "cluster_fig09_ms": (fig09_ms, "ms"),
        "setup_bind_ms": (setup["setup_bind_ms"], "ms"),
        "setup_probe_ms": (setup["setup_probe_ms"], "ms"),
    })
    return metrics


# --------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    ctx = Ctx()
    ctx.workload = args.workload
    ctx.seed = args.seed
    ctx.trace = bool(args.trace)
    ctx.procs = Procs()
    ctx.attempted = 0
    ctx.exe = build(build_dir)

    # Short relative paths from here on: Unix socket paths are capped at
    # ~108 bytes, and the checkout may sit deep in the filesystem.
    work = os.path.join(build_dir, "perfbench")
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("t", "out"):
        os.makedirs(os.path.join(work, sub))
    os.chdir(work)
    os.environ["TMPDIR"] = "t"  # the launcher's per-mesh socket dirs

    daemon = None
    extra_problems = []
    try:
        daemon, setup = setup_phase(ctx)
        runs, jobs, job_seconds = measure(ctx, daemon, args.seconds)
        daemon.shutdown()
        daemon = None
        if ctx.trace:
            fig09_ms, problems = run_fig09(ctx)
            mlups, more = run_kernel_bench(ctx)
            extra_problems = problems + more
    finally:
        if daemon is not None:
            ctx.procs.kill(daemon.proc)
        ctx.procs.kill_all()

    attempted = ctx.attempted + len(runs) + len(jobs)
    errors = [x["error"] for x in runs if x["error"]]
    errors += [f"job {i}: {j.error}" for i, j in enumerate(jobs) if j.error]
    checked = [r for r in runs if not r["error"]]
    timed = [r for r in checked if r["round"] > 0]
    jobs = [j for j in jobs if not j.error]
    if not timed or not jobs:
        raise BenchError("no successful run or job: " + "; ".join(errors[:3]))
    problems = errors + verify(checked, jobs) + extra_problems
    for p in problems:
        log(p)
    if ctx.trace:
        metrics = layer_metrics(jobs, job_seconds, setup, fig09_ms, mlups)
    else:
        metrics = end_to_end_metrics(timed, jobs, setup)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # SIGTERM unwinds like an error, so the daemon and workers are reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log(f"error: {e}")
        sys.exit(1)
