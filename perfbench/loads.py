"""The benchmark's four workloads, one front door of ``repro`` each.

``e10-cold``
    ``run_experiment("e10")`` against an empty workload cache: every
    scenario is sampled, published and attached, then simulated.
``e10-warm``
    The same spec and seed against caches that set-up filled, so each
    timed pass only attaches the memory-mapped artifacts.
``study-e7-j2``
    A ``Study("e7")`` grid at ``jobs=2`` into a fresh ``ResultStore``,
    then a resume pass.  Each pass starts with no worker pool and no
    forkserver, as a new ``repro study --jobs 2`` process does.
``service-mix``
    ``repro serve`` in a subprocess: a paced open loop of store hits
    beside a closed loop executing fresh small cells.

Every workload runs timed passes until ``seconds`` have elapsed and
checks its outputs against the paper's oracles.  Given a tracer, the
passes alternate between untraced and traced (the service window
is split in two), layer metrics come from the traced part and the
difference between the two parts is the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import deque
from pathlib import Path
from statistics import NormalDist
from typing import Any, Callable

import measure
import spans

from repro import Study, run_experiment
from repro.exec import collect_execution, warm_pool_stats
from repro.experiments.registry import get_experiment
from repro.results import ExperimentResult
from repro.service.client import ServiceClient, ServiceError
from repro.service.store import ResultStore
from repro.workloads import cache_stats, detach_artifacts, workload_cache

HERE = Path(__file__).resolve().parent

#: Set-ups per run; ``setup_s`` is their median.  E10-warm fills a
#: cache with a full cold pass per set-up, so it does fewer.
SETUPS = 7
WARM_FILLS = 5

#: Small enough that a run makes at least ten cold passes.  The async
#: elections stop at n=256: at this trial count the n=1024 ones would
#: cost more kernel time than all the sampling a cold pass does.
E10_SIZE = {"n": 512, "trials": 10, "async_sizes": (64, 256)}
E10_WARMUP = {"n": 64, "trials": 4, "async_sizes": (16,)}

STUDY_GRID = {
    "n": (48, 512),
    "coalition_sizes": ((1,), (4,), (12,)),
}
#: 200 trials is above the n=512 strategy-tier stream quantum, so those
#: cells shard across the pool; the n=48 cells run inline.
STUDY_BASE = {
    "strategies": ("silent", "underbid_alter", "equivocate"),
    "trials": 200,
}
STUDY_JOBS = 2
STUDY_WARMUP = {"n": 48, "strategies": STUDY_BASE["strategies"],
                "coalition_sizes": (1,), "trials": 40}

#: Store-hit cells per set-up fill, and the hit stream's request rate.
HIT_CELLS = 40
HIT_CELL = {"sizes": [32], "workloads": ["balanced"], "trials": 40}
HIT_RATE_PER_S = 20.0
#: The closed loop alternates these two fresh-cell shapes.
EXEC_CELLS = (
    ("e1", {"sizes": [512], "workloads": ["balanced"], "trials": 400}),
    ("e7", {"n": 64, "strategies": ["silent", "griefing"],
            "coalition_sizes": [1], "trials": 100}),
)
#: Fresh cells kept submitted at once: enough that the serial daemon
#: always has the next one queued while the client polls.
EXEC_IN_FLIGHT = 3
POLL_S = 0.01
REQUEST_TIMEOUT_S = 30.0


def derive(seed: int, salt: int) -> int:
    """A 31-bit input seed from the workload seed and a per-use salt."""
    return (int(seed) * 1_000_003 + salt * 7_919 + 12_345) % (2**31)


@dataclasses.dataclass
class Outcome:
    """What one run measured; the e2e metrics derive from it."""

    setups: list[float] = dataclasses.field(default_factory=list)
    #: One (wall s, cpu s, trials) row per timed pass.
    passes: list[tuple[float, float, int]] = dataclasses.field(
        default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    layers: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Peak resident set of the timed part, set-up left out.
    peak_mb: float = 0.0

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def count_exec(self, records) -> None:
        """Shards are operations too; degraded ones count as failed."""
        for rec in records:
            if rec.backend == "parallel":
                self.attempted += rec.shards
            self.failed += rec.degraded_shards

    def add_pass(self, wall: float, cpu: float, trials: int) -> None:
        self.passes.append((wall, cpu, trials))

    def e2e(self) -> dict[str, float]:
        """Set-up is the median of the run's set-ups.  Throughput and CPU
        are totals over every timed pass: the machine's speed changes in
        spells of tens of seconds, and a total weighs a spell by its
        length where a median of passes flips from one spell to the
        other."""
        wall = sum(w for w, _, _ in self.passes)
        cpu = sum(c for _, c, _ in self.passes)
        trials = sum(t for _, _, t in self.passes)
        return {
            "setup_s": statistics.median(self.setups),
            "trials_per_s": trials / wall,
            "cpu_ms_per_trial": 1000.0 * cpu / trials,
            "peak_rss_mb": self.peak_mb,
        }


class Workdir:
    """Fresh directories under one per-run root inside the checkout."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def fresh(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.root))


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def e10_problems(result: ExperimentResult) -> list[str]:
    """E10: the complete graph always succeeds; async elections converge."""
    out = []
    topo, asy = result.sections
    for rec in topo.records():
        if rec["graph"] == "complete" and rec["success rate"] != 1:
            out.append(f"e10 complete success rate {rec['success rate']}")
    for rec in asy.records():
        done, total = str(rec["async election converged"]).split("/")
        if done != total:
            out.append(f"e10 async n={rec['n']} converged {done}/{total}")
    return out


#: The E7 table's ``profitable?`` column is a one-sided test of each
#: row at the 95% CI (z = 1.96).  A run checks dozens of rows whose true
#: gain may be exactly 0 (``silent`` at t << n), so that column fires by
#: chance in several percent of runs.  The oracle widens each row's
#: interval to a per-row level of 1e-5 instead, which keeps a run's
#: chance false alarm near 1e-3 and still catches a real gain.
E7_Z = NormalDist().inv_cdf(1 - 1e-5)


def e7_problems(result: ExperimentResult) -> list[str]:
    """Theorem 7: no deviation gains more than Monte-Carlo noise."""
    return [
        f"e7 profitable row {rec['strategy']} t={rec['t']} "
        f"gain {rec['gain (chi=1)']} +/- {rec['gain CI +/-']}"
        for rec in result.sections[0].records()
        if rec["gain (chi=1)"] > rec["gain CI +/-"] * E7_Z / 1.96
    ]


# ---------------------------------------------------------------------------
# Pass loop and span-derived layer metrics
# ---------------------------------------------------------------------------

def run_passes(out: Outcome, seconds: float, tracer: spans.Tracer | None,
               one_pass: Callable[[bool], float]) -> tuple[list, list]:
    """Run passes until ``seconds`` elapse; with a tracer, alternate
    untraced and traced passes (at least one of each).  Returns the
    untraced and traced pass walls.  A pass that raises is a failed
    operation and ends the run.  The peak resident set is taken over
    the passes alone."""
    measure.reset_peak_rss()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        on = tracer is not None and len(traced) < len(plain)
        if on:
            tracer.enable()
        try:
            wall = one_pass(on)
        except Exception as exc:
            traceback.print_exc()
            out.failed += 1
            out.problems.append(f"pass raised {type(exc).__name__}: {exc}")
            break
        finally:
            if on:
                tracer.disable()
        (traced if on else plain).append(wall)
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or traced):
            break
    out.peak_mb = measure.peak_rss_mb()
    return plain, traced


def span_layers(recorded, passes: int) -> dict[str, float]:
    """Self times of the batch layers, per traced pass."""
    agg = spans.summarize(recorded)

    def self_s(name: str) -> float:
        return agg.get(name, {}).get("self_s", 0.0) / passes

    fetches = [s for s in recorded if s.name == "workloads.fetch"]
    misses = [s for s in fetches if "workloads.sample" in s.child_names]
    hits = [s for s in fetches if "workloads.sample" not in s.child_names]
    return {
        "workloads.sample_s": self_s("workloads.sample"),
        "workloads.publish_s": sum(s.self_s for s in misses) / passes,
        "workloads.attach_s": sum(s.duration for s in hits) / passes,
        "exec.plan.compile_s": self_s("exec.plan.compile"),
        "exec.plan.compiles": agg.get("exec.plan.compile",
                                      {}).get("count", 0) / passes,
        "exec.run_plan_s": self_s("exec.run_plan"),
        "exec.reducers.merge_s": self_s("exec.reducers.merge"),
        "fastpath.kernel_s": self_s("fastpath.kernel"),
        "experiments.self_s": self_s("experiments.run"),
        "study.store_put_s": self_s("study.store_put"),
        "study.journal_s": self_s("study.journal"),
        "trace.spans": len(recorded) / passes,
    }


def exec_layers(records, passes: int) -> dict[str, float]:
    return {
        "exec.shards": sum(r.shards for r in records) / passes,
        "exec.retries": sum(r.retries for r in records) / passes,
        "exec.shard_failures":
            sum(r.shard_failures for r in records) / passes,
        "exec.degraded_shards":
            sum(r.degraded_shards for r in records) / passes,
        "exec.recovery_s": sum(r.recovery_wall_s for r in records) / passes,
    }


def cache_layers(delta: dict[str, int], passes: int) -> dict[str, float]:
    """Workload-cache counters, from ``cache_stats()`` deltas."""
    return {f"workloads.{k}": delta.get(k, 0) / passes
            for k in ("hits", "misses", "sampled_edges")}


def overhead(plain: list[float], traced: list[float]) -> dict[str, float]:
    """Traced over untraced median pass wall, less one."""
    return {"trace.overhead_frac":
            statistics.median(traced) / statistics.median(plain) - 1.0}


# ---------------------------------------------------------------------------
# E10, cold and warm
# ---------------------------------------------------------------------------

def e10_options(seed: int) -> dict[str, Any]:
    return {**E10_SIZE, "seed": derive(seed, 10)}


def e10_trials(opts: dict[str, Any]) -> int:
    """Graph trials over every scenario plus the async elections."""
    defaults = get_experiment("e10").default_options()
    trials = opts["trials"]
    async_sizes = opts.get("async_sizes", defaults.async_sizes)
    return (len(defaults.scenarios) * trials
            + len(async_sizes) * max(5, trials // 3))


class _E10Pass:
    """One timed ``run_experiment("e10")`` with its accounting."""

    def __init__(self, out: Outcome, opts: dict[str, Any]):
        self.out = out
        self.opts = opts
        self.records: list = []
        self.cache_delta: dict[str, int] = {}

    def __call__(self, cache_root: Path, traced: bool) -> tuple:
        # A new process attaches every artifact afresh; without this,
        # the mappings of earlier passes would pile up in this one.
        detach_artifacts()
        before = cache_stats().as_dict()
        cpu0 = measure.cpu_seconds()
        self.out.attempted += 1
        with workload_cache(cache_root), collect_execution() as records:
            start = time.perf_counter()
            result = run_experiment("e10", **self.opts)
            wall = time.perf_counter() - start
        self.out.add_pass(wall, measure.cpu_seconds() - cpu0,
                          e10_trials(self.opts))
        self.out.count_exec(records)
        self.out.problems.extend(e10_problems(result))
        if traced:
            self.records.extend(records)
            after = cache_stats().as_dict()
            for k in after:
                self.cache_delta[k] = (self.cache_delta.get(k, 0)
                                       + after[k] - before[k])
        return result, wall


def _e10_layers(out: Outcome, step: _E10Pass, tracer: spans.Tracer,
                plain, traced) -> None:
    n = len(traced)
    out.layers.update(span_layers(tracer.spans, n))
    out.layers.update(exec_layers(step.records, n))
    out.layers.update(cache_layers(step.cache_delta, n))
    out.layers.update(overhead(plain, traced))


def e10_cold(seed: int, seconds: float, tracer: spans.Tracer | None,
             work: Workdir) -> Outcome:
    out = Outcome()
    opts = e10_options(seed)
    for _ in range(SETUPS):
        # Set-up: an empty cache root, and one small pass that loads
        # every sampler and kernel code path.
        start = time.perf_counter()
        with workload_cache(work.fresh()):
            run_experiment("e10", **E10_WARMUP, seed=opts["seed"])
        out.setups.append(time.perf_counter() - start)
    step = _E10Pass(out, opts)

    def one_pass(traced: bool) -> float:
        root = work.fresh()
        try:
            return step(root, traced)[1]
        finally:
            shutil.rmtree(root, ignore_errors=True)

    plain, traced = run_passes(out, seconds, tracer, one_pass)
    if tracer:
        _e10_layers(out, step, tracer, plain, traced)
    return out


def e10_warm(seed: int, seconds: float, tracer: spans.Tracer | None,
             work: Workdir) -> Outcome:
    out = Outcome()
    opts = e10_options(seed)
    fills: list[tuple[Path, str]] = []
    for _ in range(WARM_FILLS):
        # Set-up: one cold pass fills a fresh cache root.
        root = work.fresh()
        start = time.perf_counter()
        with workload_cache(root):
            result = run_experiment("e10", **opts)
        out.setups.append(time.perf_counter() - start)
        out.problems.extend(e10_problems(result))
        fills.append((root, result.payload_json()))
    step = _E10Pass(out, opts)

    def one_pass(traced: bool) -> float:
        root, reference = fills[len(out.passes) % len(fills)]
        result, wall = step(root, traced)
        out.expect(result.payload_json() == reference,
                   "e10-warm payload differs from its cold set-up pass")
        return wall

    plain, traced = run_passes(out, seconds, tracer, one_pass)
    if tracer:
        _e10_layers(out, step, tracer, plain, traced)
    return out


# ---------------------------------------------------------------------------
# Study E7 at jobs=2
# ---------------------------------------------------------------------------

def make_study(seed: int, grid: dict | None = None) -> Study:
    return Study("e7", grid or STUDY_GRID, seed=derive(seed, 7),
                 **STUDY_BASE)


def study_trials(study: Study) -> int:
    """Paired trials: strategies x coalition sizes x trials per cell."""
    return sum(
        len(c.options.strategies) * len(c.options.coalition_sizes)
        * c.options.trials
        for c in study.cells()
    )


def _cell_walls(study: Study, run: Callable) -> tuple[Any, list]:
    """Run ``run(progress)`` and time every cell it completes."""
    walls: list[tuple[dict, float]] = []
    last = [time.perf_counter()]

    def progress(cell) -> None:
        now = time.perf_counter()
        walls.append((dict(cell.assignment), now - last[0]))
        last[0] = now

    return run(progress), walls


def study_e7_j2(seed: int, seconds: float, tracer: spans.Tracer | None,
                work: Workdir) -> Outcome:
    out = Outcome()
    for _ in range(SETUPS):
        # Set-up: a fresh store, the study and its cell keys, and one
        # tiny serial E7 cell that loads the strategy tier.
        start = time.perf_counter()
        ResultStore(work.fresh() / "repro-store.sqlite3").close()
        make_study(seed).cells()
        run_experiment("e7", **STUDY_WARMUP, seed=derive(seed, 8))
        out.setups.append(time.perf_counter() - start)

    j2_walls: list[tuple[dict, float]] = []
    j2_payloads: dict[str, str] = {}
    traced_records: list = []
    layer_acc = {"first_dispatch": [], "spawns": 0, "resume": 0.0}

    def one_pass(traced: bool) -> float:
        study = make_study(seed)
        db = work.fresh() / "repro-store.sqlite3"
        cells = study.cells()
        out.attempted += len(cells)
        cpu0 = measure.cpu_seconds()
        pool0 = warm_pool_stats()
        with collect_execution() as records:
            start = time.perf_counter()
            first, walls = _cell_walls(
                study, lambda cb: study.run(db, jobs=STUDY_JOBS, progress=cb)
            )
            wall = time.perf_counter() - start
        start = time.perf_counter()
        second = study.run(db, jobs=STUDY_JOBS)
        resume = time.perf_counter() - start
        pool1 = warm_pool_stats()
        measure.quiesce_pool()
        out.add_pass(wall, measure.cpu_seconds() - cpu0,
                     study_trials(study))
        out.count_exec(records)
        for cell in first.cells:
            out.problems.extend(e7_problems(cell.result))
        out.expect(all(c.cached for c in second.cells),
                   "study resume recomputed a cell")
        out.expect(
            [c.result.payload_json() for c in first.cells]
            == [c.result.payload_json() for c in second.cells],
            "study resume payloads differ from the first pass",
        )
        if not traced:
            j2_walls.extend(walls)
            j2_payloads.update(
                (c.key, c.result.payload_json()) for c in first.cells)
            return wall
        traced_records.extend(records)
        parallel = [r for r in records if r.backend == "parallel"]
        layer_acc["first_dispatch"].append(
            parallel[0].wall_time_s if parallel else 0.0)
        layer_acc["spawns"] += (
            (pool1["acquires"] - pool1["warm_hits"] + pool1["prewarmed"])
            - (pool0["acquires"] - pool0["warm_hits"] + pool0["prewarmed"])
        )
        layer_acc["resume"] += resume
        return wall

    plain, traced = run_passes(out, seconds, tracer, one_pass)
    if tracer:
        n = len(traced)
        out.layers.update(span_layers(tracer.spans, n))
        out.layers.update(exec_layers(traced_records, n))
        out.layers.update(overhead(plain, traced))
        out.layers.update(study_layers(
            layer_acc, n, _serial_speedup(seed, j2_walls, j2_payloads, out)))
    return out


def study_layers(acc: dict, passes: int, speedup: float) -> dict[str, float]:
    """Pool spawn, resume and parallel speedup of the traced passes."""
    return {
        "exec.pool.first_dispatch_s": statistics.median(acc["first_dispatch"]),
        "exec.pool.spawns": acc["spawns"] / passes,
        "study.resume_s": acc["resume"] / passes,
        "exec.parallel_speedup": speedup,
    }


def _serial_speedup(seed: int, j2_walls, j2_payloads, out: Outcome) -> float:
    """Re-run the n=512 cells at jobs=1; their wall over the jobs=2
    wall of the same cells in the untraced passes.  The payloads must
    match byte for byte (``jobs=k == serial``)."""
    study = make_study(seed, {**STUDY_GRID, "n": (512,)})
    serial, walls = _cell_walls(study, lambda cb: study.run(progress=cb))
    for cell in serial.cells:
        out.expect(cell.result.payload_json() == j2_payloads.get(cell.key),
                   f"study cell {cell.key} differs between jobs=2 and 1")
    j2 = [w for a, w in j2_walls if a["n"] == 512]
    passes = len(j2) // len(walls)
    return sum(w for _, w in walls) * passes / sum(j2)


# ---------------------------------------------------------------------------
# Service mix
# ---------------------------------------------------------------------------

class Server:
    """``perfbench/serve.py`` in a subprocess, on a fresh store."""

    def __init__(self, work: Workdir, trace_out: Path | None = None):
        root = work.fresh()
        url_file = root / "url"
        cmd = [sys.executable, str(HERE / "serve.py"),
               "--store", str(root / "repro-store.sqlite3"),
               "--url-file", str(url_file)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        try:
            while not url_file.exists():
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"server exited with {self.proc.returncode}")
                if time.perf_counter() - start > 120:
                    raise RuntimeError("server did not start in 120 s")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.launch_s = time.perf_counter() - start
        self.client = ServiceClient(url_file.read_text().strip(),
                                    timeout_s=REQUEST_TIMEOUT_S)

    def cpu_seconds(self) -> float:
        return measure.proc_cpu_seconds(self.proc.pid)

    def signal(self, sig: int) -> None:
        self.proc.send_signal(sig)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def hit_cells(seed: int, fill: int) -> list[tuple[str, dict]]:
    return [("e1", {**HIT_CELL, "seed": derive(seed, 1000 * fill + i)})
            for i in range(HIT_CELLS)]


def exec_cell(seed: int, i: int) -> tuple[str, dict]:
    name, opts = EXEC_CELLS[i % len(EXEC_CELLS)]
    return name, {**opts, "seed": derive(seed, 1_000_000 + i)}


def cell_trials(name: str, opts: dict) -> int:
    if name == "e7":
        return (len(opts["strategies"]) * len(opts["coalition_sizes"])
                * opts["trials"])
    return len(opts["sizes"]) * len(opts["workloads"]) * opts["trials"]


def wait_job(client: ServiceClient, job_id: str) -> dict:
    deadline = time.monotonic() + REQUEST_TIMEOUT_S
    while True:
        job = client.job(job_id)
        if job["state"] in ("done", "failed"):
            return job
        if time.monotonic() > deadline:
            raise TimeoutError(f"job {job_id} not done in time")
        time.sleep(POLL_S)


def fill_hits(server: Server, cells, refs: dict, out: Outcome) -> None:
    """Execute ``cells`` through the service and keep their documents."""
    client = server.client
    subs = [(name, opts, client.submit(name, opts)) for name, opts in cells]
    for name, opts, sub in subs:
        done = (sub["id"] is not None
                and wait_job(client, sub["id"])["state"] == "done")
        out.expect(done, f"hit-set cell {sub['key']} was not executed")
        refs[sub["key"]] = (name, opts, client.result(sub["key"]))


_ERRORS = (ServiceError, OSError, TimeoutError, ValueError)


class Window:
    """One load window: the hit stream and the exec loop side by side."""

    def __init__(self, server: Server, refs: dict, seed: int,
                 first_exec: int, out: Outcome):
        self.server = server
        self.refs = refs
        self.seed = seed
        self.next_exec = first_exec
        self.out = out
        self.lock = threading.Lock()
        self.hit_ms: list[float] = []
        self.hit_sent_ms: list[float] = []
        self.late_ms: list[float] = []
        self.exec_ms: list[float] = []
        self.trials = 0
        self.executed: list[tuple[str, dict, dict]] = []

    def _fail(self) -> None:
        with self.lock:
            self.out.failed += 1

    def _hits(self, t0: float, t_end: float, rng: random.Random) -> None:
        client = self.server.client
        keys = sorted(self.refs)
        i = 0
        while True:
            due = t0 + i / HIT_RATE_PER_S
            if due >= t_end:
                return
            i += 1
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            name, opts, doc = self.refs[rng.choice(keys)]
            sent = time.perf_counter()
            with self.lock:
                self.out.attempted += 1
            try:
                sub = client.submit(name, opts)
                got = client.result(sub["key"])
            except _ERRORS:
                self._fail()
                continue
            done = time.perf_counter()
            self.out.expect(sub["status"] == "done" and sub["cached"],
                            f"hit {sub['key']} was not served from store")
            self.out.expect(got == doc, f"hit {sub['key']} document "
                                        "differs from the stored one")
            with self.lock:
                self.hit_ms.append(1000 * (done - due))
                self.hit_sent_ms.append(1000 * (done - sent))
                self.late_ms.append(1000 * (sent - due))

    def _submit(self, client: ServiceClient) -> tuple | None:
        name, opts = exec_cell(self.seed, self.next_exec)
        self.next_exec += 1
        with self.lock:
            self.out.attempted += 1
        submitted = time.time()
        try:
            sub = client.submit(name, opts)
        except _ERRORS:
            self._fail()
            return None
        if sub["id"] is None:
            self.out.expect(False, f"fresh cell {sub['key']} was served "
                                   "from store")
            return None
        return name, opts, sub["id"], submitted

    def _execs(self, t_end: float) -> None:
        """Keep EXEC_IN_FLIGHT fresh cells submitted until ``t_end``,
        then drain, so the daemon never idles on the client's polling."""
        client = self.server.client
        inflight: deque = deque()
        while True:
            while time.perf_counter() < t_end \
                    and len(inflight) < EXEC_IN_FLIGHT:
                item = self._submit(client)
                if item is not None:
                    inflight.append(item)
            if not inflight:
                return
            name, opts, job_id, submitted = inflight.popleft()
            try:
                job = wait_job(client, job_id)
                if job["state"] != "done":
                    self._fail()
                    continue
                doc = client.result(job["key"])
            except _ERRORS:
                self._fail()
                continue
            self.exec_ms.append(1000 * (job["finished_unix"] - submitted))
            self.trials += cell_trials(name, opts)
            if name == "e7":
                self.out.problems.extend(
                    e7_problems(ExperimentResult.from_json_dict(doc)))
            if not self.executed:
                self.executed.append((name, opts, doc))

    def _guarded(self, loop: Callable, *args: Any) -> None:
        """A loop that dies on an unexpected error fails the run."""
        try:
            loop(*args)
        except Exception as exc:
            traceback.print_exc()
            self.out.problems.append(
                f"{loop.__name__} raised {type(exc).__name__}: {exc}")

    def run(self, seconds: float, rng: random.Random) -> float:
        """Drive both loops for ``seconds``; return the window's wall."""
        t0 = time.perf_counter()
        t_end = t0 + seconds
        threads = [
            threading.Thread(target=self._guarded,
                             args=(self._hits, t0, t_end, rng)),
            threading.Thread(target=self._guarded,
                             args=(self._execs, t_end)),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - t0


def _check_direct(window: Window, out: Outcome) -> None:
    """One executed cell must match a direct in-process run byte for byte."""
    out.expect(bool(window.executed), "the exec loop executed no cell")
    for name, opts, doc in window.executed:
        direct = run_experiment(name, **opts)
        out.expect(
            ExperimentResult.from_json_dict(doc).payload_json()
            == direct.payload_json(),
            f"service {name} cell differs from a direct run",
        )


def _pct(samples, q: str) -> float:
    return measure.percentiles(samples).get(q, 0.0)


def service_mix(seed: int, seconds: float, tracer: spans.Tracer | None,
                work: Workdir) -> Outcome:
    out = Outcome()
    # Server-side spans come from the launcher's own tracer.
    trace_out = work.root / "server-spans.json" if tracer else None
    server = Server(work, trace_out)
    refs: dict[str, tuple] = {}
    rng = random.Random(derive(seed, 3))
    try:
        for fill in range(SETUPS):
            # Set-up: execute one hit set through the service.
            start = time.perf_counter()
            fill_hits(server, hit_cells(seed, fill), refs, out)
            out.setups.append(time.perf_counter() - start)
        for pid in ("self", server.proc.pid):
            measure.reset_peak_rss(pid)
        first = Window(server, refs, seed, 0, out)
        cpu0 = measure.cpu_seconds() + server.cpu_seconds()
        wall = first.run(seconds, rng)
        out.peak_mb = measure.peak_rss_mb(server.proc.pid)
        out.add_pass(wall,
                     measure.cpu_seconds() + server.cpu_seconds() - cpu0,
                     first.trials)
        if tracer:
            server.signal(signal.SIGUSR1)  # server-side spans on
            before = server.client.stats()
            second = Window(server, refs, seed, first.next_exec, out)
            second.run(seconds, rng)
            after = server.client.stats()
    finally:
        server.stop()
    _check_direct(first, out)
    if tracer:
        out.layers.update(_service_layers(server, first, second,
                                          before, after, trace_out))
    return out


def _service_layers(server: Server, plain: Window, traced: Window,
                    before: dict, after: dict, trace_out: Path) -> dict:
    rows = json.loads(trace_out.read_text())
    # The hit stream's own requests: handler-thread spans on hit-set
    # keys (the exec loop's submits and GETs are on fresh keys).
    hit_spans = [r for r in rows
                 if r[4] != "repro-daemon" and r[5] in traced.refs]

    def total(name: str) -> float:
        return sum(r[2] - r[1] for r in rows if r[0] == name)

    def self_s(name: str) -> float:
        return sum(r[3] for r in rows if r[0] == name)

    def p50_ms(name: str) -> float:
        durs = [1000 * (r[2] - r[1]) for r in hit_spans if r[0] == name]
        return statistics.median(durs) if durs else 0.0

    def delta(*path: str) -> float:
        a, b = before, after
        for p in path:
            a, b = a[p], b[p]
        return b - a

    return {
        "service.launch_s": server.launch_s,
        "service.api.submit_s": total("service.api.submit"),
        "service.store.get_document_s": total("service.store.get_document"),
        "service.store.put_s": total("service.store.put"),
        "fastpath.kernel_s": self_s("fastpath.kernel"),
        "exec.plan.compile_s": self_s("exec.plan.compile"),
        "exec.run_plan_s": self_s("exec.run_plan"),
        "experiments.self_s": self_s("experiments.run"),
        "service.queue.wait_s": delta("daemon", "queue_wait_s"),
        "service.daemon.run_s": delta("daemon", "run_wall_s"),
        "service.daemon.executed": delta("daemon", "executed"),
        "service.daemon.cache_hits": delta("daemon", "cache_hits"),
        "service.queue.coalesced": delta("queue", "coalesced"),
        "service.queue.rejected": delta("queue", "rejected"),
        "service.http_gap_ms.p50": (
            statistics.median(traced.hit_sent_ms)
            - p50_ms("service.api.submit")
            - p50_ms("service.store.get_document")
        ),
        "service.hit_ms.p50": _pct(traced.hit_ms, "p50"),
        "service.hit_ms.p90": _pct(traced.hit_ms, "p90"),
        "service.exec_ms.p50": _pct(traced.exec_ms, "p50"),
        "service.exec_ms.p90": _pct(traced.exec_ms, "p90"),
        "loadgen.late_ms.p90": _pct(traced.late_ms, "p90"),
        "trace.overhead_frac": (
            statistics.median(traced.hit_ms)
            / statistics.median(plain.hit_ms) - 1.0
        ),
        "trace.spans": len(rows),
    }


WORKLOADS: dict[str, Callable[..., Outcome]] = {
    "e10-cold": e10_cold,
    "e10-warm": e10_warm,
    "study-e7-j2": study_e7_j2,
    "service-mix": service_mix,
}
