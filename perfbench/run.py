"""wavebox benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program is the ``wavebox``
package under ``src/`` of that checkout, run as ``PYTHONPATH=src`` with one
BLAS thread.  Every workload run is a fresh process per ``wavebox`` command
(``perfbench/child.py``), launched and reaped here so that each process's
own peak memory comes from ``os.wait4``.

``--trace 0`` repeats the workload for about S seconds (at least once) and
reports the end-to-end metrics as medians.  Times are in reference seconds:
the interval less the time of the host-speed probe that runs inside every
child, rescaled to the reference probe speed (``speedprobe.py``); the table
also prints the raw medians.  ``--trace 1`` alternates an
untraced and a traced run and reports the per-layer metrics of the traced
ones, plus the tracing overhead.  Each run passes a correctness gate; the
last line of standard output is the JSON result, preceded by a readable
table with medians, quartiles and sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

from speedprobe import reference_seconds
from workloads import WORKLOADS, Workload, generate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED_THREADS = "1"
RUN_LIMIT_S = 170.0        # children still running this long after start are killed
# setup_s samples per run; set-up probes run before and after the workload
# so that the samples span the run
MIN_SETUP_SAMPLES = 7
SETUP_PROBES_FIRST = 3

# (name, unit, better)
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
# printed in the table only: the launch-to-exit times before rescaling
RAW_TIMES = (("wall_s (raw)", "s", "lower"), ("setup_s (raw)", "s", "lower"))

_TIMED = (
    "geometry.self_intersects", "geometry.build_boundary_mesh",
    "kernels.influence_matrices", "kernels.influence_gradients",
    "kernels.solve_dense", "bem.solve_mixed_bvp", "bem.eval_interior",
    "bem.admissible_interior", "evolution.rk4_step",
    "evolution.state_derivative", "evolution.redistribute_markers",
    "pressure.solve_phi_t", "pressure.pressure_min",
    "diagnostics.detect_breakdown",
)
_RECORD_FUNCTIONS = ("diagnostics.virial_parts", "diagnostics.int_u1_squared",
                     "diagnostics.int_pressure", "diagnostics.wall_u2_squared")
# simulate's own self time, with run_simulation and build_report traced
# inside it, is the config dump.
_WRITE_FUNCTIONS = ("runner.write_diagnostics_csv", "runner.write_snapshots",
                    "runner.write_report", "runner.simulate")


def _per_layer_spec():
    spec = []
    for key in _TIMED:
        spec += [(f"{key}.calls", "count", "lower"), (f"{key}.self_s", "s", "lower")]
    spec += [
        ("kernels.influence_matrices.pairs", "pairs", "lower"),
        ("kernels.influence_gradients.pairs", "pairs", "lower"),
        ("kernels.solve_dense.flop", "flop", "lower"),
        ("kernels.solve_dense.failed", "count", "lower"),
        ("bem.solves_per_step", "1/step", "lower"),
        ("pressure.lattice_accept_ratio", "ratio", "higher"),
        ("diagnostics.record_s", "s", "lower"),
        ("diagnostics.fill_derived.self_s", "s", "lower"),
        ("modes.sample_initial_state.self_s", "s", "lower"),
        ("modes.initial_A.self_s", "s", "lower"),
        ("runner.run_simulation.self_s", "s", "lower"),
        ("runner.artifact_write_s", "s", "lower"),
        ("runner.artifact_bytes", "bytes", "lower"),
        ("runner.verify_identities.self_s", "s", "lower"),
        ("runner.validate_bem.self_s", "s", "lower"),
        ("trace_overhead_s", "s", "lower"),
    ]
    return tuple(spec)


PER_LAYER = _per_layer_spec()


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    """One reaped child: exit code, launch and exit time, own peak memory."""

    code: int
    t0: float
    t1: float
    maxrss_mb: float
    info: dict
    stdout: bytes

    def seconds(self, start_key: str | None, end_key: str) -> float | None:
        """Reference seconds between two marks; None for a missing mark.

        ``start_key`` None is the launch; "exit" is the exit of the process.
        """
        lo = self.t0 if start_key is None else self.info.get(start_key)
        hi = self.t1 if end_key == "exit" else self.info.get(end_key)
        if lo is None or hi is None:
            return None
        return reference_seconds(self.info.get("probes", []), lo, hi)

    @property
    def wall_s(self) -> float:
        return self.seconds(None, "exit")

    @property
    def raw_wall_s(self) -> float:
        return self.t1 - self.t0

    @property
    def setup_s(self) -> float | None:
        return self.seconds(None, "setup_end")

    @property
    def raw_setup_s(self) -> float | None:
        end = self.info.get("setup_end")
        return None if end is None else end - self.t0


class Bench:
    """Scratch space and process launching for one benchmark invocation."""

    def __init__(self, tmp: str, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self._serial = itertools.count(1)
        env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env.update({var: PINNED_THREADS for var in THREAD_VARS})
        self.env = env

    def path(self, stem: str) -> str:
        return os.path.join(self.tmp, f"{next(self._serial):05d}-{stem}")

    def launch(self, cli_args, *, trace=False, setup_only=False, env_info=False) -> Proc:
        out_json = self.path("child.json")
        out_path, err_path = self.path("stdout"), self.path("stderr")
        flags = (["--trace"] if trace else []) + (["--setup-only"] if setup_only else [])
        flags += ["--env"] if env_info else []
        cmd = [sys.executable, CHILD, "--out-json", out_json, *flags, "--", *cli_args]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.monotonic()
            proc = subprocess.Popen(cmd, env=self.env, cwd=self.tmp,
                                    stdout=out, stderr=err)
            watchdog = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            t1 = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            with open(out_json) as fh:
                info = json.load(fh)
        except (OSError, ValueError):
            info = {}
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        return Proc(code=proc.returncode, t0=t0, t1=t1,
                    maxrss_mb=usage.ru_maxrss / 1024.0, info=info, stdout=stdout)


# ---------------------------------------------------------------------------
# one workload run and its correctness gate
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    ok: bool
    problems: list[str]
    wall_s: float
    setup_s: float | None
    maxrss_mb: float
    steps_per_s: float | None = None
    digest: str | None = None
    n_steps: int = 0
    artifact_bytes: int = 0
    stats: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    raw_wall_s: float | None = None     # the same times, not rescaled
    raw_setup_s: float | None = None


def tree_digest(path: str) -> str:
    """SHA-256 over relative paths and contents of every file under path."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as fh:
                h.update(fh.read())
            h.update(b"\0")
    return h.hexdigest()


def tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _merge(procs) -> tuple[dict, dict]:
    stats: dict = {}
    counters: dict = {}
    for p in procs:
        for key, s in p.info.get("stats", {}).items():
            acc = stats.setdefault(key, {"calls": 0, "self_s": 0.0, "raised": 0})
            for name in acc:
                acc[name] += s[name]
        for key, v in p.info.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + v
    return stats, counters


def run_once(bench: Bench, w: Workload, cfg_path: str, trace: bool) -> Outcome:
    """Run the workload's command(s) once and check the outputs."""
    problems = []
    if w.command == "validate-bem":
        main = bench.launch(["validate-bem", "--config", cfg_path], trace=trace)
        procs = [main]
        digest = hashlib.sha256(main.stdout).hexdigest()
        if main.code != 0:
            problems.append(f"validate-bem exited {main.code}")
        n_work = w.n_solves
        out_bytes = 0
    else:
        out_dir = bench.path("run")
        main = bench.launch(["simulate", "--config", cfg_path, "--out", out_dir,
                             "--quiet"], trace=trace)
        verify = bench.launch(["verify-identities", "--run", out_dir, "--quiet"],
                              trace=trace)
        procs = [main, verify]
        if main.code != 0:
            problems.append(f"simulate exited {main.code}")
        if verify.code != 0:
            problems.append(f"verify-identities exited {verify.code}")
        report = {}
        try:
            with open(os.path.join(out_dir, "report.json")) as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            problems.append(f"no report: {exc}")
        n_work = report.get("n_steps", 0)
        if (report.get("n_steps"), report.get("n_records")) != (w.n_steps, w.n_records):
            problems.append(f"steps/records {report.get('n_steps')}/{report.get('n_records')}"
                            f", expected {w.n_steps}/{w.n_records}")
        broke = report.get("breakdown_kind") is not None
        if broke != w.expect_breakdown:
            problems.append(f"breakdown {report.get('breakdown_kind')!r} unexpected")
        if broke and not report.get("t_break", float("inf")) <= report.get("t_star", 0.0):
            problems.append(f"t_break {report.get('t_break')} after T* {report.get('t_star')}")
        digest = tree_digest(out_dir) if os.path.isdir(out_dir) else None
        out_bytes = tree_bytes(out_dir) if os.path.isdir(out_dir) else 0
        shutil.rmtree(out_dir, ignore_errors=True)
    if w.golden_sha256 is not None and digest != w.golden_sha256:
        problems.append(f"digest {digest} differs from the seed-0 golden digest")
    timed = procs if w.timed_verify else [main]
    run_s = main.seconds("run_enter", "run_exit")
    stats, counters = _merge(procs)
    return Outcome(ok=not problems, problems=problems,
                   wall_s=sum(p.wall_s for p in timed),
                   raw_wall_s=sum(p.raw_wall_s for p in timed),
                   setup_s=main.setup_s, raw_setup_s=main.raw_setup_s,
                   maxrss_mb=main.maxrss_mb,
                   steps_per_s=n_work / run_s if run_s else None,
                   digest=digest, n_steps=n_work if w.command == "simulate" else 0,
                   artifact_bytes=out_bytes, stats=stats, counters=counters)


def setup_probe(bench: Bench, w: Workload, cfg_path: str, env_info=False) -> Proc:
    """A process that stops where set-up ends; gives one setup_s sample."""
    if w.command == "validate-bem":
        cli_args = ["validate-bem", "--config", cfg_path, "--quiet"]
    else:
        cli_args = ["simulate", "--config", cfg_path, "--out", bench.path("probe"),
                    "--quiet"]
    return bench.launch(cli_args, setup_only=True, env_info=env_info)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced run
# ---------------------------------------------------------------------------

def layer_values(o: Outcome) -> dict:
    def calls(key):
        return o.stats.get(key, {}).get("calls", 0)

    def self_s(*keys):
        return sum(o.stats.get(key, {}).get("self_s", 0.0) for key in keys)

    values = {}
    for key in _TIMED:
        values[f"{key}.calls"] = calls(key)
        values[f"{key}.self_s"] = self_s(key)
    offered = o.counters.get("pressure.lattice_offered", 0)
    values.update({
        "kernels.influence_matrices.pairs": o.counters.get("kernels.influence_matrices.pairs", 0),
        "kernels.influence_gradients.pairs": o.counters.get("kernels.influence_gradients.pairs", 0),
        "kernels.solve_dense.flop": o.counters.get("kernels.solve_dense.flop", 0),
        "kernels.solve_dense.failed": o.stats.get("kernels.solve_dense", {}).get("raised", 0),
        # 0 where the workload takes no steps or samples no lattice
        "bem.solves_per_step": (calls("bem.solve_mixed_bvp") / o.n_steps
                                if o.n_steps else 0.0),
        "pressure.lattice_accept_ratio": (
            o.counters.get("pressure.lattice_accepted", 0) / offered if offered else 0.0),
        "diagnostics.record_s": self_s(*_RECORD_FUNCTIONS),
        "diagnostics.fill_derived.self_s": self_s("diagnostics.fill_derived"),
        "modes.sample_initial_state.self_s": self_s("modes.sample_initial_state"),
        "modes.initial_A.self_s": self_s("modes.initial_A"),
        "runner.run_simulation.self_s": self_s("runner.run_simulation"),
        "runner.artifact_write_s": self_s(*_WRITE_FUNCTIONS),
        "runner.artifact_bytes": o.artifact_bytes,
        "runner.verify_identities.self_s": self_s("runner.verify_identities"),
        "runner.validate_bem.self_s": self_s("runner.validate_bem"),
    })
    return values


# ---------------------------------------------------------------------------
# measurement loops
# ---------------------------------------------------------------------------

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, ok: bool, problems=()):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.extend(problems)


def measure(bench: Bench, w: Workload, cfg_path: str, seconds: float,
            trace: bool) -> tuple[dict, Tally, dict]:
    """Run the workload for about ``seconds``; return samples per metric."""
    tally = Tally()
    samples: dict[str, list] = {}
    setups: list[float] = []
    raw_setups: list[float] = []

    def add_setup(proc_or_outcome):
        if proc_or_outcome.setup_s is not None:
            setups.append(proc_or_outcome.setup_s)
            raw_setups.append(proc_or_outcome.raw_setup_s)

    def probe(env_info=False):
        p = setup_probe(bench, w, cfg_path, env_info=env_info)
        tally.add(p.code == 0 and p.setup_s is not None,
                  [f"set-up probe exited {p.code}"])
        add_setup(p)
        return p

    env = probe(env_info=True).info.get("env", {})
    while not trace and len(setups) < SETUP_PROBES_FIRST:
        probe()
    untraced: list[Outcome] = []
    traced: list[Outcome] = []
    start = time.monotonic()
    while True:
        lap = time.monotonic()
        plain = run_once(bench, w, cfg_path, trace=False)
        tally.add(plain.ok, plain.problems)
        untraced.append(plain)
        add_setup(plain)
        if trace:
            traced_run = run_once(bench, w, cfg_path, trace=True)
            if traced_run.digest != plain.digest:
                traced_run.ok = False
                traced_run.problems.append("traced outputs differ from untraced")
            tally.add(traced_run.ok, traced_run.problems)
            traced.append(traced_run)
        now = time.monotonic()
        if now - start + (now - lap) > seconds:
            break
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        probe()

    digests = {o.digest for o in untraced + traced}
    tally.add(len(digests) == 1,
              [f"outputs differ between repeated runs: {sorted(map(str, digests))}"])

    if trace:
        per_run = [layer_values(o) for o in traced]
        for name, _, _ in PER_LAYER[:-1]:
            samples[name] = [v[name] for v in per_run]
        samples["trace_overhead_s"] = [
            statistics.median(o.wall_s for o in traced)
            - statistics.median(o.wall_s for o in untraced)]
    else:
        samples["wall_s"] = [o.wall_s for o in untraced]
        samples["setup_s"] = setups
        samples["steps_per_s"] = [o.steps_per_s for o in untraced if o.steps_per_s]
        samples["peak_rss_mb"] = [o.maxrss_mb for o in untraced]
        samples["wall_s (raw)"] = [o.raw_wall_s for o in untraced]
        samples["setup_s (raw)"] = raw_setups
    return samples, tally, env


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def machine_info(env: dict) -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    stack = ", ".join(f"{k} {v}" for k, v in env.items() if k != "blas_threads")
    return (f"{stack}; BLAS threads {env.get('blas_threads')}; "
            f"nproc {os.cpu_count()}; cpu {cpu}")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(w: Workload, trace: bool, samples: dict, tally: Tally, env: dict) -> dict:
    spec = PER_LAYER if trace else END_TO_END
    print(f"workload {w.name}  seed {w.seed}  amplitude {w.amplitude!r}  "
          f"mode {'traced' if trace else 'untraced'}")
    print(f"machine: {machine_info(env)}")
    print(f"{'metric':40s} {'unit':7s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'spread':>8s} {'n':>3s}")
    metrics = {}
    for name, unit, _ in spec + (() if trace else RAW_TIMES):
        values = samples.get(name) or []
        if not values:
            print(f"{name:40s} {unit:7s} {'(no sample)':>14s}")
            continue
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:40s} {unit:7s} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.2%} {len(values):3d}")
        if (name, unit, _) in spec:
            metrics[name] = {"value": med, "unit": unit}
    if trace:
        print("pairs and flop are computed from array shapes, not measured")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'failed_ratio':40s} {'ratio':7s} {ratio:14.6g}   "
          f"({tally.failed} of {tally.attempted} processes and checks failed)")
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    return {"correct": tally.failed == 0 and len(metrics) == len(spec),
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "wavebox", "cli.py")):
        print(f"no wavebox source tree under {ROOT}/src", file=sys.stderr)
        return 2

    w = generate(args.workload, args.seed)
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch_root)
    try:
        cfg_path = os.path.join(tmp, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(w.config, fh)
        bench = Bench(tmp, deadline=time.monotonic() + RUN_LIMIT_S)
        samples, tally, env = measure(bench, w, cfg_path, args.seconds,
                                      bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass
    result = report(w, bool(args.trace), samples, tally, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
