"""Checks of the benchmark itself: workload generator, tracer counts, gate.

The tracer test runs the 62-step, 9-record reference configuration
(``t_end_cap = 1.2e-3``) once untraced and once traced, in parallel child
processes, and compares the traced call counts with counts derived by hand
from ``runner.run_simulation``'s loop.
"""

import concurrent.futures
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import speedprobe  # noqa: E402
import workloads  # noqa: E402


def _load_conftest():
    spec = importlib.util.spec_from_file_location(
        "wavebox_reference_conftest", os.path.join(ROOT, "tests", "conftest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed0_configs_are_the_reference_configs():
    conftest = _load_conftest()
    ref = conftest.reference_config_dict
    assert (json.dumps(workloads.generate("blowup", 0).config)
            == json.dumps(ref()))
    assert (json.dumps(workloads.generate("record_dense", 0).config)
            == json.dumps(ref(record_dt=1e-5, t_end_cap=6e-4)))
    assert workloads.generate("bem_sweep", 0).config == {}


@pytest.mark.parametrize("seed", [1, 2, 17, 12345])
def test_other_seeds_scale_amplitude_and_time(seed):
    from wavebox.runner import RunConfig

    a = workloads.generate("record_dense", seed)
    assert a == workloads.generate("record_dense", seed)
    lam = a.amplitude
    assert 0.9 <= lam <= 1.1 and lam != 1.0
    (k1, a1), (k3, a3) = a.config["modes"]
    assert (k1, k3) == (1, 3) and a1 == pytest.approx(-lam)
    assert a.config["record_dt"] * lam == pytest.approx(1e-5)
    assert a.config["t_end_cap"] * lam == pytest.approx(6e-4)
    RunConfig.from_dict(a.config).potential()   # corner conditions hold


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
            == list(run.END_TO_END))
    assert ([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == list(run.PER_LAYER))


def test_reference_seconds_rescale_by_probe_speed():
    ref = speedprobe.REFERENCE_S
    # probes at the reference speed: only their own time is taken off
    even = [(t, ref) for t in range(10)]
    assert speedprobe.reference_seconds(even, 0.0, 10.0) == pytest.approx(10.0 - 10 * ref)
    # a core at half speed: the interval counts half
    slow = [(t, 2 * ref) for t in range(10)]
    assert speedprobe.reference_seconds(slow, 0.0, 10.0) == pytest.approx(
        (10.0 - 20 * ref) / 2)
    # one outlier probe on each side is trimmed
    mixed = [(0, ref / 10)] + [(t, ref) for t in range(1, 9)] + [(9, 10 * ref)]
    assert speedprobe.reference_seconds(mixed, 0.0, 10.0) == pytest.approx(
        10.0 - sum(d for _, d in mixed))
    # too few probes inside the interval: the speed of all of them is used
    assert speedprobe.reference_seconds(slow, 0.0, 2.0) == pytest.approx(
        (2.0 - 4 * ref) / 2)
    assert speedprobe.reference_seconds([], 1.0, 3.5) == 2.5


def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bem_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / ".perfbench_tmp").exists()


def test_traced_counts_match_hand_derived_counts(tmp_path):
    cfg_path = str(tmp_path / "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(workloads.reference_config(t_end_cap=1.2e-3), fh)
    bench = run.Bench(str(tmp_path), deadline=time.monotonic() + 600)
    plain_dir, traced_dir = str(tmp_path / "plain"), str(tmp_path / "traced")

    def simulate(out_dir, trace):
        return bench.launch(["simulate", "--config", cfg_path, "--out", out_dir,
                             "--quiet"], trace=trace)

    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        plain_f = pool.submit(simulate, plain_dir, False)
        traced_f = pool.submit(simulate, traced_dir, True)
        plain, traced = plain_f.result(), traced_f.result()
    assert plain.code == 0 and traced.code == 0
    assert run.tree_digest(plain_dir) == run.tree_digest(traced_dir)

    verify = bench.launch(["verify-identities", "--run", traced_dir, "--quiet"],
                          trace=True)
    assert verify.code == 0

    with open(os.path.join(traced_dir, "report.json")) as fh:
        report = json.load(fh)
    steps, records = report["n_steps"], report["n_records"]
    assert (steps, records) == (62, 9)
    assert report["breakdown_kind"] is None

    stats, counters = run._merge([traced, verify])
    calls = {key: s["calls"] for key, s in stats.items()}
    # one Cauchy solve per loop state (steps + 1), one per RK4 stage on a
    # fresh state (4 per step), one phi_t solve per record
    solves = (steps + 1) + 4 * steps + records
    # the same states, plus the flat mesh of c1
    meshes = (steps + 1) + 4 * steps + 1
    assert (solves, meshes) == (320, 312)
    expected = {
        "bem.solve_mixed_bvp": solves,
        "kernels.solve_dense": solves,
        "geometry.build_boundary_mesh": meshes,
        # every mesh build, plus detect_breakdown once per step
        "geometry.self_intersects": meshes + steps,
        "evolution.rk4_step": steps,
        # the dt estimate, plus the four stages through rk4_step's default
        "evolution.state_derivative": 5 * steps,
        "evolution.redistribute_markers": steps // 3,
        "diagnostics.detect_breakdown": steps,
        "pressure.solve_phi_t": records,
        "pressure.pressure_min": records,
        # pressure_at evaluates phi_t and phi at the lattice
        "bem.eval_interior": 2 * records,
        "kernels.influence_gradients": 2 * records,
        "kernels.influence_matrices": solves + 2 * records,
        # the lattice filter plus one check per eval_interior
        "bem.admissible_interior": 3 * records,
        "diagnostics.virial_parts": records,
        "diagnostics.fill_derived": 1,
        "modes.sample_initial_state": 1,
        "modes.initial_A": 1,
        "runner.run_simulation": 1,
        "runner.simulate": 1,
        "runner.write_snapshots": 1,
        "runner.verify_identities": 1,
    }
    assert {key: calls.get(key, 0) for key in expected} == expected
    assert calls["geometry.self_intersects"] == 374

    n = 3 * 24 + 95 + 1          # wall panels + surface panels + multiplier
    assert counters["kernels.solve_dense.flop"] == pytest.approx(
        solves * (2 * n ** 3 / 3 + 2 * n ** 2))
    assert counters["kernels.influence_matrices.pairs"] >= solves * (n - 1) ** 2
    assert 0 < counters["pressure.lattice_accepted"] <= records * 16 ** 2
    assert counters["pressure.lattice_offered"] == records * 16 ** 2

    values = run.layer_values(run.Outcome(
        ok=True, problems=[], wall_s=traced.wall_s, setup_s=traced.setup_s,
        maxrss_mb=traced.maxrss_mb, n_steps=steps,
        artifact_bytes=run.tree_bytes(traced_dir), stats=stats, counters=counters))
    assert values["bem.solves_per_step"] == pytest.approx(solves / steps)
    assert 0 < values["pressure.lattice_accept_ratio"] <= 1
    assert values["runner.artifact_bytes"] > 0
    # every traced call of the simulate process nests inside simulate, so
    # the self times partition simulate's total time
    own = traced.info["stats"]
    assert sum(s["self_s"] for s in own.values()) == pytest.approx(
        own["runner.simulate"]["total_s"], rel=1e-9)
