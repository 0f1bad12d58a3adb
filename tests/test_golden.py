"""Golden artifacts: three short runs must reproduce recorded bytes.

The reference blow-up data cut at ``t_end_cap = 6e-4``, the sign-flipped
control and the still fluid run in one child process with one BLAS thread,
each entering through ``wavebox.cli.main(["simulate", ...])`` so that the
process set-up the command line does (its malloc settings) is covered too.
The SHA-256 of each artifact tree (relative paths and contents) must equal
the digest recorded for it at commit a37f9d8.  A refactor that moves a
single bit of any artifact fails here.

The printed output is pinned the same way: the stdout of ``validate-bem``
with the default sweep must hash to the benchmark's golden digest, and the
stdout of ``simulate`` and ``verify-identities`` on the still fluid must be
the recorded text.
"""

import hashlib
import json
import os

# conftest puts perfbench on the import path
from conftest import (neg_config_dict, reference_config_dict, run_child,
                      still_config_dict)
from run import tree_digest
from workloads import GOLDEN_SHA256 as BENCH_SHA256

GOLDEN_SHA256 = {
    "reference":
        "9fc992f817c6e6eb79c4d557476e9d42bbe472bf7d363c08cea6c74e4f08e6d4",
    "sign_flipped":
        "01fac8953c41af357c9a40dbb61908daae44b202e225a3297f0ef6fc686f7b5d",
    "still":
        "6cb722a47acf016dfd2783e95fda18bdc5bd4e8d86f7e386bc4a1db8f5c3ae79",
}

CONFIGS = {
    "reference": reference_config_dict(t_end_cap=6e-4),
    "sign_flipped": neg_config_dict(),
    "still": still_config_dict(),
}

CHILD = """
import json, os, sys
from wavebox.cli import main
root, configs = sys.argv[1], json.load(sys.stdin)
codes = {}
for name, cfg in configs.items():
    path = os.path.join(root, name + ".json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    codes[name] = main(["simulate", "--config", path,
                        "--out", os.path.join(root, name), "--quiet"])
print(json.dumps(codes))
"""


STILL_SIMULATE_STDOUT = """\
  t=0.000000  L=0.00000  p_min=-0  E=0.000000
  t=0.050000  L=0.00000  p_min=-0  E=0.000000
  t=0.100000  L=0.00000  p_min=-0  E=0.000000
  t=0.150000  L=0.00000  p_min=-0  E=0.000000
  t=0.200000  L=0.00000  p_min=-0  E=0.000000
  t=0.250000  L=0.00000  p_min=-0  E=0.000000
  t=0.300000  L=0.00000  p_min=-0  E=0.000000
  t=0.350000  L=0.00000  p_min=-0  E=0.000000
  t=0.400000  L=0.00000  p_min=-0  E=0.000000
  t=0.450000  L=0.00000  p_min=-0  E=0.000000
  t=0.500000  L=0.00000  p_min=-0  E=0.000000
  t=0.550000  L=0.00000  p_min=-0  E=0.000000
  t=0.600000  L=0.00000  p_min=-0  E=0.000000
  t=0.650000  L=0.00000  p_min=-0  E=0.000000
  t=0.700000  L=0.00000  p_min=-0  E=0.000000
  t=0.750000  L=0.00000  p_min=-0  E=0.000000
  t=0.800000  L=0.00000  p_min=-0  E=0.000000
  t=0.850000  L=0.00000  p_min=-0  E=0.000000
  t=0.900000  L=0.00000  p_min=-0  E=0.000000
  t=0.950000  L=0.00000  p_min=-0  E=0.000000
  t=1.000000  L=0.00000  p_min=-0  E=0.000000
reached time cap t=1
report: all_passed=True
"""

STILL_VERIFY_STDOUT = """\
  energy_conserved: True
  area_conserved: True
  pressure_positive: True
  schwarz_held: True
  identities_converged: True
  inequality_28_held: True
  derivative_inequality_held: True
  riccati_dominated: True
all recomputed checks passed and match the stored report
"""


def run_cli(*args):
    return run_child(["-m", "wavebox.cli", *args])


def test_artifacts_match_golden_digests(tmp_path):
    stdout = run_child(["-c", CHILD, str(tmp_path)],
                       input=json.dumps(CONFIGS), text=True)
    assert json.loads(stdout) == {name: 0 for name in CONFIGS}
    digests = {name: tree_digest(os.path.join(tmp_path, name))
               for name in CONFIGS}
    assert digests == GOLDEN_SHA256


def test_bem_sweep_stdout_matches_benchmark_digest(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    stdout = run_cli("validate-bem", "--config", str(path))
    assert hashlib.sha256(stdout).hexdigest() == BENCH_SHA256["bem_sweep"]


def test_still_fluid_stdout(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIGS["still"]))
    out = str(tmp_path / "still")
    assert run_cli("simulate", "--config", str(path),
                   "--out", out).decode() == STILL_SIMULATE_STDOUT
    assert run_cli("verify-identities", "--run", out).decode() == STILL_VERIFY_STDOUT
