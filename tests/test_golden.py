"""Golden artifacts: three short runs must reproduce recorded bytes.

The reference blow-up data cut at ``t_end_cap = 6e-4``, the sign-flipped
control and the still fluid run in one child process with one BLAS thread,
each entering through ``wavebox.cli.main(["simulate", ...])`` so that the
process set-up the command line does (its malloc settings) is covered too.
The SHA-256 of each artifact tree (relative paths and contents) must equal
the digest recorded for it at commit a37f9d8.  A refactor that moves a
single bit of any artifact fails here.
"""

import json
import os
import subprocess
import sys

from conftest import neg_config_dict, reference_config_dict, still_config_dict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from run import THREAD_VARS, tree_digest  # noqa: E402

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


def test_artifacts_match_golden_digests(tmp_path):
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path)],
                          input=json.dumps(CONFIGS), env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {name: 0 for name in CONFIGS}
    digests = {name: tree_digest(os.path.join(tmp_path, name))
               for name in CONFIGS}
    assert digests == GOLDEN_SHA256
