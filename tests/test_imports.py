"""What an ``asympatch`` process imports: the scipy subpackages in ``HEAVY``
stay unloaded, at import and through a whole job, and ``scipy.special``,
``mmap`` and ``multiprocessing`` are not loaded by analyze or demo."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# scipy.integrate pulls in scipy.optimize and scipy.linalg; none of the
# four is needed by analyze, train or demo
HEAVY = ("scipy.integrate", "scipy.ndimage", "scipy.optimize", "scipy.linalg")
# needed by the encoder's GELU only, so analyze and demo never load it
LAZY = "scipy.special"

JOBS = r"""
import json, os, sys
import asympatch, asympatch.cli, asympatch.train
from asympatch import cli

tmp = sys.argv[1]
def config(name, text):
    path = os.path.join(tmp, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path

analyze = config("analyze.ini", "[analyze]\ngrid = 8\ntrials = 1000\n"
                 "gammas = 0,3\n")
train = config("train.ini", "[train]\nclasses = 2\nper_class = 16\n"
               "image_size = 16\nbatch = 8\nwarmup_steps = 1\n"
               "total_steps = 2\nknn_k = 3\n")
codes = [
    cli.main(["analyze", "--config", analyze, "--out", os.path.join(tmp, "a")]),
    cli.main(["demo", "--out", os.path.join(tmp, "d")]),
]
before_train = sorted(sys.modules)
codes.append(cli.main(["train", "--config", train, "--out", os.path.join(tmp, "t")]))
print(json.dumps({"codes": codes, "before_train": before_train,
                  "modules": sorted(sys.modules)}))
"""


def test_jobs_leave_heavy_scipy_subpackages_unloaded(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", JOBS, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    loaded = [m for m in result["modules"]
              if any(m == h or m.startswith(h + ".") for h in HEAVY)]
    assert loaded == []
    assert not [m for m in result["before_train"]
                if m == LAZY or m.startswith(LAZY + ".")]
    # the encoder workers' modules load only when a step forks them
    assert not {"mmap", "multiprocessing"} & set(result["before_train"])
    # the checks mean something only if scipy itself was loaded, by the GELU
    assert LAZY in result["modules"]
