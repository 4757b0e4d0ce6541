"""The narrative demos run end to end and print what they claim."""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_asymmetric_sampling_views_partition_the_grid():
    done = run_demo("asymmetric_sampling.py")
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stdout.splitlines()
             if "cover the grid exactly" in line]
    assert len(lines) == 2
    assert all(line.endswith("True") for line in lines)


def test_overlap_geometry_profile_matches_direct_rects():
    done = run_demo("overlap_geometry.py")
    assert done.returncode == 0, done.stderr
    gap = re.search(r"max \|profile - direct\| = (\S+)", done.stdout)
    assert gap is not None
    assert float(gap.group(1)) < 1e-12


def test_contrastive_objective_gradients_match_finite_differences():
    done = run_demo("contrastive_objective.py")
    assert done.returncode == 0, done.stderr
    assert "stop-gradient partials are exactly zero: True" in done.stdout
    errors = [float(e) for e in re.findall(r"rel err (\S+)", done.stdout)]
    assert len(errors) == 3
    assert max(errors) < 1e-4
