"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Not part of the repo's tier-1 suite (pytest's testpaths is tests/).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402
from tableplan import harness  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]
TINY = 3  # episodes per run


def bench(workload: str, trace: int, seed: int = 0) -> tuple:
    """(stdout lines, final JSON) of one tiny run; fails on a non-zero exit."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--episodes", str(TINY)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def digest(lines: list) -> str:
    (line,) = [ln for ln in lines if ln.startswith("digest ")]
    return line


@pytest.fixture(scope="module")
def runs():
    return {(w, t): bench(w, t) for w in NAMES for t in (0, 1)}


def test_spec_names_every_workload():
    assert sorted(NAMES) == sorted(wl.workloads())


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_present_with_its_unit(runs, trace, section):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    for w in NAMES:
        _, result = runs[(w, trace)]
        assert result["correct"] is True and result["failed"] == 0, w
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want, w


def test_canonical_json_is_called_only_by_log_replay(runs):
    for w in NAMES:
        metrics = runs[(w, 1)][1]["metrics"]
        calls = metrics["serialize.canonical_json.calls"]["value"]
        assert (calls > 0) == (w == "log_replay"), (w, calls)


def test_second_run_and_traced_run_reproduce_the_digests(runs):
    for w in NAMES:
        first = digest(runs[(w, 0)][0])
        assert digest(bench(w, 0)[0]) == first, w
        assert digest(runs[(w, 1)][0]) == first, w


def test_one_tampered_log_byte_counts_as_a_failed_episode(monkeypatch, tmp_path):
    workload = wl.workloads()["log_replay"]
    seed0 = wl.seed0_for(0)
    victim = seed0 + 1
    run_episode = harness.run_episode

    def tampering(cfg, seed, log_path=None, **kwargs):
        result = run_episode(cfg, seed, log_path=log_path, **kwargs)
        if log_path is not None and seed == victim:
            with open(log_path, "rb") as fh:
                data = bytearray(fh.read())
            at = data.index(b'"iter":0') + len(b'"iter":')
            data[at] = ord("7")
            with open(log_path, "wb") as fh:
                fh.write(data)
        return result

    monkeypatch.setattr(harness, "run_episode", tampering)
    eps = wl.run_loop(workload, seed0, str(tmp_path / "episode.jsonl"),
                      seconds=0, min_episodes=TINY)
    assert [e.ok for e in eps] == [True, False, True]
