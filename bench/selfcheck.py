"""Fast check of the benchmark harness itself, at a tiny size.

    python3 bench/selfcheck.py

For a shrunken copy of each workload (fewer grid points and placements,
2 trials) it confirms that:

* an untraced run prints every end-to-end metric of BENCHMARK.json with its
  unit, and a traced run every per-layer metric, and nothing else;
* the self times of a traced call add up to its run_s;
* two untraced calls pass the same clock marks, and the fastest path through
  them is no longer than the faster call;
* the output check rejects a tampered output file;
* with no hippp source next to it, the benchmark exits non-zero and prints
  no result.

Exits 0 when all hold and 1 otherwise, listing what failed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run
from spans import attributed_s

# while this directory exists, run.run leaves WORK_ROOT in place
CHECK_DIR = run.WORK_ROOT / "selfcheck"

TINY = {
    "sweep-n9": replace(
        run.WORKLOADS["sweep-n9"], name="sweep-n9-tiny",
        config="[design]\nnum_layer1 = 2\nbase_seed = {seed}\n\n"
               "[evaluate]\nrating_grid = 0.10 0.15\nsigma_grid = 0.20\n",
        trials=2, expect=(6, 3),
    ),
    "design-n9": replace(
        run.WORKLOADS["design-n9"], name="design-n9-tiny",
        config="[design]\nnum_layer1 = 2\nlayer2_trial_ratings = 0.0 0.1\nbase_seed = {seed}\n",
        trials=2, expect=(2,),
    ),
    "sweep-n16": replace(
        run.WORKLOADS["sweep-n16"], name="sweep-n16-tiny",
        config="[supply]\ncount = 16\n\n[design]\nnum_layer1 = 1\nnum_rating_sets = 1\nbase_seed = {seed}\n\n"
               "[evaluate]\nrating_grid = 0.15\nsigma_grid = 0.30\n",
        trials=2, expect=(3, 3),
    ),
}


def _expect_metrics(lines, result, declared, label) -> list[str]:
    problems = []
    names = {m["name"]: m["unit"] for m in declared}
    if set(result["metrics"]) != set(names):
        problems.append(f"{label}: metrics {sorted(result['metrics'])} != declared {sorted(names)}")
    for name, unit in names.items():
        metric = result["metrics"].get(name)
        if metric is None or metric["unit"] != unit:
            problems.append(f"{label}: {name} missing or not in {unit}")
        elif f"{name} {metric['value']} {unit}" not in lines:
            problems.append(f"{label}: {name} was not printed with its unit")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: run not correct: {result['attempted']} attempted, "
                        f"{result['failed']} failed")
    return problems


def _marks_check(spec, work: Path, server) -> list[str]:
    """Two calls must pass the same marks, and their fastest path beat both calls."""
    calls = [run.call_cli(spec, 0, work, server, f"marks{i}", False) for i in range(2)]
    if any("marks" not in c for c in calls):
        return [f"{spec.name}: a call wrote no marks: {[c['problems'] for c in calls]}"]
    if calls[0]["marks"][0] != calls[1]["marks"][0] or len(calls[0]["marks"][0]) < 4:
        return [f"{spec.name}: two calls passed different or too few marks"]
    path, _ = run.fastest_path(calls, 1)
    if not 0.0 < path <= min(c["run_s"] for c in calls):
        return [f"{spec.name}: fastest path {path} is not within (0, fastest call]"]
    return []


def _tamper_checks(spec, work: Path, server) -> list[str]:
    """The output check must reject a changed byte, an out-of-range value and a lost file."""
    call = run.call_cli(spec, 0, work, server, "tamper", False)
    out_dir = work / "out-tamper"
    if call["exit"] != 0 or call["problems"]:
        return [f"{spec.name}: clean call failed: {call['problems']}"]
    target = out_dir / ("design.txt" if spec.command == "design" else run.SWEEP_OUTPUTS[-1])
    original = target.read_text(encoding="utf-8")
    problems = []

    changed = original.replace("1", "2", 1) if "1" in original else original + " "
    target.write_text(changed, encoding="utf-8")
    digest, _ = run.check_outputs(spec, out_dir, 0)
    tampered = dict(call, digest=digest, problems=[])
    run.judge_calls([tampered], call["digest"])
    if tampered["ok"]:
        problems.append(f"{spec.name}: a changed byte in {target.name} passed the digest check")

    if spec.command == "sweep":
        lines = original.splitlines()
        fields = lines[1].split(",")
        fields[run.CSV_HEADER.index("util_mean")] = "1.5"
        lines[1] = ",".join(fields)
        broken = "\n".join(lines) + "\n"
    else:
        broken = original.replace("[layer2_curve]", "[layer2_curve_gone]")
    target.write_text(broken, encoding="utf-8")
    if not run.check_outputs(spec, out_dir, 0)[1]:
        problems.append(f"{spec.name}: an invalid {target.name} passed the shape check")

    target.unlink()
    if not run.check_outputs(spec, out_dir, 0)[1]:
        problems.append(f"{spec.name}: a missing {target.name} passed the output check")
    return problems


def _missing_source_check() -> list[str]:
    """Copy only BENCHMARK.json and bench/ elsewhere: the run must refuse."""
    with tempfile.TemporaryDirectory(dir=CHECK_DIR) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.BENCH, Path(tmp) / run.BENCH.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "sweep-n9",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=120,
        )
    if proc.returncode == 0 or proc.stdout.strip():
        return ["without hippp source the benchmark did not fail cleanly: "
                f"exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if sorted(w["name"] for w in declared["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json and run.WORKLOADS name different workloads")
    CHECK_DIR.mkdir(parents=True, exist_ok=True)
    env = run.child_env()
    for name, spec in TINY.items():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            lines = []
            result = run.run(spec, 0, 0.1, trace, log=lines.append)
            problems += _expect_metrics(lines, result, declared[key], f"{name} trace={int(trace)}")
        with tempfile.TemporaryDirectory(dir=CHECK_DIR) as tmp, \
                run.CallServer(Path(tmp), env) as server:
            call = run.call_cli(spec, 0, Path(tmp), server, "traced", True)
            gap = abs(call["run_s"] - attributed_s(call["spans"])) if "spans" in call else None
            if gap is None or gap > 1e-3:
                problems.append(f"{name}: self times miss run_s by {gap} s")
            problems += _marks_check(spec, Path(tmp), server)
            problems += _tamper_checks(spec, Path(tmp), server)
        print(f"{name}: checked", flush=True)
    problems += _missing_source_check()
    shutil.rmtree(CHECK_DIR, ignore_errors=True)
    try:
        run.WORK_ROOT.rmdir()
    except OSError:
        pass
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
