"""hippp benchmark: times the ``hippp`` CLI end to end and, traced, per module.

    python3 bench/run.py --workload sweep-n9 --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a source checkout: it imports hippp from the
checkout's ``src`` and never from an installed copy, and it refuses to run
when that source is missing.

Each run starts one fresh interpreter that imports hippp (``bench/child.py
serve``) and runs every CLI call in a forked copy of it, one call after the
other, single process with ``--threads 1``. Each call thus starts from the
state right after the import, so the in-process layer-1 design cache cannot
turn a repeated call into a cache hit. With ``--trace 0`` the run repeats the
workload's CLI call for ``--seconds``, with a fresh-interpreter ``import
hippp`` (under ``-X importtime``) before every second call. Each call records
clock marks at the boundaries of hippp's public functions (``spans.Marks``).
``run_s`` and ``cpu_s`` are the fastest path through the calls: for each
stretch between consecutive marks, the fastest call's time, summed (see
``end_to_end``); ``setup_s`` is the same over the imports, one stretch per
imported module. ``peak_rss_mb`` is the median over the calls. With
``--trace 1`` it spends half of ``--seconds`` on untraced calls and half on
traced ones and reports the per-module metrics of ``bench/spans.py`` for the
fastest traced call; the tracing overhead is that call's ``run_s`` minus the
fastest untraced one.

Every call's outputs are checked: the CSVs or ``design.txt`` must have the
expected shape and value ranges, all calls in a run must produce the same
SHA-256 digest, and where ``bench/reference_digests.json`` holds a digest for
the workload and seed, the digest must equal it. A call that exits non-zero
or fails a check counts as failed.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from spans import attributed_s, layer_metrics, load_marks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
REFERENCES = BENCH / "reference_digests.json"
WORK_ROOT = ROOT / ".bench_work"

CALL_TIMEOUT_S = 170
SETUP_EVERY = 2
# see end_to_end: the calibration loop's fastest time on the host the baseline
# was recorded on, in a quiet spell, and how often it is timed before each call
CALIBRATION_REF_S = 1.1e-3
CALIBRATION_REPEATS = 30
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SWEEP_OUTPUTS = (
    "utilization_vs_rating.csv",
    "efficiency_vs_rating.csv",
    "frontier.csv",
    "utilization_vs_heterogeneity.csv",
)
CSV_HEADER = [
    "arch", "rating_norm", "heterogeneity", "trials", "seed",
    "util_mean", "util_std", "eff_mean", "proc_mean", "out_mean",
]
KINDS = ("lshippp", "cppp", "fpp")


@dataclass(frozen=True)
class Workload:
    """One CLI call. `config` is the INI text; `{seed}` becomes the run's seed."""

    name: str
    command: str
    config: str
    trials: int
    # sweep: rows in the rating CSVs and the heterogeneity CSV; design: layer-1 edges
    expect: tuple[int, ...]

    def argv(self, config_path: Path, out_dir: Path, seed: int) -> list[str]:
        return [
            self.command, "--config", str(config_path), "--out", str(out_dir),
            "--seed", str(seed), "--trials", str(self.trials), "--threads", "1",
        ]

    def fingerprint(self) -> str:
        text = json.dumps([self.command, self.config, self.trials])
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# Why these three: sweep-n9 is the paper's figure pipeline on the README
# default supply with two pair converters, so that Monte Carlo evaluation does
# most of the work; it runs every module. design-n9 is the README default
# design, dominated by the layer-1 placement search; it never runs the ladder
# dispatch or the evaluation cells, so an evaluation-only change should leave
# it unchanged. sweep-n16 runs the same modules at a larger N: bigger LPs,
# many tied placements (hot tie-break design LPs), and 2^16 battery subsets,
# where a cut form or a trials x 2^N array costs time or memory. Each call
# takes about a second, so that a run holds many (see end_to_end for why).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-n9", "sweep",
            "[design]\nnum_layer1 = 2\nbase_seed = {seed}\n\n"
            "[evaluate]\nrating_grid = 0.05 0.30\nsigma_grid = 0.20\n",
            trials=20, expect=(6, 3),
        ),
        Workload(
            "design-n9", "design",
            "[design]\nbase_seed = {seed}\n",
            trials=10, expect=(3,),
        ),
        Workload(
            "sweep-n16", "sweep",
            "[supply]\ncount = 16\n\n[design]\nnum_layer1 = 2\nbase_seed = {seed}\n\n"
            "[evaluate]\nrating_grid = 0.05 0.30\nsigma_grid = 0.20\n",
            trials=10, expect=(6, 3),
        ),
    )
}


class HarnessError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


def unit_of(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("ms_per_trial"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("lp_per_call"):
        return "lp/call"
    if name.endswith("prune_ratio"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "count"


# ---------------------------------------------------------------- output check

def output_digest(command: str, out_dir: Path) -> str:
    names = SWEEP_OUTPUTS if command == "sweep" else ("design.txt",)
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode() + b"\0")
        digest.update((out_dir / name).read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def _check_sweep(spec: Workload, out_dir: Path, seed: int) -> list[str]:
    problems = []
    tables = {}
    for name, rows_expected in zip(SWEEP_OUTPUTS, (spec.expect[0],) * 3 + (spec.expect[1],)):
        with open(out_dir / name, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        tables[name] = rows
        if not rows or rows[0] != CSV_HEADER:
            problems.append(f"{name}: header is {rows[:1]}")
            continue
        if len(rows) - 1 != rows_expected:
            problems.append(f"{name}: {len(rows) - 1} rows, expected {rows_expected}")
        for row in rows[1:]:
            try:
                record = dict(zip(CSV_HEADER, row))
                values = {k: float(v) for k, v in record.items() if k != "arch"}
            except ValueError:
                problems.append(f"{name}: unparsable row {row}")
                continue
            if (len(row) != len(CSV_HEADER) or record["arch"] not in KINDS
                    or values["trials"] != spec.trials or values["seed"] != seed
                    or not 0.0 < values["util_mean"] <= 1.0 + 1e-6
                    or not 0.0 <= values["util_std"] < 1.0
                    or not 0.0 < values["eff_mean"] <= 1.0
                    or values["proc_mean"] < 0.0 or values["out_mean"] <= 0.0):
                problems.append(f"{name}: row out of range {row}")
    rating_tables = [tables.get(name) for name in SWEEP_OUTPUTS[:3]]
    if any(table != rating_tables[0] for table in rating_tables):
        problems.append("the three rating-sweep CSVs differ")
    return problems


def _check_design(spec: Workload, out_dir: Path, seed: int) -> list[str]:
    parser = configparser.ConfigParser()
    try:
        parser.read(out_dir / "design.txt", encoding="utf-8")
        edges = parser.getint("layer1", "count")
        base_seed = parser.getint("design", "base_seed")
        trials = parser.getint("design", "monte_carlo_trials")
        curve = [parser.getfloat("layer2_curve", f"utilization_{i}")
                 for i in range(len(parser["layer2_curve"]) // 2)]
        capabilities = [float(v) for v in parser["expected_set"].values()]
        layer2_rating = parser.getfloat("layer2", "rating")
    except (configparser.Error, KeyError, ValueError) as exc:
        return [f"design.txt: {exc}"]
    problems = []
    if edges != spec.expect[0]:
        problems.append(f"design.txt: {edges} layer-1 edges, expected {spec.expect[0]}")
    if base_seed != seed or trials != spec.trials:
        problems.append("design.txt: seed or trial count differs from the request")
    if not curve or any(not -1e-7 <= u <= 1.0 + 1e-7 for u in curve) or any(
            b < a - 1e-7 for a, b in zip(curve, curve[1:])):
        problems.append(f"design.txt: layer-2 curve is not a utilization curve: {curve}")
    if sorted(capabilities) != capabilities or min(capabilities, default=0.0) <= 0.0:
        problems.append("design.txt: expected set is not positive and ascending")
    if layer2_rating < 0.0:
        problems.append("design.txt: negative layer-2 rating")
    return problems


def check_outputs(spec: Workload, out_dir: Path, seed: int) -> tuple[str | None, list[str]]:
    """Digest of the call's outputs and the problems found in them."""
    try:
        digest = output_digest(spec.command, out_dir)
    except OSError as exc:
        return None, [f"missing output: {exc}"]
    check = _check_sweep if spec.command == "sweep" else _check_design
    return digest, check(spec, out_dir, seed)


def reference_digest(spec: Workload, seed: int) -> str | None:
    """Digest recorded for this workload and seed at the baseline commit, if any."""
    if not REFERENCES.exists():
        return None
    entry = json.loads(REFERENCES.read_text(encoding="utf-8")).get(spec.name)
    if entry is None:
        return None
    if entry["fingerprint"] != spec.fingerprint():
        raise HarnessError(
            f"{REFERENCES.name} holds digests for another definition of {spec.name}; "
            "record them again for the new definition"
        )
    return entry["digests"].get(str(seed))


# ---------------------------------------------------------------- child calls

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["HIPPP_LOG"] = "warning"
    return env


IMPORT_DONE = "hippp imported"


def import_once(work: Path, env: dict, tag: str) -> tuple[float, dict, dict[str, float]]:
    """Seconds from starting a fresh interpreter to `import hippp` done.

    Also returns the library versions and, from ``python -X importtime``, the
    seconds each module's import took on its own (its self time).
    """
    result = work / f"import-{tag}.json"
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", str(CHILD), "import", str(result)],
        env=env, cwd=work, capture_output=True, text=True, timeout=CALL_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise HarnessError(f"import hippp failed:\n{proc.stderr[-2000:]}")
    info = json.loads(result.read_text(encoding="utf-8"))
    if not Path(info["hippp_file"]).resolve().is_relative_to(ROOT / "src"):
        raise HarnessError(f"imported hippp from {info['hippp_file']}, not from {ROOT / 'src'}")
    self_s = {}
    for line in proc.stderr.partition(IMPORT_DONE)[0].splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            self_s[fields[2].strip()] = int(fields[0]) * 1e-6
    return info["imported"] - started, info, self_s


class CallServer:
    """`child.py serve` in a fresh interpreter, in a process group of its own.

    Each call runs in a forked copy of that interpreter as it was right after
    ``import hippp.cli``, so no call sees another's in-process state (such as
    the layer-1 design cache). Use it as a context manager: leaving it ends
    the server and every process it started, and waits for them.
    """

    def __init__(self, work: Path, env: dict):
        self.log = work / "server.log"
        with open(self.log, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(CHILD), "serve"], env=env, cwd=work,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
                text=True, start_new_session=True,
            )

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def call(self, argv: list[str], result: Path, log: Path, spans: Path | None = None,
             marks: Path | None = None) -> int:
        """Exit status of one forked CLI call; raises TimeoutError past CALL_TIMEOUT_S."""
        request = {"argv": argv, "result": str(result), "spans": str(spans or "-"),
                   "marks": str(marks or "-"), "log": str(log)}
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass
        if not select.select([self.proc.stdout], [], [], CALL_TIMEOUT_S)[0]:
            self.close(wait_s=0)
            raise TimeoutError(f"timed out after {CALL_TIMEOUT_S} s")
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise HarnessError(f"the call server ended:\n{self.log.read_text()[-2000:]}")
        return json.loads(line)["status"]

    def close(self, wait_s: float = 10) -> None:
        """Let the server finish for up to `wait_s`, then kill its process group."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=wait_s)
            except subprocess.TimeoutExpired:
                pass
        group = self.proc.pid
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(group, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                break
            if self.proc.poll() is None:
                self.proc.wait()
            time.sleep(0.05)
        self.proc.wait()
        self.proc.stdout.close()


def call_cli(spec: Workload, seed: int, work: Path, server: CallServer, tag: str,
             traced: bool) -> dict:
    """Run the workload's CLI call once in a forked pristine interpreter and check its outputs."""
    config = work / "experiment.ini"
    if not config.exists():
        config.write_text(spec.config.format(seed=seed), encoding="utf-8")
    out_dir = work / f"out-{tag}"
    result = work / f"call-{tag}.json"
    spans = work / f"spans-{tag}.json"
    marks = work / f"marks-{tag}.bin"
    log = work / f"log-{tag}.txt"
    argv = spec.argv(config, out_dir, seed)
    started = time.perf_counter()
    try:
        exit_code = server.call(argv, result, log, spans=spans if traced else None,
                                marks=None if traced else marks)
        stderr = log.read_text(encoding="utf-8", errors="replace") if log.exists() else ""
    except TimeoutError as exc:
        exit_code, stderr = -1, str(exc)
    call = {"tag": tag, "traced": traced, "wall_s": time.perf_counter() - started}
    if exit_code == 0 and result.exists():
        measured = json.loads(result.read_text(encoding="utf-8"))
        exit_code = measured["exit"]
        call.update(run_s=measured["run_s"], cpu_s=measured["cpu_s"],
                    peak_rss_mb=measured["peak_kib"] / 1024.0)
    call["exit"] = exit_code
    if exit_code != 0:
        call.update(digest=None, problems=[f"exit code {exit_code}: {stderr[-2000:]}"])
        return call
    call["digest"], call["problems"] = check_outputs(spec, out_dir, seed)
    if traced:
        call["spans"] = json.loads(spans.read_text(encoding="utf-8"))
    else:
        call["marks"] = load_marks(marks)
    return call


def repeat_for(seconds: float, once) -> list[dict]:
    """Call `once(i)` at least once, and again while another call fits in `seconds`."""
    deadline = time.perf_counter() + seconds
    calls = [once(0)]
    while time.perf_counter() + max(c["wall_s"] for c in calls) <= deadline:
        calls.append(once(len(calls)))
    return calls


# ---------------------------------------------------------------- reporting

def environment(info: dict, spec: Workload, seed: int) -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": info["numpy"],
        "scipy": info["scipy"],
        "blas_threads": {name: os.environ.get(name, "unset") for name in BLAS_VARIABLES},
        "commit": commit,
        "workload": spec.name,
        "seed": seed,
        "trials": spec.trials,
    }


def judge_calls(calls: list[dict], reference: str | None) -> None:
    """Mark each call ok or not: clean exit, clean outputs, one shared digest."""
    expected = reference or next((c["digest"] for c in calls if c["digest"]), None)
    for call in calls:
        if call["digest"] is not None and call["digest"] != expected:
            what = "the reference" if reference else "the run's first digest"
            call["problems"].append(f"digest {call['digest']} differs from {what} {expected}")
        call["ok"] = call["exit"] == 0 and not call["problems"]


def calibration_s() -> float:
    """Seconds one pass of a fixed pure-Python loop takes (about 1 ms)."""
    started = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.perf_counter() - started


def fastest_path(calls: list[dict], clock: int) -> tuple[float, float]:
    """Sum, over the stretches between consecutive marks, of the fastest call's time.

    Returns that sum and the longest of its stretches. `clock` is 1 for wall
    time and 2 for CPU time (the index into a call's marks).
    """
    steps = []
    for call in calls:
        stamps = call["marks"][clock]
        steps.append([b - a for a, b in zip(stamps, stamps[1:])])
    fastest = [min(column) for column in zip(*steps)]
    return sum(fastest), max(fastest, default=0.0)


def end_to_end(untraced: list[dict], log=print) -> dict[str, float]:
    """Times and set-up as fastest paths at a reference core speed; memory as a median.

    The host this was tuned on slows every process for stretches from
    milliseconds to minutes, without reporting steal time, and at times for
    more than half of every second: the fastest of 25 half-second calls moved
    by up to 80 % within minutes. Two steps take that out.

    Fastest path: each call of a run does the same work and passes the same
    function boundaries (spans.Marks) in the same order, a few milliseconds
    apart. For each stretch between two consecutive boundaries the fastest
    call's time is taken, and the stretches are summed. That removes slowdowns
    shorter than a stretch. Set-up is treated the same way, one stretch per
    imported module. The marks cost about 2 us per boundary, about 1 % of a
    call.

    Core speed: slowdowns that last through a whole run slow every stretch
    alike. The fastest of the run's passes of a fixed calibration loop,
    timed before every call, measures them; the fastest paths are scaled by
    CALIBRATION_REF_S over that time, to the speed of a core on which the
    loop takes CALIBRATION_REF_S. The result moves only when the program's
    own cost does. Memory does not drift, so it is the median over calls.
    """
    ok = [c for c in untraced if c["ok"] and "marks" in c]
    if not ok:
        return {}
    same = [c for c in ok if c["marks"][0] == ok[0]["marks"][0]]
    if len(same) < len(ok):
        log(f"{len(ok) - len(same)} calls passed other boundaries than the first; left out")
    calibration = min(c["calibration_s"] for c in untraced)
    speed = CALIBRATION_REF_S / calibration
    log(f"calibration loop over {len(untraced)} calls: fastest {calibration:.7f} s, "
        f"scale {speed:.6f}")
    metrics = {}
    for name, clock in (("run_s", 1), ("cpu_s", 2)):
        path, longest = fastest_path(same, clock)
        metrics[name] = path * speed
        per_call = sorted(c[name] for c in same)
        log(f"{name} over {len(same)} calls, {len(same[0]['marks'][0])} marks each: fastest path "
            f"{path:.6f}, longest stretch {longest:.6f}, fastest call {per_call[0]:.6f}, "
            f"median call {statistics.median(per_call):.6f} (unscaled)")
    metrics["peak_rss_mb"] = statistics.median(c["peak_rss_mb"] for c in ok)
    metrics["setup_s"] = speed * fastest_import(
        [(c["setup_s"], c["import_self_s"]) for c in untraced if "setup_s" in c], log)
    return metrics


def fastest_import(samples: list[tuple[float, dict[str, float]]], log=print) -> float:
    """The fastest path through the run's fresh imports, as fastest_path for calls.

    The stretches are each module's own import time, and the rest of each
    sample (starting the interpreter, and what -X importtime does not
    attribute to a module).
    """
    rest = min(total - sum(self_s.values()) for total, self_s in samples)
    modules = {name for _, self_s in samples for name in self_s}
    fastest = rest + sum(min(s[name] for _, s in samples if name in s) for name in modules)
    totals = sorted(total for total, _ in samples)
    log(f"setup_s over {len(samples)} imports of {len(modules)} modules: fastest path "
        f"{fastest:.6f}, fastest import {totals[0]:.6f}, median import "
        f"{statistics.median(totals):.6f} (unscaled)")
    return fastest


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Module metrics of the fastest traced call, the one least slowed by the host."""
    traced = [c for c in traced if "spans" in c]
    if not traced:
        return {}, []
    fastest = min(traced, key=lambda c: c["run_s"])
    metrics = layer_metrics(fastest["spans"])
    untraced_s = [c["run_s"] for c in untraced if "run_s" in c]
    metrics["trace.overhead_s"] = fastest["run_s"] - min(untraced_s, default=fastest["run_s"])
    note = (f"fastest traced call {fastest['tag']}: run_s {fastest['run_s']:.6f}, self times "
            f"sum to {attributed_s(fastest['spans']):.6f}, overhead {metrics['trace.overhead_s']:.6f}")
    return metrics, [note]


def run(spec: Workload, seed: int, seconds: float, trace: bool, log=print) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    if not (ROOT / "src" / "hippp" / "__init__.py").is_file():
        raise HarnessError(f"no hippp source under {ROOT / 'src'}")
    reference = reference_digest(spec, seed)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=WORK_ROOT))
    try:
        env = child_env()
        _, info, _ = import_once(work, env, "warmup")
        log("env " + json.dumps(environment(info, spec, seed), sort_keys=True))
        with CallServer(work, env) as server:
            if not trace:
                def once(i):
                    # a set-up sample before every SETUP_EVERY-th call spreads them over the run
                    setup = {}
                    if i % SETUP_EVERY == 0:
                        setup["setup_s"], _, setup["import_self_s"] = import_once(work, env, str(i))
                    calibration = min(calibration_s() for _ in range(CALIBRATION_REPEATS))
                    return dict(call_cli(spec, seed, work, server, f"u{i}", False),
                                calibration_s=calibration, **setup)

                untraced = repeat_for(seconds, once)
                traced = []
            else:
                untraced = repeat_for(
                    seconds / 2, lambda i: call_cli(spec, seed, work, server, f"u{i}", False))
                traced = repeat_for(
                    seconds / 2, lambda i: call_cli(spec, seed, work, server, f"t{i}", True))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    calls = untraced + traced
    judge_calls(calls, reference)
    for call in calls:
        figures = " ".join(f"{k} {call[k]:.6f}" for k in ("setup_s", "run_s", "cpu_s", "peak_rss_mb")
                           if k in call)
        log(f"call {call['tag']}: exit {call['exit']} {figures} digest {call['digest']} "
            f"{'ok' if call['ok'] else 'FAILED: ' + '; '.join(call['problems'])}")
    log(f"reference digest for seed {seed}: {reference or 'none recorded'}")
    failed = sum(not c["ok"] for c in calls)
    log(f"failed_frac {failed / len(calls)} ratio")

    if trace:
        values, notes = per_layer(untraced, traced)
        for note in notes:
            log(note)
    else:
        values = end_to_end(untraced, log)
    metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in values.items()}
    for name, metric in metrics.items():
        log(f"{name} {metric['value']} {metric['unit']}")
    return {"correct": failed == 0, "attempted": len(calls), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
