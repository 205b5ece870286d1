"""Record reference output digests for the benchmark's workloads.

    python3 bench/record_reference.py --seeds 0-20 [--workload NAME ...]

Runs each workload's CLI call once per seed, as run.py does, checks the
outputs' shape and stores their SHA-256 digest in reference_digests.json under
the workload's current definition. Record at a commit whose outputs are known
good; run.py then requires every later run with a recorded seed to reproduce
the digest byte for byte.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, required=True, help="FIRST-LAST, inclusive")
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args(argv)

    table = json.loads(run.REFERENCES.read_text(encoding="utf-8")) if run.REFERENCES.exists() else {}
    table = {name: entry for name, entry in table.items() if name in run.WORKLOADS}
    run.WORK_ROOT.mkdir(exist_ok=True)
    env = run.child_env()
    for name in args.workload or sorted(run.WORKLOADS):
        spec = run.WORKLOADS[name]
        entry = table.get(name)
        if entry is None or entry["fingerprint"] != spec.fingerprint():
            entry = table[name] = {"fingerprint": spec.fingerprint(), "digests": {}}
        for seed in args.seeds:
            work = tempfile.mkdtemp(prefix=f"{name}-", dir=run.WORK_ROOT)
            try:
                with run.CallServer(Path(work), env) as server:
                    call = run.call_cli(spec, seed, Path(work), server, "ref", False)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if call["exit"] != 0 or call["problems"]:
                print(f"{name} seed {seed}: not recorded: {call['problems']}", file=sys.stderr)
                return 1
            entry["digests"][str(seed)] = call["digest"]
            print(f"{name} seed {seed}: {call['digest']} ({call['run_s']:.2f} s)", flush=True)
            run.REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")
    try:
        run.WORK_ROOT.rmdir()
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
