#!/usr/bin/env python3
"""Outside-in benchmark for `sitegame solve` and `sitegame tensor`.

Run from the repository root:

    python3 perfbench/run.py --workload dense_tensor_json --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

For one workload the benchmark generates its input from the seed and computes
the correctness gate from ``tests/oracles.py``, both untimed. With
``--trace 0`` it then alternates a fixed reference job (``calibrate.py``),
`python -m sitegame --version` and the workload's command for
``--seconds``, one child process at a time. It reports the median peak RSS
of the command (from ``os.wait4``) and the medians of the command's wall and
CPU time and of the `--version` wall time (``setup_s``), each divided by the
reference job's time beside it. The shared VMs this runs on change speed by
a fifth or more within minutes; the ratio cancels that out, where a raw
median does not.

With ``--trace 1`` it runs untraced children for a third of ``--seconds``,
then repeats an in-process copy of the CLI's call sequence with a span around
each call into a ``sitegame`` module for the rest, then makes one tracemalloc
pass, and reports per-layer metrics.

Every output, traced or not, must match the first child's stdout byte for
byte, and the first child's stdout must pass the gate. The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; metric names and units come from
``BENCHMARK.json``. Each run's samples, input digest and spans are written
to ``.bench_work/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
REQUIRED = ("BENCHMARK.json", "src/sitegame/__init__.py", "tests/oracles.py")
MIN_CHILDREN = 5  # timed children per untraced run, however short --seconds is
MIN_TRACED = 3  # untraced children, and traced runs, per traced run
CHILD_TIMEOUT_S = 60.0  # a child running longer is killed and counted as failed
MIB = float(1 << 20)
# Median wall and CPU time of the reference job (calibrate.py) on a 2-vCPU
# x86-64 VM with Python 3.11 and numpy 2.4 (its CPU time exceeds its wall
# time because numpy's import starts OpenBLAS threads). Timing metrics are
# reported in seconds of a machine this fast (see scaled()).
REFERENCE_WALL_S = 0.42
REFERENCE_CPU_S = 0.55


@dataclass(frozen=True)
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    digest: str


@dataclass
class Tally:
    """Operations attempted and failed in one run, with the reasons."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def spawn(args: list[str], out_path: Path, err_path: Path) -> Child:
    """Run `python -m sitegame <args>` to completion with stdout drained to a
    file; wall time is spawn to exit, CPU and RSS are the child's own."""
    return spawn_python(["-m", "sitegame", *args], out_path, err_path)


def spawn_reference(out_path: Path, err_path: Path) -> Child:
    """Run the fixed reference job of ``calibrate.py``; it must succeed."""
    child = spawn_python([str(ROOT / "perfbench" / "calibrate.py")], out_path, err_path)
    if child.exit_code != 0:
        raise RuntimeError(f"reference job failed: {child_problems(child, None, err_path)}")
    return child


def spawn_python(args: list[str], out_path: Path, err_path: Path) -> Child:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / MIB,  # ru_maxrss is in KiB on Linux
        exit_code=proc.returncode,
        digest=digest(out_path),
    )


def child_problems(child: Child, reference: str | None, err_path: Path) -> list[str]:
    if child.exit_code != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
        return [f"exit code {child.exit_code} {tail}"]
    return digest_problems(child.digest, reference)


def digest_problems(actual: str, reference: str | None) -> list[str]:
    if reference is not None and actual != reference:
        return [f"stdout digest {actual[:12]} differs from the first run's {reference[:12]}"]
    return []


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return f"p{q} {statistics.quantiles(values, n=100)[q - 1]:.4f} (n={n})"
    return f"max {max(values):.4f} (n={n}; no percentile above the median has 10 samples beyond it)"


def measure_children(argv, out, err, reference, tally, seconds, at_least):
    """Alternate the reference job, `--version` and the workload's command for
    ``seconds``, and end with one more reference job, so that every command
    has a reference job on each side of it."""
    refs = [spawn_reference(out, err)]
    setups: list[Child] = []
    children: list[Child] = []
    start = time.perf_counter()
    while len(children) < at_least or time.perf_counter() - start < seconds:
        setup = spawn(["--version"], out, err)
        tally.record("--version", child_problems(setup, None, err))
        setups.append(setup)
        child = spawn(argv, out, err)
        tally.record("run", child_problems(child, reference, err))
        children.append(child)
        refs.append(spawn_reference(out, err))
    return children, setups, refs


def scaled(times: list[float], yardsticks: list[float], reference_s: float) -> float:
    """Median of each time over the reference job's time beside it, in
    seconds of a machine on which the reference job takes ``reference_s``."""
    return reference_s * statistics.median(t / y for t, y in zip(times, yardsticks, strict=True))


def measure_traced(traced, argv, out, reference, tally, seconds, untraced_s):
    """Repeat the traced copy for ``seconds``, then one tracemalloc pass."""
    timed = traced.Tracer()
    start = time.perf_counter()
    while len(timed.runs) < MIN_TRACED or time.perf_counter() - start < seconds:
        gc.collect()
        counts = traced.traced_run(timed, argv, out)
        tally.record("traced", digest_problems(digest(out), reference))
    alloc = traced.Tracer(measure_alloc=True)
    gc.collect()
    traced.traced_run(alloc, argv, out)
    tally.record("tracemalloc", digest_problems(digest(out), reference))
    spans = [asdict(s) for run in timed.runs + alloc.runs for s in run]
    return traced.per_layer(timed, alloc, counts, untraced_s), spans


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    import inputs
    import traced

    load = os.getloadavg()
    print(f"workload {workload.name} seed {seed} trace {int(trace)} loadavg {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}")
    tally = Tally()
    record: dict = {"workload": workload.name, "seed": seed, "trace": int(trace), "loadavg_before": load}
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{workload.name}-") as tmp:
        tmp = Path(tmp)
        input_path = tmp / "input.json"
        prepared = workload.prepare(seed)
        record["input"] = inputs.write_doc(prepared.doc, input_path)
        check, record["note"] = prepared.check, prepared.note
        del prepared  # the input document is only needed on disk from here on
        print(f"input {record['input']['bytes']} bytes sha256 {record['input']['sha256']} {record['note']}")
        print("command python -m sitegame " + " ".join(workload.argv("<input>")))
        argv = workload.argv(str(input_path))
        out, err = tmp / "stdout", tmp / "stderr"

        # Untimed warm-up: byte-compiles the package and fills the page cache.
        # The first workload child is the one whose output the gate checks;
        # every later output must match it byte for byte.
        tally.record("--version", child_problems(spawn(["--version"], out, err), None, err))
        first = spawn(argv, out, err)
        problems = child_problems(first, None, err) or check(out.read_bytes())
        tally.record("gate", problems)
        reference = first.digest

        untraced_s = seconds / 3 if trace else seconds
        children, setups, refs = measure_children(
            argv, out, err, reference, tally, untraced_s, MIN_TRACED if trace else MIN_CHILDREN
        )
        record["children"] = [asdict(c) for c in children]
        record["setups"] = [asdict(c) for c in setups]
        record["references"] = [asdict(c) for c in refs]
        wall = [c.wall_s for c in children]
        if trace:
            body_s = statistics.median(c.wall_s - s.wall_s for c, s in zip(children, setups))
            print(f"untraced median of wall_s - setup_s {body_s:.4f} s (n={len(children)})")
            result, record["spans"] = measure_traced(
                traced, argv, tmp / "traced", reference, tally, seconds - untraced_s, body_s
            )
            for key, value in sorted(result.items()):
                print(f"{key:42s} {value:.6g}")
        else:
            ref_wall = [c.wall_s for c in refs]
            ref_cpu = [c.cpu_s for c in refs]
            setup_wall = [c.wall_s for c in setups]
            result = {
                # The command's yardstick is the mean of the reference jobs
                # before and after it; `--version` follows the one before.
                "wall_s": scaled(wall, [(a + b) / 2 for a, b in zip(ref_wall, ref_wall[1:])], REFERENCE_WALL_S),
                "cpu_s": scaled(
                    [c.cpu_s for c in children], [(a + b) / 2 for a, b in zip(ref_cpu, ref_cpu[1:])], REFERENCE_CPU_S
                ),
                "peak_rss_mb": statistics.median(c.peak_rss_mb for c in children),
                "setup_s": scaled(setup_wall, ref_wall[:-1], REFERENCE_WALL_S),
            }
            print(
                f"reference job median {statistics.median(ref_wall):.4f} s wall, "
                f"{statistics.median(ref_cpu):.4f} s cpu (n={len(refs)}); "
                f"scaled to {REFERENCE_WALL_S} s wall, {REFERENCE_CPU_S} s cpu:"
            )
            print(f"wall_s      {result['wall_s']:.4f} s scaled; raw median {statistics.median(wall):.4f} s, {tail_percentile(wall)}")
            print(f"cpu_s       {result['cpu_s']:.4f} s scaled; raw median {statistics.median(c.cpu_s for c in children):.4f} s")
            print(f"peak_rss_mb median {result['peak_rss_mb']:.1f} MiB")
            print(f"setup_s     {result['setup_s']:.4f} s scaled; raw median {statistics.median(setup_wall):.4f} s, {tail_percentile(setup_wall)}")

    failed = len(tally.failures)
    record.update(attempted=tally.attempted, failed=failed, failures=tally.failures)
    print(f"failed_share {failed}/{tally.attempted} = {failed / tally.attempted:g}")
    for line in tally.failures[:10]:
        print(f"failure {line}")
    path = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return {"metrics": result, "attempted": tally.attempted, "failed": failed}


def _terminate(signum, frame):
    # Raising here unwinds through spawn(), which kills and reaps the child,
    # and through the temporary directory's cleanup.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: run from a full checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import numpy
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(
        f"env python {platform.python_version()} numpy {numpy.__version__} "
        f"nproc {os.cpu_count()} affinity {len(os.sched_getaffinity(0))} {platform.platform()}"
    )
    WORK.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        outcome = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for m in wanted:
            # A layer that does not run on a workload reports 0.
            value = outcome["metrics"].get(m["name"], 0.0) if args.trace else outcome["metrics"][m["name"]]
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
