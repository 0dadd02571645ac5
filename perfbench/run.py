"""abring benchmark driver.

Runs one workload for a fixed time, one operation at a time, each operation
as child processes of this driver (no threads, no pools), and checks every
operation's outputs.  Run it from the root of a source checkout::

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced operations and reports the per-layer metrics
of the traced ones.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
``--out FILE`` also appends the full record, with run facts and samples,
to FILE for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import layertrace
from workloads import WORKLOADS, CheckFailed, Workload, make_inputs

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
MIN_OPS = 3
HARD_LIMIT_S = 150.0  # stop before the 180 s budget of one run

END_TO_END_UNITS = {
    "wall_s": "s",
    "wall_tail_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Traced functions reported with calls and self time, by span name.
TRACED_CALLS_AND_SELF = (
    "ring.amplitude_t0",
    "ring.amplitude_t1",
    "ring.diagram_components",
    "transport.transmission",
    "transport.sweep_phase",
    "transport.visibility",
    "transport.sweep_lambda",
    "transport.dot_arm_rms",
    "transport.thermal_transmission",
    "oracle.exact_amplitude",
    "oracle.ResolventModel.amplitude",
    "oracle.energy_resolved_transmission",
    "oracle.second_order_amplitude",
    "oracle.truncation_residual",
    "smatrix.TwoParticleSMatrix.at",
    "smatrix.rigidity_report",
    "config.load_config",
    "svgplot.write_line_plot",
)
# Traced functions reported with self time only.
TRACED_SELF_ONLY = (
    "verify.calibration_suite",
    "verify.second_order_suite",
    "verify.truncation_suite",
    "verify.diagram_sum_suite",
    "verify.rigidity_suite",
    "cli.cmd_sweep_phase",
    "cli.cmd_sweep_lambda",
    "cli.cmd_verify",
    "cli.cmd_rigidity",
)
PER_LAYER_UNITS = {
    **{f"{name}.{kind}": unit for name in TRACED_CALLS_AND_SELF for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{name}.self_s": "s" for name in TRACED_SELF_ONLY},
    "transport.transmission.points": "count",
    "oracle.solves": "count",
    "smatrix.family_build.calls": "count",
    "smatrix.family_build.self_s": "s",
    "smatrix.us_per_matrix": "us",
    "verify.suites_passed": "count",
    "verify.suites_run": "count",
    "svgplot.write_line_plot.points": "count",
    "svgplot.write_line_plot.bytes": "bytes",
    "cli.csv_bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], root: Path, env: dict, out_path: Path, timeout: float):
    """Run one child process; return (exit code, wall seconds, peak RSS MiB)."""
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.01))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except OpTimeout:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    # Reaped by wait4 above, which also gives the rusage; tell Popen so.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def step_command(kind: str, args: list[str], spans: Path | None) -> list[str]:
    if spans is not None:
        return [sys.executable, str(HERE / "layertrace.py"), str(spans), kind, *args]
    if kind == "cli":
        return [sys.executable, "-m", "abring", *args]
    return [sys.executable, str(HERE / "thermal_op.py"), *args]


def setup_time(root: Path, env: dict, work: Path) -> float:
    """Wall time of a fresh interpreter importing abring.cli."""
    code, wall, _ = run_child([sys.executable, "-c", "import abring.cli"], root, env, work / "setup.out", HARD_LIMIT_S)
    if code != 0:
        raise CheckFailed(f"'import abring.cli' exited with {code}: {(work / 'setup.err').read_text()[-500:]}")
    return wall


def run_operation(wl: Workload, inputs: dict, root: Path, env: dict, op_dir: Path, traced: bool, timeout: float) -> dict:
    """One operation: its child processes in order, then its output check."""
    op_dir.mkdir(parents=True)
    record = {"wall_s": 0.0, "peak_rss_mb": 0.0, "error": None, "layers": None}
    dumps = []
    for i, (kind, args) in enumerate(wl.steps(inputs, op_dir)):
        spans = op_dir / f"spans{i}.json" if traced else None
        code, wall, rss = run_child(step_command(kind, args, spans), root, env, op_dir / f"step{i}.out", timeout)
        record["wall_s"] += wall
        record["peak_rss_mb"] = max(record["peak_rss_mb"], rss)
        timeout -= wall
        if code != 0:
            tail = (op_dir / f"step{i}.err").read_text(errors="replace")[-500:]
            record["error"] = f"step {i} ({kind} {' '.join(args[:1])}) exited with {code}: {tail}"
            return record
        if traced:
            with open(spans, encoding="utf-8") as fh:
                dumps.append(layertrace.summarize(json.load(fh)))
    try:
        wl.check(inputs, op_dir)
    except (CheckFailed, OSError, ValueError) as exc:
        record["error"] = f"output check: {exc}"
    if traced:
        record["layers"] = layer_metrics(dumps, op_dir)
    return record


def layer_metrics(dumps: list[dict], op_dir: Path) -> dict[str, float]:
    """Per-layer metrics of one traced operation, summed over its processes."""
    total: dict[str, float] = {}
    for dump in dumps:
        for key, value in dump.items():
            total[key] = total.get(key, 0) + value
    out = {name: total.get(name, 0) for name in PER_LAYER_UNITS}
    out["smatrix.family_build.calls"] = sum(total.get(f"smatrix.{f}.calls", 0) for f in layertrace.FAMILY_BUILDERS)
    out["smatrix.family_build.self_s"] = sum(total.get(f"smatrix.{f}.self_s", 0.0) for f in layertrace.FAMILY_BUILDERS)
    at_calls = total.get("smatrix.TwoParticleSMatrix.at.calls", 0)
    at_self = total.get("smatrix.TwoParticleSMatrix.at.self_s", 0.0)
    out["smatrix.us_per_matrix"] = 1e6 * at_self / at_calls if at_calls else 0.0
    out["cli.csv_bytes"] = sum(p.stat().st_size for p in op_dir.rglob("*.csv"))
    return out


def tail(values: list[float]) -> tuple[float, int]:
    """The highest order statistic with at least ten samples above it, but
    never below the median; also returns how many samples lie above it.

    With twenty samples or fewer no order statistic above the median has ten
    samples beyond it, so the median is returned.
    """
    ordered = sorted(values)
    median = statistics.median(ordered)
    if len(ordered) > 10 and ordered[-11] > median:
        return ordered[-11], 10
    return median, sum(v > median for v in ordered)


def run_facts(root: Path, wl: Workload, inputs: dict, seed: int) -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "cpu_model": "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
        "workload": wl.name,
        "items_per_op": wl.items(inputs),
        "inputs": inputs,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown"
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return facts


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's .git directory, read without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "abring").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def measure(wl: Workload, seed: int, seconds: float, traced_mode: bool, root: Path) -> dict:
    inputs = make_inputs(wl, seed)
    env = child_env(root)
    work = root / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        wl.write_files(inputs, work)
        started = time.perf_counter()
        setup_time(root, env, work)  # warm-up: byte-compiles a fresh checkout
        setup: list[float] = []
        ops: list[dict] = []
        loop_start = time.perf_counter()
        while True:
            # Set-up samples are spread over the run, like the operations.
            while len(setup) < SETUP_SAMPLES and time.perf_counter() - loop_start >= len(setup) * seconds / SETUP_SAMPLES:
                setup.append(setup_time(root, env, work))
            traced = traced_mode and len(ops) % 2 == 1
            op_dir = work / f"op{len(ops)}"
            op_start = time.perf_counter()
            try:
                op = run_operation(wl, inputs, root, env, op_dir, traced, HARD_LIMIT_S - (op_start - started))
            except OpTimeout:
                op = {"wall_s": time.perf_counter() - op_start, "peak_rss_mb": 0.0, "layers": None,
                      "error": f"operation passed the {HARD_LIMIT_S:g} s limit"}
                ops.append({**op, "traced": traced})
                break
            op["traced"] = traced
            op["cycle_s"] = time.perf_counter() - op_start
            ops.append(op)
            shutil.rmtree(op_dir)
            now = time.perf_counter()
            next_cycle = statistics.median(o["cycle_s"] for o in ops)
            if len(ops) >= MIN_OPS and now + next_cycle > loop_start + seconds:
                break
            if now + next_cycle > started + HARD_LIMIT_S:
                break
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_time(root, env, work))
    finally:
        signal.signal(signal.SIGALRM, previous_handler)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    return summarize_run(wl, inputs, seed, setup, ops, traced_mode, root)


def summarize_run(wl: Workload, inputs: dict, seed: int, setup: list[float], ops: list[dict], traced_mode: bool, root: Path) -> dict:
    plain = [o for o in ops if not o["traced"]]
    walls = [o["wall_s"] for o in plain]
    wall = statistics.median(walls)
    tail_value, beyond = tail(walls)
    items = wl.items(inputs)
    failures = [o["error"] for o in ops if o["error"]]
    end_to_end = {
        "wall_s": wall,
        "wall_tail_s": tail_value,
        "items_per_s": items * len(walls) / sum(walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in plain),
    }
    record = {
        "workload": wl.name,
        "seed": seed,
        "trace": int(traced_mode),
        "facts": run_facts(root, wl, inputs, seed),
        "samples": {
            "operations": len(plain),
            "traced_operations": len(ops) - len(plain),
            "tail_samples_beyond": beyond,
            "setup_s": setup,
            "wall_s": walls,
            "peak_rss_mb": [o["peak_rss_mb"] for o in plain],
        },
        "end_to_end": end_to_end,
        "failed_ratio": len(failures) / len(ops),
        "failures": failures,
        "attempted": len(ops),
        "failed": len(failures),
    }
    if traced_mode:
        traced = [o for o in ops if o["traced"] and o["layers"] is not None]
        layers = {}
        for name in PER_LAYER_UNITS:
            values = [o["layers"][name] for o in traced]
            layers[name] = statistics.median(values) if values else 0.0
        traced_walls = [o["wall_s"] for o in ops if o["traced"]]
        layers["trace.overhead_s"] = statistics.median(traced_walls) - wall if traced_walls else 0.0
        record["per_layer"] = layers
        record["samples"]["traced_wall_s"] = traced_walls
    return record


def report(record: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    s = record["samples"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print(f"  operations {record['attempted']} ({s['traced_operations']} traced), failed {record['failed']}")
    for name, value in record["end_to_end"].items():
        print(f"  {name:<14} {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"  {'failed_ratio':<14} {record['failed_ratio']:.6g} (failed/attempted)")
    print(f"  tail: {s['tail_samples_beyond']} samples beyond it of {s['operations']}")
    for failure in record["failures"][:3]:
        print(f"  FAILED: {failure}")
    print("facts " + json.dumps(record["facts"], sort_keys=True))
    if record["trace"]:
        chosen, units = record["per_layer"], PER_LAYER_UNITS
    else:
        chosen, units = record["end_to_end"], END_TO_END_UNITS
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": chosen[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE", help="append the full JSON record to FILE")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "abring" / "__init__.py").is_file():
        print(f"perfbench: no abring sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    try:
        record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), root)
    except CheckFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    report(record)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
