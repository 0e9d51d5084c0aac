"""Benchmark of the causalpairs CLI: two workloads, timed from outside.

    python3 bench/run.py --workload train --seed 1 --seconds 35 --trace 0

This process is the single client of a closed loop: it launches each CLI
command as its own child process and starts the next only after that
child has exited.  It imports neither numpy nor the package, so its own
footprint stays out of the children's peak RSS (``wait4`` can report the
parent's footprint for a child it spawned).

A workload's timed operation is one or more CLI commands run one after
another; its wall time is their sum and its peak RSS their maximum.
``--trace 0`` sets the workload up three times (``setup_s`` is the
median), then runs the timed operation again and again while another
one fits within ``--seconds``, at least twice, and reports the
end-to-end metrics as medians over those operations.  ``--trace 1`` sets
up once under tracing, runs the timed operation twice untraced and,
alternating with those, twice in-process under tracing, and reports the
per-layer metrics.  Both modes check the outputs; the last line printed
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record, with the environment and every sample,
is written under ``.bench_work/results/``.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Span, layer_stats  # noqa: E402

LAUNCH = "import sys; from causalpairs.cli import main; sys.exit(main(sys.argv[1:]))"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CPB_THREADS")
SETUP_REPS = 3
MIN_TIMED = 2  # a median needs more than one sample, however long an operation takes
TRACED_REPS = 2
IMPORT_REPS = 3
# A run must end within 180 s; stop starting timed operations well before.
BUDGET_S = 140.0
CHILD_TIMEOUT_S = 160.0

class BenchError(Exception):
    """The benchmark cannot produce a result (for example, set-up failed)."""


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float


class Runner:
    """Launches children in the work directory, one at a time."""

    def __init__(self, work: Path, logs: Path, env: dict):
        self.work = work
        self.logs = logs
        self.env = env
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def clear_work(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def run(self, argv, label: str) -> Child:
        """Run argv to completion; wall time and peak RSS come from outside."""
        with open(self.logs / f"{label}.log", "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.work, env=self.env, stdout=log, stderr=subprocess.STDOUT
            )
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0)

    def run_op(self, w, label: str) -> Child:
        """The workload's timed commands in order; stops at the first failure."""
        total, rss, code = 0.0, 0.0, 0
        for argv in w.timed:
            c = self.run([sys.executable, "-c", LAUNCH, *argv], label)
            total += c.wall_s
            rss = max(rss, c.rss_mb)
            code = c.code
            if code != 0:
                break
        return Child(code, total, rss)

    def child_argv(self, command: str, w_name: str, seed: int, quick: bool, *extra) -> list:
        argv = [sys.executable, str(HERE / "child.py"), command, w_name, str(seed), *extra]
        return argv + (["--quick"] if quick else [])

    def verify(self, w_name, seed, quick) -> dict:
        argv = self.child_argv("verify", w_name, seed, quick)
        out = subprocess.run(argv, cwd=self.work, env=self.env, capture_output=True,
                             text=True, timeout=CHILD_TIMEOUT_S)
        if out.returncode != 0:
            raise BenchError(f"output check crashed:\n{out.stderr[-2000:]}")
        return json.loads(out.stdout.strip().splitlines()[-1])


def digest_files(root: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        path = root / name
        h.update(name.encode() + b"\0")
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


def digest_tree(root: Path) -> str:
    files = sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())
    return digest_files(root, files)


def split_sizes(work: Path) -> tuple:
    return tuple(
        len((work / "manifests" / f"{part}.ids").read_text().split())
        for part in ("train", "val", "test")
    )


def tail(values):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(values, n=100)[p - 1]


def set_up(w, args, runner: Runner, *extra) -> Child:
    runner.clear_work()
    c = runner.run(runner.child_argv("setup", w.name, args.seed, args.quick, *extra), "setup")
    if c.code != 0:
        raise BenchError(f"set-up exited {c.code}; see {runner.logs}/setup.log")
    return c


def run_plain(w, args, runner: Runner, record: dict) -> dict:
    setup_walls, setup_ref = [], None
    for i in range(SETUP_REPS):
        c = set_up(w, args, runner)
        digest = digest_tree(runner.work)
        setup_ref = setup_ref or digest
        if digest != setup_ref:
            record["problems"].append(f"set-up {i} output differs from set-up 0")
        setup_walls.append(c.wall_s)

    ops, ref = [], None
    measure_start = time.perf_counter()
    while True:
        c = runner.run_op(w, "timed")
        digest = digest_files(runner.work, w.artifacts)
        ref = ref or digest
        ops.append((c, digest))
        typical = statistics.median(op.wall_s for op, _ in ops)
        measured = time.perf_counter() - measure_start
        if len(ops) >= MIN_TIMED and measured + typical > args.seconds:
            break
        if runner.elapsed() + 2 * c.wall_s > BUDGET_S:
            record["notes"].append(f"stopped after {len(ops)} runs to stay in budget")
            break

    check = runner.verify(w.name, args.seed, args.quick)
    record["env"].update(check["env"])
    record["problems"].extend(check["problems"])
    if check["cnn_first_epoch_train_loss"] is not None:
        record["cnn_first_epoch_train_loss"] = check["cnn_first_epoch_train_loss"]
    # the check saw the outputs of the last operation, and so of every
    # operation whose artifacts are byte-identical to them
    ok = [
        c for c, digest in ops
        if c.code == 0 and digest == ref and not (check["problems"] and digest == ops[-1][1])
    ]
    record["attempted"] = len(ops)
    record["failed"] = len(ops) - len(ok)
    if any(c.code != 0 for c, _ in ops):
        record["problems"].append("a timed operation exited non-zero")
    if any(digest != ref for _, digest in ops):
        record["problems"].append("artifacts differ from the first run")
    if not ok or check["test_auc"] != check["test_auc"]:
        raise BenchError("no timed operation succeeded: " + "; ".join(record["problems"]))

    walls = [c.wall_s for c in ok]
    rss = [c.rss_mb for c in ok]
    wall = statistics.median(walls)
    n_items = w.items(*split_sizes(runner.work))
    record["samples"] = {"wall_s": walls, "peak_rss_mb": rss, "setup_s": setup_walls}
    record["items"] = {"count": n_items, "unit": w.item_unit}
    return {
        "wall_s": wall,
        "items_per_s": n_items / wall,
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup_walls),
        "test_auc": check["test_auc"],
        "test_accuracy": check["test_accuracy"],
    }


def _load_stats(path: Path):
    data = json.loads(path.read_text())
    return layer_stats([Span(**d) for d in data["spans"]]), data


def run_traced(w, args, runner: Runner, record: dict) -> dict:
    setup_spans = runner.logs / "setup.spans.json"
    set_up(w, args, runner, "--spans", str(setup_spans))
    setup_stats, _ = _load_stats(setup_spans)

    # untraced and traced runs alternate, so that slow spells of a shared
    # machine fall on both sides of trace.overhead_s
    ops, ref = [], None
    untraced_walls, traced_walls, per_run = [], [], []
    for i in range(TRACED_REPS):
        c = runner.run_op(w, "timed")
        digest = digest_files(runner.work, w.artifacts)
        ref = ref or digest
        ops.append((c, digest, True))
        untraced_walls.append(c.wall_s)

        spans_path = runner.logs / f"traced{i}.spans.json"
        c = runner.run(runner.child_argv("traced", w.name, args.seed, args.quick,
                                         "--spans", str(spans_path)), "traced")
        digest = digest_files(runner.work, w.artifacts)
        if c.code != 0 or not spans_path.is_file():
            ops.append((c, digest, False))
            continue
        stats, data = _load_stats(spans_path)
        m = layers.layer_metrics(stats, setup_stats, data["serial_extract_s"])
        counts_repeat = not per_run or all(
            m[k] == per_run[0][k] for k in layers.EXACT_COUNTS
        )
        if not counts_repeat:
            record["problems"].append("exact counts differ between traced runs")
        ops.append((c, digest, counts_repeat))
        per_run.append(m)
        # the serial extraction pass runs after cli.main and is not traced work
        traced_walls.append(c.wall_s - data["serial_extract_s"])

    import_walls = [
        runner.run([sys.executable, "-c", "import causalpairs.cli"], "import").wall_s
        for _ in range(IMPORT_REPS)
    ]
    check = runner.verify(w.name, args.seed, args.quick)
    record["env"].update(check["env"])
    record["problems"].extend(check["problems"])
    failed = sum(
        1 for c, digest, counts_ok in ops
        if c.code != 0 or digest != ref or not counts_ok or check["problems"]
    )
    record["attempted"], record["failed"] = len(ops), failed
    if any(digest != ref for _, digest, _ in ops):
        record["problems"].append("artifacts differ from the first untraced run")
    if not per_run:
        raise BenchError("no traced run succeeded; see " + str(runner.logs))

    metrics = {
        k: per_run[0][k] if k in layers.EXACT_COUNTS else statistics.median(m[k] for m in per_run)
        for k in per_run[0]
    }
    metrics["cli.import_s"] = statistics.median(import_walls)
    metrics["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(untraced_walls)
    )
    record["samples"] = {
        "untraced_wall_s": untraced_walls,
        "traced_wall_s": traced_walls,
        "import_s": import_walls,
        "per_traced_run": per_run,
    }
    return metrics


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def code_digest() -> str:
    """Digest of the package and benchmark sources; names "the same code"."""
    files = sorted((ROOT / "src" / "causalpairs").glob("*.py")) + sorted(HERE.glob("*.py"))
    return digest_files(ROOT, [str(f.relative_to(ROOT)) for f in files])


def compare_counts(previous: Path, record: dict) -> None:
    """Exact counts must repeat across invocations on the same code and seed."""
    try:
        old = json.loads(previous.read_text())
    except (OSError, ValueError):
        return
    if old.get("code_digest") != record["code_digest"]:
        return
    differ = [k for k in layers.EXACT_COUNTS if old["metrics"][k] != record["metrics"][k]]
    if differ:
        record["problems"].append(f"exact counts differ from {previous.name}: {differ}")


def child_env(nproc: int) -> dict:
    env = dict(os.environ)
    for key in THREAD_VARS:
        env[key] = str(nproc)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def report(metrics: dict, units: dict, record: dict) -> None:
    samples = record.get("samples", {})
    for name, value in metrics.items():
        line = f"{name:32s} {value:14.6g} {units[name]}"
        series = samples.get(name)
        if isinstance(series, list):
            t = tail(series)
            line += f"   median of {len(series)}"
            line += f", p{t[0]} {t[1]:.6g}" if t else ", no tail percentile below 11 samples"
        print(line)
    share = record["failed"] / record["attempted"]
    print(f"{'failed_share':32s} {share:14.6g} share   "
          f"({record['failed']} of {record['attempted']} operations failed)")
    for problem in record["problems"]:
        print(f"problem: {problem}")
    if "cnn_first_epoch_train_loss" in record:
        print(f"cnn first-epoch train loss {record['cnn_first_epoch_train_loss']!r}")
    for note in record["notes"]:
        print(f"note: {note}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="causalpairs CLI benchmark")
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="tiny sizes, for a smoke test of the benchmark itself")
    args = p.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "causalpairs" / "cli.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'causalpairs'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    w = workloads.build(args.workload, args.seed, args.quick)
    nproc = len(os.sched_getaffinity(0))
    base = ROOT / ".bench_work"
    run_dir = base / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    runner = Runner(run_dir / "work", run_dir / "logs", child_env(nproc))
    runner.logs.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "commit": git_commit(),
        "code_digest": code_digest(),
        "timed_commands": [["causalpairs", *argv] for argv in w.timed],
        "env": {
            "thread_env_seen": {k: os.environ.get(k) for k in THREAD_VARS},
            "thread_env_used": {k: runner.env[k] for k in THREAD_VARS},
        },
        "problems": [],
        "notes": [],
    }
    try:
        if args.trace:
            metrics = run_traced(w, args, runner, record)
        else:
            metrics = run_plain(w, args, runner, record)
    except BenchError as exc:
        # the logs stay for diagnosis; the work directory goes
        shutil.rmtree(run_dir / "work", ignore_errors=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BaseException:
        shutil.rmtree(run_dir, ignore_errors=True)
        raise
    shutil.rmtree(run_dir, ignore_errors=True)
    if set(metrics) != set(units):
        print(f"error: measured metrics {sorted(metrics)} differ from those "
              f"BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
        return 1

    record["metrics"] = metrics
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    size = "-quick" if args.quick else ""
    out = results / f"{w.name}-seed{args.seed}-trace{args.trace}{size}.json"
    if args.trace:
        compare_counts(out, record)
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {w.name}  seed {args.seed}  commit {record['commit']}")
    print(f"environment {json.dumps(record['env'])}")
    report(metrics, units, record)
    print(f"record {out.relative_to(ROOT)}")
    correct = record["failed"] == 0 and not record["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
