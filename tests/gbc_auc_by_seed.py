"""GBC-only test quality per seed, on the benchmark workloads' configurations.

    PYTHONPATH=src python3 tests/gbc_auc_by_seed.py --seeds 1-20

A script, not a test module: pytest does not collect it.  For each
workload in ``bench/workloads.py`` and each seed it builds the workload's
corpus as ``bench/child.py setup`` does, then runs the CLI in-process in a
temporary directory: ``ingest`` with the workload's split, the workload's
own ``train gbc`` command, and ``evaluate`` of that model alone on the test
split.  It prints the test AUC and accuracy per workload and seed, with
the wall time of that seed's ``train gbc`` command, then each workload's
mean AUC.  Run it with ``PYTHONPATH`` pointing at another
tree's ``src`` to compare two versions of the package on the same inputs.
"""

import argparse
import contextlib
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402

from causalpairs import cli, dataset, synth  # noqa: E402


def quality(name: str, seed: int, work: Path) -> tuple[float, float, float]:
    """Test AUC and accuracy of the workload's GBC alone at seed, and its train gbc seconds."""
    w = workloads.build(name, seed)
    instances = synth.generate_benchmark(count=w.count, n_obs_range=w.n_obs, seed=seed)
    if w.categorical_every:
        instances = [
            synth.to_categorical(inst, 8) if i % w.categorical_every == 0 else inst
            for i, inst in enumerate(instances)
        ]
    corpus = [str(work / f) for f in ("pairs.csv", "info.csv", "target.csv")]
    dataset.write_pairs_files(instances, *corpus)
    flags = ["--pairs", corpus[0], "--info", corpus[1], "--target", corpus[2], "--out", str(work)]
    train_gbc = next(argv for argv in w.timed + w.setup if argv[:2] == ("train", "gbc"))
    # the workload's own flags, with its corpus and --out replaced by this run's
    own = list(train_gbc[2:])
    for flag in ("--pairs", "--info", "--target", "--out"):
        i = own.index(flag)
        del own[i:i + 2]
    steps = [
        ["ingest", *flags, "--seed", str(seed),
         "--train-frac", str(w.train_frac), "--val-frac", str(w.val_frac)],
        ["train", "gbc", *flags, *own],
        ["evaluate", *flags, "--model", str(work / "models" / "gbc.model"), "--split", "test"],
    ]
    for argv in steps:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{name} seed {seed}: {argv[0]} failed")
        if argv[0] == "train":
            train_s = time.perf_counter() - start
    report = dict(line.split("=", 1) for line in (work / "reports" / "report.txt").read_text().split())
    return float(report["auc"]), float(report["accuracy"]), train_s


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-20", help="a seed or an inclusive range, e.g. 3 or 1-20")
    p.add_argument("--workloads", default=",".join(workloads.NAMES))
    args = p.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    first, last = int(first), int(last or first)
    for name in args.workloads.split(","):
        aucs = []
        for seed in range(first, last + 1):
            with tempfile.TemporaryDirectory() as tmp:
                auc, acc, train_s = quality(name, seed, Path(tmp))
            aucs.append(auc)
            print(
                f"{name} seed {seed}: test_auc={auc:.6f} test_accuracy={acc:.6f}"
                f" train_gbc_s={train_s:.3f}",
                flush=True,
            )
        print(f"{name} mean test_auc={statistics.mean(aucs):.6f} over {len(aucs)} seeds", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
