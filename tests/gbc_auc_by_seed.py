"""Test quality per seed of the GBC alone and of the tuned CNN+GBC ensemble,
on the benchmark workloads' configurations.

    PYTHONPATH=src python3 tests/gbc_auc_by_seed.py --seeds 1-20

A script, not a test module: pytest does not collect it.  For each
workload in ``bench/workloads.py`` and each seed it builds the workload's
corpus as ``bench/child.py setup`` does, then runs the CLI in-process in a
temporary directory: ``ingest`` with the workload's split, the workload's
own ``train gbc`` and ``train cnn`` commands, ``evaluate`` of the GBC
alone on the test split, and ``evaluate --weight tune`` of the two
models.  It prints, per workload and seed, the GBC's test AUC and
accuracy with the wall time of its ``train gbc`` command, then the tuned
weight ``w`` of the CNN and the ensemble's test AUC and accuracy; then
each workload's mean AUCs.  Run it with ``PYTHONPATH`` pointing at
another tree's ``src`` to compare two versions of the package on the same
inputs.
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


def _own_flags(w, kind: str) -> list:
    """The workload's own train flags for kind, without its corpus and --out."""
    argv = next(argv for argv in w.timed + w.setup if argv[:2] == ("train", kind))
    own = list(argv[2:])
    for flag in ("--pairs", "--info", "--target", "--out"):
        i = own.index(flag)
        del own[i:i + 2]
    return own


def quality(name: str, seed: int, work: Path) -> dict:
    """Test figures of the workload's GBC alone and of its tuned ensemble at seed."""
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
    models = [str(work / "models" / f) for f in ("cnn.model", "gbc.model")]
    figures = {}
    steps = [
        ("ingest", ["ingest", *flags, "--seed", str(seed),
                    "--train-frac", str(w.train_frac), "--val-frac", str(w.val_frac)]),
        ("train_gbc", ["train", "gbc", *flags, *_own_flags(w, "gbc")]),
        ("train_cnn", ["train", "cnn", *flags, *_own_flags(w, "cnn")]),
        ("gbc", ["evaluate", *flags, "--model", models[1], "--split", "test"]),
        ("tuned", ["evaluate", *flags, "--model", models[0], "--model2", models[1],
                   "--weight", "tune", "--split", "test"]),
    ]
    for step, argv in steps:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{name} seed {seed}: {' '.join(argv[:2])} failed")
        figures[f"{step}_s"] = time.perf_counter() - start
        if argv[0] == "evaluate":
            report = (work / "reports" / "report.txt").read_text().split()
            figures[step] = {k: float(v) for k, v in (line.split("=", 1) for line in report)}
    return figures


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-20", help="a seed or an inclusive range, e.g. 3 or 1-20")
    p.add_argument("--workloads", default=",".join(workloads.NAMES))
    args = p.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    first, last = int(first), int(last or first)
    for name in args.workloads.split(","):
        gbc_aucs, tuned_aucs = [], []
        for seed in range(first, last + 1):
            with tempfile.TemporaryDirectory() as tmp:
                f = quality(name, seed, Path(tmp))
            gbc, tuned = f["gbc"], f["tuned"]
            gbc_aucs.append(gbc["auc"])
            tuned_aucs.append(tuned["auc"])
            print(
                f"{name} seed {seed}: test_auc={gbc['auc']:.6f} test_accuracy={gbc['accuracy']:.6f}"
                f" train_gbc_s={f['train_gbc_s']:.3f} | tuned w={tuned['w']:.1f}"
                f" test_auc={tuned['auc']:.6f} test_accuracy={tuned['accuracy']:.6f}",
                flush=True,
            )
        print(
            f"{name} mean test_auc={statistics.mean(gbc_aucs):.6f}"
            f" tuned {statistics.mean(tuned_aucs):.6f} over {len(gbc_aucs)} seeds",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
