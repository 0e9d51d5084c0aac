"""Child-process side of the benchmark; imports the package under test.

    python bench/child.py setup  WORKLOAD SEED [--quick] [--spans FILE]
    python bench/child.py traced WORKLOAD SEED [--quick] --spans FILE
    python bench/child.py verify WORKLOAD SEED [--quick]

Each runs in the work directory with ``PYTHONPATH`` pointing at ``src``.
``setup`` generates the corpus with ``synth`` and ``write_pairs_files`` and
runs the workload's set-up CLI commands in-process; with ``--spans`` it
does so traced.  ``traced`` runs the timed CLI commands in-process through
``cli.main`` with timing wrappers installed around the package's public
functions and methods, then writes the spans.  ``verify`` runs the
untimed evaluate of the train workload, then checks the outputs and prints
one JSON line with the problems found, the test-split quality and the
library versions.
"""

import argparse
import csv
import importlib
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans as spanlib  # noqa: E402
import workloads  # noqa: E402

def _cli_main(argv) -> int:
    from causalpairs import cli

    return cli.main(list(argv))


def cmd_setup(w: workloads.Workload, seed: int) -> int:
    from causalpairs import dataset, synth

    instances = synth.generate_benchmark(count=w.count, n_obs_range=w.n_obs, seed=seed)
    if w.categorical_every:
        instances = [
            synth.to_categorical(inst, 8) if i % w.categorical_every == 0 else inst
            for i, inst in enumerate(instances)
        ]
    dataset.write_pairs_files(instances, "pairs.csv", "info.csv", "target.csv")
    steps = [
        ("ingest", *workloads.CORPUS, "--seed", str(seed),
         "--train-frac", str(w.train_frac), "--val-frac", str(w.val_frac)),
        *w.setup,
    ]
    for argv in steps:
        code = _cli_main(argv)
        if code != 0:
            print(f"set-up step {argv[0]} exited {code}", file=sys.stderr)
            return code
    return 0


# ---------------------------------------------------------------------------
# Tracing.


def _conv_forward_flop(args, kwargs, result):
    layer, x = args[0], args[1]
    n, c, h, w = x.shape
    return {"flop": 2 * n * layer.out_channels * c * 9 * h * w}


def _conv_backward_flop(args, kwargs, result):
    # kernel gradient and input gradient: two GEMMs the size of the forward one
    layer, g = args[0], args[1]
    n, k, h, w = g.shape
    return {"flop": 4 * n * k * layer.in_channels * 9 * h * w}


def _train_images(args, kwargs, result):
    train, cfg = args[0], args[3]
    return {"images": len(train) * cfg.epochs}


def _tree_nodes(args, kwargs, result):
    return {"nodes": result.n_nodes}


def install(tracer: spanlib.Tracer, extracted: list) -> None:
    """Wrap the layer boundaries, and every name a package module bound to them."""
    from causalpairs import boosting, cli, cnn, dataset, features, nnet, raster, synth

    # causalpairs/__init__.py re-exports the function `ensemble`, which
    # shadows the module as a package attribute
    ensemble = importlib.import_module("causalpairs.ensemble")

    def remember(args, kwargs, result):
        extracted.append(args[0])
        return {}

    targets = [
        ("nnet.conv.forward", nnet.Conv, "forward", _conv_forward_flop),
        ("nnet.conv.backward", nnet.Conv, "backward", _conv_backward_flop),
        ("nnet.pool.forward", nnet.MaxPool, "forward", None),
        ("nnet.pool.backward", nnet.MaxPool, "backward", None),
        ("nnet.relu.forward", nnet.Relu, "forward", None),
        ("nnet.relu.backward", nnet.Relu, "backward", None),
        ("nnet.dense.forward", nnet.Dense, "forward", None),
        ("nnet.dense.backward", nnet.Dense, "backward", None),
        ("nnet.sgd_step", nnet, "sgd_step", None),
        ("cnn.train_cnn", cnn, "train_cnn", _train_images),
        ("cnn.predict_batch", cnn, "predict_batch", None),
        ("boosting.best_split", boosting, "best_split", None),
        ("boosting.fit_tree", boosting, "fit_tree", _tree_nodes),
        ("boosting.gbc_fit", boosting, "gbc_fit", None),
        ("boosting.apply", boosting.RegressionTree, "apply", None),
        ("boosting.gbc_predict_batch", boosting, "gbc_predict_batch", None),
        ("features.extract", features, "extract_features", remember),
        ("dataset.read_pairs_files", dataset, "read_pairs_files", None),
        ("dataset.parse_pairs", dataset, "parse_pairs", None),
        ("raster.rasterize", raster, "rasterize", None),
        ("raster.read_image", raster, "read_image", None),
        ("raster.write_image", raster, "write_image", None),
        ("synth.generate_benchmark", synth, "generate_benchmark", None),
        ("ensemble.tune_weight", ensemble, "tune_weight", None),
        ("ensemble.auc", ensemble, "auc_bidirectional_parts", None),
    ]
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "causalpairs"]
    for name, owner, attr, attrs in targets:
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, attrs)
        setattr(owner, attr, wrapped)
        # names bound at import time, e.g. cli.tune_weight, cli.read_pairs_files
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _write_spans(path, tracer, **extra) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"spans": [s.to_dict() for s in tracer.spans], **extra}, f)


def cmd_traced_setup(w, seed, spans_path) -> int:
    tracer = spanlib.Tracer()
    install(tracer, [])
    code = cmd_setup(w, seed)
    _write_spans(spans_path, tracer)
    return code


def cmd_traced(w, seed, spans_path) -> int:
    tracer = spanlib.Tracer()
    extracted = []
    install(tracer, extracted)
    for argv in w.timed:
        code = _cli_main(argv)
        if code != 0:
            break
    # serial pass over the same inputs the CLI thread pool extracted; the
    # generator subtracts it from this child's wall time
    from causalpairs import features

    original = features.extract_features.__wrapped__
    t0 = time.perf_counter()
    for inst in extracted:
        original(inst)
    _write_spans(spans_path, tracer, serial_extract_s=time.perf_counter() - t0)
    return code


# ---------------------------------------------------------------------------
# Output checks.


def _env() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def check_outputs(w: workloads.Workload) -> tuple[list, dict]:
    """Problems found in the run's outputs, and the report's key=value pairs."""
    from causalpairs import boosting, cnn

    problems = []
    for path in w.models:
        loader = cnn.load_model if path.endswith("cnn.model") else boosting.load_gbc
        try:
            loader(path)
        except Exception as exc:  # any failure to load is a failed operation
            problems.append(f"{path} does not load: {exc!r}")
    test_ids = Path("manifests/test.ids").read_text().split()
    with open("reports/predictions.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    if [r["id"] for r in rows] != test_ids:
        problems.append("predictions.csv rows do not match the test ids")
    for r in rows:
        total = float(r["p1"]) + float(r["p0"]) + float(r["p_neg1"])
        if abs(total - 1.0) > 1e-9:
            problems.append(f"probabilities of {r['id']} sum to {total!r}")
            break
    report = dict(
        line.split("=", 1) for line in Path("reports/report.txt").read_text().split()
    )
    return problems, report


def cmd_verify(w: workloads.Workload) -> int:
    problems = []
    if w.verify is not None:
        code = _cli_main(w.verify)
        if code != 0:
            problems.append(f"untimed evaluate exited {code}")
    report = {}
    if not problems:
        found, report = check_outputs(w)
        problems.extend(found)
    # deterministic for a given seed, so a conv or training change that
    # alters the arithmetic shows here even while the CNN's test quality
    # stays at chance
    first_loss = None
    if "reports/cnn_train_log.csv" in w.artifacts:
        with open("reports/cnn_train_log.csv", newline="") as f:
            first_loss = float(next(csv.DictReader(f))["train_loss"])
    print(json.dumps({
        "problems": problems,
        "cnn_first_epoch_train_loss": first_loss,
        "test_auc": float(report.get("auc", "nan")),
        "test_accuracy": float(report.get("accuracy", "nan")),
        "env": _env(),
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("command", choices=("setup", "traced", "verify"))
    p.add_argument("workload", choices=workloads.NAMES)
    p.add_argument("seed", type=int)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)
    w = workloads.build(args.workload, args.seed, args.quick)
    if args.command == "setup":
        if args.spans:
            return cmd_traced_setup(w, args.seed, args.spans)
        return cmd_setup(w, args.seed)
    if args.command == "traced":
        return cmd_traced(w, args.seed, args.spans)
    return cmd_verify(w)


if __name__ == "__main__":
    sys.exit(main())
