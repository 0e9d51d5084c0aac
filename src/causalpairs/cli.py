"""Command-line pipelines: generate, ingest, rasterize, train, evaluate,
sparse-sweep.

Output directory layout (created under --out):
    manifests/   train.ids / val.ids / test.ids
    images/      <id>.pgm scatter plots
    models/      cnn.model / gbc.model
    reports/     predictions.csv, report.txt, train logs, sparse_sweep.csv
Each command writes a ``<command>.run.meta`` JSON (parameters, seeds, input
checksums) sufficient to reproduce its outputs byte-for-byte.

Exit codes: 0 success, 2 input error, 3 training failure, 4 undefined
metric.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import boosting, cnn, features, raster, synth
from .ensemble import (
    accuracy,
    auc_bidirectional,
    auc_bidirectional_parts,
    ensemble as combine_probs,
    predict_labels,
    signed_scores,
    tune_weight,
)
from .dataset import (
    PairInstance,
    SplitSpec,
    augment_all,
    read_pairs_files,
    split,
    write_pairs_files,
)
from .errors import (
    ConfigurationError,
    InputError,
    TrainingError,
    UndefinedMetricError,
)
from .seeding import derive_seed, make_rng

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_TRAINING = 3
EXIT_METRIC = 4

DEFAULT_SWEEP_COUNTS = "100,200,500,1000"


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_run_meta(out_dir: Path, command: str, args, input_paths) -> None:
    params = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func",)
    }
    meta = {
        "command": command,
        "package_version": __version__,
        "params": params,
        "input_checksums": {
            name: _sha256_file(p) for name, p in input_paths.items() if p
        },
    }
    path = out_dir / f"{command}.run.meta"
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(meta, f, sort_keys=True, indent=1)
        f.write("\n")


def _corpus_paths(args):
    return {"pairs": args.pairs, "info": args.info, "target": args.target}


def _load_corpus(args):
    for name, p in _corpus_paths(args).items():
        if not Path(p).is_file():
            raise InputError(f"missing {name} file: {p}")
    return read_pairs_files(args.pairs, args.info, args.target)


def _read_manifest(path) -> list[str]:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"missing manifest {p}; run `causalpairs ingest` first")
    return [line.strip() for line in p.read_text().splitlines() if line.strip()]


def _select(instances, ids):
    by_id = {inst.id: inst for inst in instances}
    missing = [pid for pid in ids if pid not in by_id]
    if missing:
        raise InputError(f"manifest ids missing from corpus: {missing[:5]}...")
    return [by_id[pid] for pid in ids]


def _manifest_splits(args, instances):
    mdir = Path(args.out) / "manifests"
    return tuple(
        _select(instances, _read_manifest(mdir / f"{part}.ids"))
        for part in ("train", "val", "test")
    )


def _rasterize_all(instances, side):
    cfg = raster.RasterConfig(m=side)
    return [raster.rasterize(inst, cfg) for inst in instances]


def _fmt(v: float) -> str:
    return repr(float(v))


def _parse_ints(text, flag, sep=",", maxsplit=-1) -> list:
    try:
        return [int(t) for t in text.split(sep, maxsplit)]
    except ValueError:
        raise ConfigurationError(f"{flag} must be integers, got {text!r}") from None


def _parse_channels(spec_text) -> tuple:
    if not spec_text:
        return cnn.DEFAULT_CHANNEL_PLAN
    vals = _parse_ints(spec_text, "--channels")
    if len(vals) != 10:
        raise ConfigurationError("--channels needs 10 integers (5 stage pairs)")
    return tuple((vals[2 * i], vals[2 * i + 1]) for i in range(5))


# ---------------------------------------------------------------------------
# Commands.


def cmd_generate(args):
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mix = None
    if args.mix:
        mix = {}
        for part in args.mix.split(","):
            name, _, frac = part.partition("=")
            try:
                mix[synth.Mechanism(name.strip())] = float(frac)
            except ValueError:
                raise ConfigurationError(
                    f"--mix entries are <mechanism>=<fraction> with a mechanism in "
                    f"{[m.value for m in synth.Mechanism]}, got {part!r}"
                ) from None
    n_obs = _parse_ints(args.n_obs, "--n-obs", ":", 1)
    lo, hi = n_obs[0], n_obs[-1]
    instances = synth.generate_benchmark(
        count=args.count,
        mix=mix,
        n_obs_range=(lo, hi),
        seed=args.seed,
        noise_scale=args.noise_scale,
    )
    if args.cat_bins:
        instances = [synth.to_categorical(inst, args.cat_bins) for inst in instances]
    write_pairs_files(
        instances, out / "pairs.csv", out / "info.csv", out / "target.csv"
    )
    _write_run_meta(out, "generate", args, {})
    print(f"generated {len(instances)} instances -> {out}")
    return EXIT_OK


def cmd_ingest(args):
    out = Path(args.out)
    instances = _load_corpus(args)
    spec = SplitSpec(train_frac=args.train_frac, val_frac=args.val_frac, seed=args.seed)
    parts = split(instances, spec)
    mdir = out / "manifests"
    mdir.mkdir(parents=True, exist_ok=True)
    for name, part in zip(("train", "val", "test"), parts):
        with open(mdir / f"{name}.ids", "w", encoding="utf-8", newline="\n") as f:
            for inst in part:
                f.write(inst.id + "\n")
    _write_run_meta(out, "ingest", args, _corpus_paths(args))
    print(
        f"ingested {len(instances)} instances: "
        f"{len(parts[0])}/{len(parts[1])}/{len(parts[2])} train/val/test"
    )
    return EXIT_OK


def cmd_rasterize(args):
    out = Path(args.out)
    instances = _load_corpus(args)
    if args.manifest:
        instances = _select(instances, _read_manifest(args.manifest))
    imgdir = out / "images"
    imgdir.mkdir(parents=True, exist_ok=True)
    images = _rasterize_all(instances, args.side)
    for inst, img in zip(instances, images):
        raster.write_image(img, imgdir / f"{inst.id}.pgm")
    _write_run_meta(out, "rasterize", args, _corpus_paths(args))
    print(f"rasterized {len(instances)} images at side {args.side} -> {imgdir}")
    return EXIT_OK


def _load_or_raster(instances, side, imgdir):
    """Per-id PGM when present at the right side, else in-memory raster."""
    images = []
    cfg = raster.RasterConfig(m=side)
    for inst in instances:
        path = Path(imgdir) / f"{inst.id}.pgm" if imgdir else None
        if path is not None and path.is_file():
            img = raster.read_image(path)
            if img.m == side:
                images.append(img)
                continue
        images.append(raster.rasterize(inst, cfg))
    return images


def _fit_cnn(args, train_insts, val_insts, imgdir):
    """(CnnModel, history) from the CLI's CNN flags; imgdir None rasterizes in memory."""
    arch = cnn.build_paper_arch(args.side, _parse_channels(args.channels))
    cfg = cnn.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        momentum=args.momentum,
        seed=args.seed,
        deterministic=args.deterministic,
    )
    return cnn.train_cnn(
        list(zip(_load_or_raster(train_insts, args.side, imgdir), (i.label for i in train_insts))),
        list(zip(_load_or_raster(val_insts, args.side, imgdir), (i.label for i in val_insts))),
        arch,
        cfg,
    )


def _fit_gbc(args, train_insts):
    """BoostedModel from the CLI's GBC flags."""
    cfg = boosting.GbcConfig(
        n_estimators=args.n_estimators,
        max_depth=args.max_depth,
        min_samples_split=args.min_samples_split,
        learning_rate=args.gbc_lr,
    )
    return boosting.gbc_fit(
        features.feature_matrix(train_insts), [i.label for i in train_insts], cfg,
        seed=args.seed,
    )


def cmd_train(args):
    out = Path(args.out)
    instances = _load_corpus(args)
    train_insts, val_insts, _ = _manifest_splits(args, instances)
    if args.augment:
        train_insts = augment_all(train_insts)
    if args.kind == "cnn":
        model, history = _fit_cnn(
            args, train_insts, val_insts, args.images or out / "images"
        )
        save = cnn.save_model
        log = ["epoch,train_loss,train_accuracy,val_accuracy"] + [
            f"{m.epoch},{_fmt(m.train_loss)},{_fmt(m.train_accuracy)},{_fmt(m.val_accuracy)}"
            for m in history
        ]
        summary = (
            f"best val accuracy "
            f"{max((m.val_accuracy for m in history), default=float('nan'))}"
        )
    else:
        model = _fit_gbc(args, train_insts)
        save = boosting.save_gbc
        log = ["round,train_logloss"] + [
            f"{r},{_fmt(ll)}" for r, ll in enumerate(model.train_logloss)
        ]
        summary = f"final train logloss {model.train_logloss[-1]:.4f}"
    (out / "models").mkdir(parents=True, exist_ok=True)
    save(model, out / "models" / f"{args.kind}.model")
    (out / "reports").mkdir(parents=True, exist_ok=True)
    with open(out / "reports" / f"{args.kind}_train_log.csv", "w", newline="\n") as f:
        f.write(f"{log[0]},n_train\n")
        for line in log[1:]:
            f.write(f"{line},{len(train_insts)}\n")
    print(
        f"trained {args.kind} on {len(train_insts)} instances "
        f"({'augmented' if args.augment else 'plain'}); {summary}"
    )
    _write_run_meta(out, f"train-{args.kind}", args, _corpus_paths(args))
    return EXIT_OK


def _load_model(path):
    """A CNN or GBC model from a file, sniffed by magic and checked for use."""
    with open(path, "rb") as f:
        magic = f.read(4)
    if magic == cnn.MODEL_MAGIC:
        return cnn.load_model(path)
    if magic == boosting.GBC_MAGIC:
        model = boosting.load_gbc(path)
        if model.n_features != features.N_FEATURES:
            raise InputError(
                f"{path}: model expects {model.n_features} features, "
                f"the extractor gives {features.N_FEATURES}"
            )
        return model
    raise InputError(f"{path}: unrecognized model file")


def _model_probs(model, instances):
    """[N, 3] probabilities from a model returned by _load_model for instances."""
    if isinstance(model, cnn.CnnModel):
        images = _rasterize_all(instances, model.arch.input_side)
        return cnn.predict_batch(model, images)
    mat = features.feature_matrix(instances)
    return boosting.gbc_predict_batch(model, mat)


def cmd_evaluate(args):
    out = Path(args.out)
    instances = _load_corpus(args)
    splits = dict(zip(("train", "val", "test"), _manifest_splits(args, instances)))
    target = splits[args.split]
    truths = [inst.label for inst in target]
    model = _load_model(args.model)
    p1 = _model_probs(model, target)
    chosen_w = None
    if args.model2:
        model2 = _load_model(args.model2)
        p2 = _model_probs(model2, target)
        if args.weight == "tune":
            val = splits["val"]
            val_truths = [inst.label for inst in val]
            chosen_w = tune_weight(
                _model_probs(model, val),
                _model_probs(model2, val),
                val_truths,
                metric=args.tune_metric,
            )
        else:
            try:
                chosen_w = float(args.weight)
            except ValueError:
                raise ConfigurationError(
                    f"--weight must be a number in [0,1] or 'tune', got {args.weight!r}"
                )
        probs = combine_probs(p1, p2, chosen_w)
    else:
        probs = p1
    preds = predict_labels(probs)
    acc = accuracy(preds, truths)
    auc, auc_fwd, auc_bwd = auc_bidirectional_parts(
        probs, truths, exclude_zero=args.exclude_zero
    )
    rdir = out / "reports"
    rdir.mkdir(parents=True, exist_ok=True)
    scores = signed_scores(probs)
    with open(rdir / "predictions.csv", "w", newline="\n") as f:
        f.write("id,p1,p0,p_neg1,score,predicted_label\n")
        for inst, p, s, pred in zip(target, probs, scores, preds):
            f.write(f"{inst.id},{','.join(map(_fmt, p))},{_fmt(s)},{pred}\n")
    with open(rdir / "report.txt", "w", newline="\n") as f:
        f.write(f"accuracy={_fmt(acc)}\n")
        f.write(f"auc={_fmt(auc)}\n")
        f.write(f"auc_fwd={_fmt(auc_fwd)}\n")
        f.write(f"auc_bwd={_fmt(auc_bwd)}\n")
        if chosen_w is not None:
            f.write(f"w={_fmt(chosen_w)}\n")
    _write_run_meta(out, "evaluate", args, _corpus_paths(args))
    w_note = f", w={chosen_w}" if chosen_w is not None else ""
    print(f"{args.split}: accuracy={acc:.4f}, auc={auc:.4f}{w_note}")
    return EXIT_OK


def _subsample(inst: PairInstance, count: int, seed: int) -> tuple[PairInstance, bool]:
    if count >= inst.n_obs:
        return inst, count > inst.n_obs
    rng = make_rng(seed)
    idx = np.sort(rng.choice(inst.n_obs, size=count, replace=False))
    return (
        dataclasses.replace(inst, x=inst.x[idx], y=inst.y[idx]),
        False,
    )


def cmd_sparse_sweep(args):
    out = Path(args.out)
    instances = _load_corpus(args)
    counts = _parse_ints(args.obs_counts, "--obs-counts")
    if any(c < 2 for c in counts):
        raise ConfigurationError(f"observation counts must be >= 2: {counts}")
    rows = []
    for count in counts:
        subsampled = []
        clamped = 0
        for inst in instances:
            sub, was_clamped = _subsample(
                inst, count, derive_seed(args.seed, "sparse", inst.id)
            )
            clamped += int(was_clamped)
            subsampled.append(sub)
        if clamped:
            print(
                f"warning: count {count} exceeds observations for {clamped} "
                f"instances; clamped to available",
                file=sys.stderr,
            )
        train_insts, val_insts, test_insts = split(subsampled, SplitSpec(seed=args.seed))
        if args.augment:
            train_insts = augment_all(train_insts)
        cnn_model, _ = _fit_cnn(args, train_insts, val_insts, None)
        gbc_model = _fit_gbc(args, train_insts)
        truths = [i.label for i in test_insts]
        row = [count]
        for probs in [_model_probs(m, test_insts) for m in (cnn_model, gbc_model)]:
            row += [accuracy(predict_labels(probs), truths), auc_bidirectional(probs, truths)]
        rows.append(row)
        print(
            f"count {count}: cnn auc={row[2]:.4f} acc={row[1]:.4f} | "
            f"gbc auc={row[4]:.4f} acc={row[3]:.4f}"
        )
    rdir = out / "reports"
    rdir.mkdir(parents=True, exist_ok=True)
    with open(rdir / "sparse_sweep.csv", "w", newline="\n") as f:
        f.write("count,cnn_accuracy,cnn_auc,gbc_accuracy,gbc_auc\n")
        for count, *scores in rows:
            f.write(f"{count},{','.join(map(_fmt, scores))}\n")
    _write_run_meta(out, "sparse-sweep", args, _corpus_paths(args))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser.


def _add_corpus_flags(p):
    p.add_argument("--pairs", required=True, help="pairs file (id,x values,y values)")
    p.add_argument("--info", required=True, help="info file (id,kindA,kindB)")
    p.add_argument("--target", required=True, help="target file (id,label)")


def _add_cnn_flags(p):
    p.add_argument("--side", type=int, default=raster.DEFAULT_SIDE,
                   help="scatter image side length / bin count")
    p.add_argument("--channels", default=None,
                   help="10 comma-separated conv channel counts (5 stage pairs)")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--momentum", type=float, default=0.9)


def _add_gbc_flags(p):
    p.add_argument("--n-estimators", type=int, default=500)
    p.add_argument("--max-depth", type=int, default=9)
    p.add_argument("--min-samples-split", type=int, default=8)
    p.add_argument("--gbc-lr", type=float, default=0.1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalpairs",
        description="Pairwise causal direction inference pipelines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a synthetic labeled corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--mix", default=None,
                   help="e.g. anm=0.4,linear=0.2,independent=0.2,common-cause=0.2")
    p.add_argument("--n-obs", default="500", help="observations per instance, N or LO:HI")
    p.add_argument("--noise-scale", type=float, default=0.3)
    p.add_argument("--cat-bins", type=int, default=None,
                   help="post-discretize both attributes into this many categories")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ingest", help="parse a corpus and write split manifests")
    _add_corpus_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--train-frac", type=float, default=0.70)
    p.add_argument("--val-frac", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("rasterize", help="write one scatter PGM per instance")
    _add_corpus_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--side", type=int, default=raster.DEFAULT_SIDE)
    p.add_argument("--manifest", default=None, help="restrict to ids in this manifest")
    p.set_defaults(func=cmd_rasterize)

    p = sub.add_parser("train", help="train a model on the ingested split")
    p.add_argument("kind", choices=("cnn", "gbc"))
    _add_corpus_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--augment", action="store_true",
                   help="add the swapped twin of every training instance")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--deterministic", action="store_true", default=True)
    p.add_argument("--images", default=None,
                   help="directory of pre-rasterized PGMs (default: <out>/images)")
    _add_cnn_flags(p)
    _add_gbc_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate one model or a weighted ensemble")
    _add_corpus_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--model", required=True, help="model file (cnn or gbc)")
    p.add_argument("--model2", default=None, help="second model for the ensemble")
    p.add_argument("--weight", default="tune",
                   help="ensemble weight for --model: a number, or 'tune'")
    p.add_argument("--tune-metric", choices=("auc", "accuracy"), default="auc")
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.add_argument("--exclude-zero", action="store_true",
                   help="drop label-0 instances from both sub-AUCs")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sparse-sweep",
                       help="retrain and compare models at reduced observation counts")
    _add_corpus_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--obs-counts", default=DEFAULT_SWEEP_COUNTS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--augment", action="store_true")
    p.add_argument("--deterministic", action="store_true", default=True)
    _add_cnn_flags(p)
    _add_gbc_flags(p)
    p.set_defaults(func=cmd_sparse_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except UndefinedMetricError as exc:
        print(f"undefined metric: {exc}", file=sys.stderr)
        return EXIT_METRIC


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
