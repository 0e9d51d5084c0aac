"""Command-line pipelines: generate, ingest, rasterize, train cnn, train gbc,
evaluate, sparse-sweep.

Output directory layout (created under --out):
    manifests/   corpus.cpmf: the parsed corpus in split order, with its split
                 sizes and the checksums of its three files; train.ids /
                 val.ids / test.ids, for reading; no command reads them
    images/      <id>.pgm scatter plots, for viewing; no command reads them
    models/      cnn.model / gbc.model
    reports/     predictions.csv, report.txt, train logs, sparse_sweep.csv
Only ingest parses the corpus text, splits it and writes the store.  Every
later command loads its splits from ingest's corpus.cpmf instead, and
refuses the store (exit 2) when it is missing, corrupt or stored for
other corpus bytes.  Commands that need scatter images rasterize them in
memory, each split into one uint8 stack (raster.rasterize_all).

Every command runs in one frame, ``_run``: the --seed check (a negative
one is refused before anything is read or written); the corpus hash
(none for generate; evaluate checks --weight first); the store (ingest
writes it, the others read it) and the work, with the command's other
flag checks; its outputs, each directory made with its first file; then
``<command>.run.meta`` (parameters, seeds and input checksums: enough to
rerun byte for byte) and the summary line.  A failed command writes no
run.meta, and a refused one no directory.

Exit codes: 0 success, 2 input error (an output path that cannot be written,
and a --side whose image stack or CNN parameters cannot be allocated,
included), 3 training failure, 4 undefined metric.
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import boosting, cnn, features, modelfile, raster, synth
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
    AttributeKind,
    PairInstance,
    SplitSpec,
    format_float,
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
# the parsed corpus, written by ingest and read by every later command
CORPUS_STORE = "corpus.cpmf"
SPLITS = ("train", "val", "test")


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_lines(path: Path, lines) -> None:
    """Write each of lines and a "\n" to path as UTF-8, making its directory first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for line in lines:
            f.write(line + "\n")


class _Corpus:
    """The three corpus files the flags name, and ingest's store of them under --out."""

    def __init__(self, args):
        self.files = {"pairs": args.pairs, "info": args.info, "target": args.target}
        self.mdir = Path(args.out) / "manifests"

    @functools.cached_property
    def checksums(self) -> dict:
        """SHA-256 of each of the three files, by flag name, hashed when first asked for."""
        for name, p in self.files.items():
            if not Path(p).is_file():
                raise InputError(f"missing {name} file: {p}")
        return {name: _sha256_file(p) for name, p in self.files.items()}

    def store(self, parts) -> None:
        """The corpus in split order as a "corpus" modelfile, and the split manifests."""
        for name, part in zip(SPLITS, parts):
            _write_lines(self.mdir / f"{name}.ids", (inst.id for inst in part))
        instances = [inst for part in parts for inst in part]
        meta = {
            "input_checksums": self.checksums,
            "ids": [inst.id for inst in instances],
            "kinds": [[inst.x_kind.value, inst.y_kind.value] for inst in instances],
            "labels": [inst.label for inst in instances],
            "split_sizes": [len(part) for part in parts],
        }
        arrays = {
            "n_obs": np.array([inst.n_obs for inst in instances], dtype="<i4"),
            "x": np.concatenate([inst.x for inst in instances]),
            "y": np.concatenate([inst.y for inst in instances]),
        }
        modelfile.write(self.mdir / CORPUS_STORE, "corpus", meta, arrays)

    def load(self, parts) -> dict:
        """The instances of each split named in parts, by name, sliced from the store.

        The store must have been stored for corpus files with these checksums.
        Only the pairs of the named splits are built, each split once however
        often parts names it.  They copy their values, so the file's buffer
        is freed on return: views that kept it alive read higher peak RSS in
        ``train cnn``.
        """
        checksums = self.checksums
        path = self.mdir / CORPUS_STORE
        if not path.is_file():
            raise InputError(f"missing corpus store {path}; run `causalpairs ingest` first")
        try:
            _, meta, arrays = modelfile.read(path, "corpus")
            if meta.get("input_checksums") != checksums:
                raise InputError(f"{path} was stored for other corpus files")
            ids, kinds, labels, sizes = (
                meta[key] for key in ("ids", "kinds", "labels", "split_sizes")
            )
            n_obs, x, y = arrays["n_obs"], arrays["x"], arrays["y"]
            # each split size a non-negative int, together the pair count
            if not (
                len(ids) == len(kinds) == len(labels) == len(n_obs) == sum(sizes)
                and n_obs.ndim == 1 and n_obs.sum() == len(x) == len(y)
                and len(sizes) == len(SPLITS) and all(type(n) is int and n >= 0 for n in sizes)
            ):
                raise InputError(f"{path}: corpus store arrays and split sizes do not match its ids")
            ends = np.cumsum(n_obs)
            bounds = np.cumsum([0, *sizes]).tolist()
            rows = dict(zip(SPLITS, map(range, bounds, bounds[1:])))

            def pair(k):
                span = slice(ends[k] - n_obs[k], ends[k])
                kx, ky = kinds[k]
                return PairInstance(
                    ids[k], x[span].copy(), y[span].copy(),
                    AttributeKind(kx), AttributeKind(ky), labels[k],
                )

            return {part: [pair(k) for k in rows[part]] for part in dict.fromkeys(parts)}
        except (KeyError, TypeError, ValueError, AttributeError, InputError) as exc:
            raise InputError(f"{exc}; run `causalpairs ingest` again") from exc


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


def _run(work, args) -> int:
    """The frame of every command around work(args, out, corpus); see the module docstring."""
    if getattr(args, "seed", 0) < 0:
        raise ConfigurationError(f"--seed must be >= 0, got {args.seed}")
    out = Path(args.out)
    corpus = _Corpus(args) if "pairs" in vars(args) else None
    summary = work(args, out, corpus)
    command = f"{args.command}-{args.kind}" if "kind" in vars(args) else args.command
    meta = {
        "command": command,
        "package_version": __version__,
        "params": {k: v for k, v in vars(args).items() if k != "func"},
        "input_checksums": corpus.checksums if corpus else {},
    }
    _write_lines(out / f"{command}.run.meta", [json.dumps(meta, sort_keys=True, indent=1)])
    if summary is not None:
        print(summary)
    return EXIT_OK


def cmd_generate(args, out, corpus):
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
    if args.cat_bins is not None:
        instances = [synth.to_categorical(inst, args.cat_bins) for inst in instances]
    out.mkdir(parents=True, exist_ok=True)
    write_pairs_files(
        instances, out / "pairs.csv", out / "info.csv", out / "target.csv"
    )
    return f"generated {len(instances)} instances -> {out}"


def cmd_ingest(args, out, corpus):
    corpus.checksums  # before the text is parsed
    instances = read_pairs_files(*corpus.files.values())
    spec = SplitSpec(train_frac=args.train_frac, val_frac=args.val_frac, seed=args.seed)
    parts = split(instances, spec)
    corpus.store(parts)
    return (
        f"ingested {len(instances)} instances: "
        f"{len(parts[0])}/{len(parts[1])}/{len(parts[2])} train/val/test"
    )


def cmd_rasterize(args, out, corpus):
    instances = [i for part in corpus.load(SPLITS).values() for i in part]
    images = raster.rasterize_all(instances, args.side)
    imgdir = out / "images"
    imgdir.mkdir(parents=True, exist_ok=True)
    for inst, img in zip(instances, images):
        # the id's UTF-8 bytes under any locale, as in every text output
        raster.write_image(img, os.path.join(bytes(imgdir), inst.id.encode("utf-8") + b".pgm"))
    return f"rasterized {len(instances)} images at side {args.side} -> {imgdir}"


def _with_twins(rows, twins, labels):
    """(rows, labels) with each row followed by its swapped twin and each label
    by its negation, as a read-only stack: the training set --augment gives."""
    stack = np.stack([rows, twins], axis=1).reshape(-1, *rows.shape[1:])
    stack.flags.writeable = False
    return stack, [v for label in labels for v in (label, -label)]


def _fit_cnn(args, train_insts, val_insts):
    """(CnnModel, history) from the CLI's CNN flags, on images rasterized in memory;
    with --augment each image is followed by its transpose, its swapped twin's."""
    arch = cnn.CnnArchitecture(stages=_parse_channels(args.channels), input_side=args.side)
    cfg = cnn.TrainConfig(
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.lr,
        momentum=args.momentum,
        seed=args.seed,
    )
    images, labels = raster.rasterize_all(train_insts, args.side), [i.label for i in train_insts]
    if args.augment:
        # rebound, so the plain stack is freed before training
        images, labels = _with_twins(images, images.transpose(0, 2, 1), labels)
    return cnn.train_cnn(
        images, labels, arch, cfg,
        raster.rasterize_all(val_insts, args.side), [i.label for i in val_insts],
    )


def _fit_gbc(args, train_insts):
    """(BoostedModel, train log-loss) from the CLI's GBC flags; with --augment each
    feature row is followed by its swapped twin's, the row in features.SWAP_ORDER."""
    cfg = boosting.GbcConfig(
        n_estimators=args.n_estimators,
        max_depth=args.max_depth,
        min_samples_split=args.min_samples_split,
        learning_rate=args.gbc_lr,
    )
    rows, labels = features.extract_features(train_insts), [i.label for i in train_insts]
    if args.augment:
        rows, labels = _with_twins(rows, rows[:, features.SWAP_ORDER], labels)
    return boosting.gbc_fit(rows, labels, cfg)


def cmd_train(args, out, corpus):
    # the CNN keeps its epoch of lowest validation log-loss; the GBC uses no val pairs
    parts = corpus.load(("train", "val") if args.kind == "cnn" else ("train",))
    train_insts = parts["train"]
    n_train = len(train_insts) * (2 if args.augment else 1)
    if args.kind == "cnn":
        model, history = _fit_cnn(args, train_insts, parts["val"])
        save = cnn.save_model
        header = "epoch,train_loss,train_accuracy,val_accuracy,val_log_loss"
        rows = [
            f"{m.epoch},{format_float(m.train_loss)},{format_float(m.train_accuracy)},"
            f"{format_float(m.val_accuracy)},{format_float(m.val_log_loss)}"
            for m in history
        ]
        summary = (f"lowest val log-loss {min(m.val_log_loss for m in history):.4f}"
                   if parts["val"] else "no val pairs, last epoch kept")
    else:
        model, logloss = _fit_gbc(args, train_insts)
        save = boosting.save_gbc
        header = "round,train_logloss"
        rows = [f"{r},{format_float(ll)}" for r, ll in enumerate(logloss)]
        summary = f"final train logloss {logloss[-1]:.4f}"
    (out / "models").mkdir(parents=True, exist_ok=True)
    save(model, out / "models" / f"{args.kind}.model")
    _write_lines(
        out / "reports" / f"{args.kind}_train_log.csv",
        [f"{header},n_train"] + [f"{row},{n_train}" for row in rows],
    )
    return (
        f"trained {args.kind} on {n_train} instances "
        f"({'augmented' if args.augment else 'plain'}); {summary}"
    )


def _load_model(path):
    """A CNN or GBC model from a file, by the kind the file records, checked for use."""
    kind, meta, arrays = modelfile.read(path, "cnn", "gbc")
    if kind == "cnn":
        return cnn.model_from_file(path, meta, arrays)
    model = boosting.gbc_from_file(path, meta, arrays)
    if model.n_features != features.N_FEATURES:
        raise InputError(
            f"{path}: model expects {model.n_features} features, "
            f"the extractor gives {features.N_FEATURES}"
        )
    return model


def _model_probs(model, instances):
    """[N, 3] probabilities from a model returned by _load_model for instances."""
    if isinstance(model, cnn.CnnModel):
        return cnn.predict_batch(model, raster.rasterize_all(instances, model.arch.input_side))
    mat = features.extract_features(instances)
    return boosting.gbc_predict_batch(model, mat)


def _parse_weight(text):
    """--weight: 'tune', or a number in [0, 1]."""
    if text == "tune":
        return text
    try:
        w = float(text)
    except ValueError:
        w = float("nan")
    # written so that NaN fails too
    if not 0 <= w <= 1:
        raise ConfigurationError(f"--weight must be a number in [0,1] or 'tune', got {text!r}")
    return abs(w)  # -0 as 0, so that its outputs are those of 0


def cmd_evaluate(args, out, corpus):
    # checked whether or not there is a --model2, before anything is read
    weight = _parse_weight(args.weight)
    corpus.checksums  # before the models are read
    models = [_load_model(p) for p in ([args.model, args.model2] if args.model2 else [args.model])]
    tune = len(models) == 2 and weight == "tune"
    # the corpus after the models: the other way round, bench/run.py read a
    # peak RSS about 5 MB higher for evaluate.  Val only to tune on; on
    # --split val the target's probabilities are the tuning ones.
    parts = corpus.load((args.split, "val") if tune else (args.split,))
    scored = {name: [_model_probs(m, insts) for m in models] for name, insts in parts.items()}
    target = parts[args.split]
    truths = [inst.label for inst in target]
    probs, chosen_w = scored[args.split][0], None
    if len(models) == 2:
        chosen_w = tune_weight(*scored["val"], [i.label for i in parts["val"]]) if tune else weight
        probs = combine_probs(*scored[args.split], chosen_w)
    preds = predict_labels(probs)
    acc = accuracy(preds, truths)
    auc, auc_fwd, auc_bwd = auc_bidirectional_parts(
        probs, truths, exclude_zero=args.exclude_zero
    )
    _write_lines(out / "reports" / "predictions.csv", [
        "id,p1,p0,p_neg1,score,predicted_label",
        *(f"{inst.id},{','.join(map(format_float, p))},{format_float(s)},{pred}"
          for inst, p, s, pred in zip(target, probs, signed_scores(probs), preds)),
    ])
    report = {"accuracy": acc, "auc": auc, "auc_fwd": auc_fwd, "auc_bwd": auc_bwd}
    if chosen_w is not None:
        report["w"] = chosen_w
    _write_lines(out / "reports" / "report.txt",
                 (f"{key}={format_float(value)}" for key, value in report.items()))
    w_note = f", w={chosen_w}" if chosen_w is not None else ""
    return f"{args.split}: accuracy={acc:.4f}, auc={auc:.4f}{w_note}"


def _subsample(inst: PairInstance, count: int, seed: int) -> PairInstance:
    if count >= inst.n_obs:
        return inst
    rng = make_rng(seed)
    idx = np.sort(rng.choice(inst.n_obs, size=count, replace=False))
    return dataclasses.replace(inst, x=inst.x[idx], y=inst.y[idx])


def cmd_sparse_sweep(args, out, corpus):
    corpus.checksums  # before the flags are checked
    counts = _parse_ints(args.obs_counts, "--obs-counts")
    if any(c < 2 for c in counts):
        raise ConfigurationError(f"observation counts must be >= 2: {counts}")
    parts = corpus.load(SPLITS).values()
    rows = []
    for count in counts:
        clamped = sum(inst.n_obs < count for part in parts for inst in part)
        if clamped:
            print(
                f"warning: count {count} exceeds observations for {clamped} "
                f"instances; clamped to available",
                file=sys.stderr,
            )
        train_insts, val_insts, test_insts = (
            [_subsample(i, count, derive_seed(args.seed, "sparse", i.id)) for i in part]
            for part in parts
        )
        cnn_model, _ = _fit_cnn(args, train_insts, val_insts)
        gbc_model, _ = _fit_gbc(args, train_insts)
        truths = [i.label for i in test_insts]
        row = [count]
        for probs in [_model_probs(m, test_insts) for m in (cnn_model, gbc_model)]:
            row += [accuracy(predict_labels(probs), truths), auc_bidirectional(probs, truths)]
        rows.append(row)
        print(
            f"count {count}: cnn auc={row[2]:.4f} acc={row[1]:.4f} | "
            f"gbc auc={row[4]:.4f} acc={row[3]:.4f}"
        )
    _write_lines(out / "reports" / "sparse_sweep.csv", [
        "count,cnn_accuracy,cnn_auc,gbc_accuracy,gbc_auc",
        *(f"{count},{','.join(map(format_float, scores))}" for count, *scores in rows),
    ])


# ---------------------------------------------------------------------------
# Parser.


def _add_command(sub, name, work, help, corpus=True, seed=None):
    """A subcommand that _run runs work for.  It takes --out, the corpus flags
    if corpus, and --seed unless seed, its help text ("" for none), is None."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(func=functools.partial(_run, work))
    if corpus:
        p.add_argument("--pairs", required=True, help="pairs file (id,x values,y values)")
        p.add_argument("--info", required=True, help="info file (id,kindA,kindB)")
        p.add_argument("--target", required=True, help="target file (id,label)")
    p.add_argument("--out", required=True)
    if seed is not None:
        p.add_argument("--seed", type=int, default=0, help=seed or None)
    return p


def _add_cnn_flags(p):
    p.add_argument("--side", type=int, default=raster.DEFAULT_SIDE,
                   help="scatter image side length / bin count")
    p.add_argument("--channels", default=None,
                   help="10 comma-separated conv channel counts (5 stage pairs)")
    p.add_argument("--epochs", type=int, default=cnn.TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=cnn.TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=cnn.TrainConfig.learning_rate)
    p.add_argument("--momentum", type=float, default=cnn.TrainConfig.momentum)


def _add_gbc_flags(p):
    p.add_argument("--n-estimators", type=int, default=boosting.GbcConfig.n_estimators)
    p.add_argument("--max-depth", type=int, default=boosting.GbcConfig.max_depth)
    p.add_argument("--min-samples-split", type=int, default=boosting.GbcConfig.min_samples_split)
    p.add_argument("--gbc-lr", type=float, default=boosting.GbcConfig.learning_rate)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalpairs",
        description="Pairwise causal direction inference pipelines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "generate", cmd_generate, "emit a synthetic labeled corpus",
                     corpus=False, seed="")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--mix", default=None,
                   help="e.g. anm=0.4,linear=0.2,independent=0.2,common-cause=0.2")
    p.add_argument("--n-obs", default="500", help="observations per instance, N or LO:HI")
    p.add_argument("--noise-scale", type=float, default=0.3)
    p.add_argument("--cat-bins", type=int, default=None,
                   help="post-discretize both attributes into this many categories")

    p = _add_command(sub, "ingest", cmd_ingest, "parse and split a corpus into the corpus store",
                     seed="")
    p.add_argument("--train-frac", type=float, default=0.70)
    p.add_argument("--val-frac", type=float, default=0.15)

    p = _add_command(sub, "rasterize", cmd_rasterize,
                     "write one scatter PGM per instance, for viewing")
    p.add_argument("--side", type=int, default=raster.DEFAULT_SIDE)

    p = sub.add_parser("train", help="train a model on the ingested split")
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, help, seed, add_flags in (
        ("cnn", "train the scatter-image CNN",
         "seeds the weight init and the batch order", _add_cnn_flags),
        ("gbc", "train the boosted trees on the pair features",
         "unused: boosting draws no random numbers; accepted because "
         "the benchmark workloads pass it", _add_gbc_flags),
    ):
        p = _add_command(kinds, kind, cmd_train, help, seed=seed)
        p.add_argument("--augment", action="store_true",
                       help="add the swapped twin of every training instance")
        add_flags(p)

    p = _add_command(sub, "evaluate", cmd_evaluate, "evaluate one model or a weighted ensemble")
    p.add_argument("--model", required=True, help="model file (cnn or gbc)")
    p.add_argument("--model2", default=None, help="second model for the ensemble")
    p.add_argument("--weight", default="tune",
                   help="ensemble weight for --model: a number, or 'tune'")
    p.add_argument("--split", choices=SPLITS, default="test")
    p.add_argument("--exclude-zero", action="store_true",
                   help="drop label-0 instances from both sub-AUCs")

    p = _add_command(sub, "sparse-sweep", cmd_sparse_sweep,
                     "retrain both models on ingest's split at reduced observation counts",
                     seed="")
    p.add_argument("--obs-counts", default=DEFAULT_SWEEP_COUNTS)
    p.add_argument("--augment", action="store_true")
    _add_cnn_flags(p)
    _add_gbc_flags(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
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
