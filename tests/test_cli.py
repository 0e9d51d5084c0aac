import argparse
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from causalpairs.cli import build_parser, main
from causalpairs.errors import ConfigurationError

TINY_CHANNELS = "4,4,4,4,4,4,4,4,4,4"


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    code = run(
        "generate", "--out", out, "--count", 48, "--n-obs", "60",
        "--seed", 5,
        "--mix", "anm=0.4,linear=0.2,independent=0.2,common-cause=0.2",
    )
    assert code == 0
    return out


def corpus_flags(corpus):
    return [
        "--pairs", corpus / "pairs.csv",
        "--info", corpus / "info.csv",
        "--target", corpus / "target.csv",
    ]


class TestGenerate:
    def test_writes_three_files(self, corpus):
        for name in ("pairs.csv", "info.csv", "target.csv"):
            assert (corpus / name).is_file()
        assert len((corpus / "target.csv").read_text().splitlines()) == 48

    def test_run_meta(self, corpus):
        meta = json.loads((corpus / "generate.run.meta").read_text())
        assert meta["command"] == "generate"
        assert meta["params"]["seed"] == 5

    @pytest.mark.parametrize("n_obs,expected", [("30:40", range(30, 41)), ("25", [25])])
    def test_n_obs(self, tmp_path, n_obs, expected):
        from causalpairs.dataset import read_pairs_files

        assert run("generate", "--out", tmp_path, "--count", 12, "--n-obs", n_obs) == 0
        counts = {inst.n_obs for inst in read_pairs_files(
            *(tmp_path / name for name in ("pairs.csv", "info.csv", "target.csv"))
        )}
        assert counts <= set(expected) and len(counts) >= min(len(expected), 3)


class TestIngest:
    def test_manifest_sizes(self, corpus, tmp_path):
        out = tmp_path / "run"
        assert run("ingest", *corpus_flags(corpus), "--out", out, "--seed", 1) == 0
        sizes = [
            len((out / "manifests" / f"{p}.ids").read_text().splitlines())
            for p in ("train", "val", "test")
        ]
        assert sizes == [33, 7, 8]

    def test_rerun_identical(self, corpus, tmp_path):
        out = tmp_path / "run"
        run("ingest", *corpus_flags(corpus), "--out", out, "--seed", 1)
        first = (out / "manifests" / "train.ids").read_bytes()
        run("ingest", *corpus_flags(corpus), "--out", out, "--seed", 1)
        assert (out / "manifests" / "train.ids").read_bytes() == first

    def test_missing_target_is_input_error(self, corpus, tmp_path):
        code = run(
            "ingest", "--pairs", corpus / "pairs.csv", "--info", corpus / "info.csv",
            "--target", corpus / "nope.csv", "--out", tmp_path / "x",
        )
        assert code == 2

    def test_undecodable_pairs_is_input_error(self, corpus, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes((corpus / "pairs.csv").read_bytes().replace(b"0", b"\xff", 1))
        code = run(
            "ingest", "--pairs", bad, "--info", corpus / "info.csv",
            "--target", corpus / "target.csv", "--out", tmp_path / "x",
        )
        assert code == 2
        assert str(bad) in capsys.readouterr().err

    def test_non_finite_categorical_is_input_error(self, tmp_path):
        flags = []
        for flag, name, text in (
            ("--pairs", "pairs.csv", "p1, 1 2 nan nan 3, 0 1 0 1 0\n"),
            ("--info", "info.csv", "p1,cat,bin\n"),
            ("--target", "target.csv", "p1,1\n"),
        ):
            (tmp_path / name).write_text(text)
            flags += [flag, tmp_path / name]
        assert run("ingest", *flags, "--out", tmp_path / "x") == 2

    def test_malformed_pairs_is_input_error(self, corpus, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("p1, 1 2\n")
        code = run(
            "ingest", "--pairs", bad, "--info", corpus / "info.csv",
            "--target", corpus / "target.csv", "--out", tmp_path / "x",
        )
        assert code == 2


class TestRasterize:
    def test_default_and_custom_side(self, corpus, tmp_path):
        out = tmp_path / "run"
        assert run("rasterize", *corpus_flags(corpus), "--out", out, "--side", 64) == 0
        images = sorted((out / "images").glob("*.pgm"))
        assert len(images) == 48
        header = images[0].read_bytes()[:13]
        assert header.startswith(b"P5\n64 64\n255\n")

    def test_rerun_byte_identical(self, corpus, tmp_path):
        out = tmp_path / "run"
        run("rasterize", *corpus_flags(corpus), "--out", out, "--side", 32)
        blobs = {p.name: p.read_bytes() for p in (out / "images").glob("*.pgm")}
        run("rasterize", *corpus_flags(corpus), "--out", out, "--side", 32)
        for p in (out / "images").glob("*.pgm"):
            assert p.read_bytes() == blobs[p.name]


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    flags = corpus_flags(corpus)
    assert run("ingest", *flags, "--out", out, "--seed", 1) == 0
    assert run("rasterize", *flags, "--out", out, "--side", 32) == 0
    assert run(
        "train", "cnn", *flags, "--out", out, "--side", 32,
        "--channels", TINY_CHANNELS, "--epochs", 2, "--batch-size", 8,
        "--lr", 0.005, "--seed", 3, "--augment",
    ) == 0
    assert run(
        "train", "gbc", *flags, "--out", out,
        "--n-estimators", 12, "--max-depth", 3, "--min-samples-split", 4,
        "--seed", 3, "--augment",
    ) == 0
    return out


class TestTrain:
    def test_models_written(self, trained):
        assert (trained / "models" / "cnn.model").is_file()
        assert (trained / "models" / "gbc.model").is_file()

    def test_augment_doubles_train_count_in_log(self, trained):
        log = (trained / "reports" / "cnn_train_log.csv").read_text().splitlines()
        # 33 train instances doubled by augmentation
        assert log[1].split(",")[-1] == "66"

    def test_gbc_metadata_records_hyperparameters(self, trained):
        from causalpairs.boosting import load_gbc

        model = load_gbc(trained / "models" / "gbc.model")
        assert model.config.n_estimators == 12
        assert model.config.max_depth == 3

    def test_gbc_default_metadata(self, corpus, tmp_path):
        # defaults: 500 estimators, depth 9, min split 8 (not trained here;
        # config object carries the contract)
        from causalpairs.boosting import GbcConfig

        cfg = GbcConfig()
        assert (cfg.n_estimators, cfg.max_depth, cfg.min_samples_split) == (500, 9, 8)


class TestEvaluate:
    def test_single_model_report(self, corpus, trained):
        code = run(
            "evaluate", *corpus_flags(corpus), "--out", trained,
            "--model", trained / "models" / "gbc.model",
        )
        assert code == 0
        report = (trained / "reports" / "report.txt").read_text()
        keys = [line.split("=")[0] for line in report.splitlines()]
        assert keys == ["accuracy", "auc", "auc_fwd", "auc_bwd"]

    def test_ensemble_tuned_weight_on_grid(self, corpus, trained):
        code = run(
            "evaluate", *corpus_flags(corpus), "--out", trained,
            "--model", trained / "models" / "cnn.model",
            "--model2", trained / "models" / "gbc.model",
            "--weight", "tune",
        )
        assert code == 0
        report = dict(
            line.split("=") for line in
            (trained / "reports" / "report.txt").read_text().splitlines()
        )
        assert float(report["w"]) in [i / 10 for i in range(11)]

    def test_fixed_weight_recorded(self, corpus, trained):
        run(
            "evaluate", *corpus_flags(corpus), "--out", trained,
            "--model", trained / "models" / "cnn.model",
            "--model2", trained / "models" / "gbc.model",
            "--weight", "0.4",
        )
        report = dict(
            line.split("=") for line in
            (trained / "reports" / "report.txt").read_text().splitlines()
        )
        assert float(report["w"]) == 0.4

    def test_predictions_format(self, corpus, trained):
        lines = (trained / "reports" / "predictions.csv").read_text().splitlines()
        assert lines[0] == "id,p1,p0,p_neg1,score,predicted_label"
        row = lines[1].split(",")
        assert len(row) == 6
        p1, p0, pn = float(row[1]), float(row[2]), float(row[3])
        assert abs(p1 + p0 + pn - 1.0) < 1e-9
        assert float(row[4]) == pytest.approx(p1 - pn, abs=1e-12)
        assert int(row[5]) in (1, 0, -1)

    @pytest.mark.parametrize("damage", ["truncated", "width"])
    def test_bad_gbc_model_is_input_error(self, corpus, trained, tmp_path, damage):
        from causalpairs.boosting import GbcConfig, gbc_fit, save_gbc

        bad = tmp_path / "gbc.model"
        if damage == "truncated":
            data = (trained / "models" / "gbc.model").read_bytes()
            bad.write_bytes(data[: len(data) // 2])
        else:
            X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0]])
            save_gbc(gbc_fit(X, [1, 0, -1, 1], GbcConfig(n_estimators=1)), bad)
        code = run(
            "evaluate", *corpus_flags(corpus), "--out", trained, "--model", bad,
        )
        assert code == 2

    def test_truncated_cnn_model_is_input_error(self, corpus, trained, tmp_path):
        data = (trained / "models" / "cnn.model").read_bytes()
        bad = tmp_path / "cnn.model"
        for cut in (10, 40, len(data) // 2, len(data) - 3):
            bad.write_bytes(data[:cut])
            code = run(
                "evaluate", *corpus_flags(corpus), "--out", trained, "--model", bad,
            )
            assert code == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_cnn_probabilities_are_input_error(
        self, corpus, trained, tmp_path, capsys
    ):
        from causalpairs import cnn

        # weights finite in float32, so the model loads, whose forward pass
        # overflows to inf and then NaN
        model = cnn.load_model(trained / "models" / "cnn.model")
        for layer in model.network.layers:
            for name, arr in layer.parameters():
                if name in ("kernels", "weights"):
                    arr[...] = 1e30
        bad = tmp_path / "cnn.model"
        cnn.save_model(model, bad)
        code = run("evaluate", *corpus_flags(corpus), "--out", trained, "--model", bad)
        assert code == 2
        assert "probabilities out of range: (nan, nan, nan)" in capsys.readouterr().err

    def test_undefined_metric_exit_code(self, corpus, trained, tmp_path):
        # corpus where the evaluated split has no -1 labels at all:
        # backward AUC is undefined
        out = tmp_path / "zero"
        code = run(
            "generate", "--out", out, "--count", 12, "--n-obs", 30,
            "--mix", "independent=1.0", "--seed", 1,
        )
        assert code == 0
        flags = [
            "--pairs", out / "pairs.csv", "--info", out / "info.csv",
            "--target", out / "target.csv",
        ]
        assert run("ingest", *flags, "--out", out) == 0
        code = run(
            "evaluate", *flags, "--out", out,
            "--model", trained / "models" / "gbc.model",
        )
        assert code == 4


    def test_tuned_ensemble_loads_each_model_once(self, corpus, trained, monkeypatch):
        from causalpairs import modelfile

        reads = []
        original = modelfile.read
        monkeypatch.setattr(
            modelfile, "read", lambda path, *kinds: reads.append(path) or original(path, *kinds)
        )
        code = run(
            "evaluate", *corpus_flags(corpus), "--out", trained,
            "--model", trained / "models" / "cnn.model",
            "--model2", trained / "models" / "gbc.model",
            "--weight", "tune",
        )
        assert code == 0
        assert reads == [str(trained / "models" / name) for name in ("cnn.model", "gbc.model")]

    @pytest.mark.parametrize("data", [
        b"CPBM" + struct.pack("<IQQ", 1, 2, 0) + b"{}",
        b"CPBG" + struct.pack("<IIIId", 1, 0, 3, 43, 0.1) + struct.pack("<Q", 2) + b"{}",
    ], ids=["cnn", "gbc"])
    def test_version_1_model_is_input_error(self, corpus, trained, tmp_path, capsys, data):
        bad = tmp_path / "v1.model"
        bad.write_bytes(data)
        code = run("evaluate", *corpus_flags(corpus), "--out", trained, "--model", bad)
        assert code == 2
        assert "not a version 2 model file; retrain" in capsys.readouterr().err

    def test_models_record_no_deterministic_flag(self, trained):
        from causalpairs import cnn

        model = cnn.load_model(trained / "models" / "cnn.model")
        assert "deterministic" not in model.train_config
        # each kind's run.meta holds its own flags and no other
        common = {"command", "kind", "pairs", "info", "target", "out", "augment", "seed"}
        own = {
            "cnn": {"side", "channels", "epochs", "batch_size", "lr", "momentum"},
            "gbc": {"n_estimators", "max_depth", "min_samples_split", "gbc_lr"},
        }
        for kind, flags in own.items():
            meta = json.loads((trained / f"train-{kind}.run.meta").read_text())
            assert set(meta["params"]) == common | flags

    @pytest.mark.parametrize("name", ["nope.model", ""], ids=["missing", "directory"])
    def test_unreadable_model_path_is_input_error(self, corpus, trained, tmp_path, capsys, name):
        path = tmp_path / name
        code = run("evaluate", *corpus_flags(corpus), "--out", trained, "--model", path)
        assert code == 2
        assert f"{path}: cannot read model file" in capsys.readouterr().err

    def test_gbc_model_with_feature_subsample_is_input_error(
        self, corpus, trained, tmp_path, capsys
    ):
        from causalpairs import modelfile

        # the config key that gbc.model files stored before boosting lost it
        kind, meta, arrays = modelfile.read(trained / "models" / "gbc.model", "gbc")
        meta["config"]["feature_subsample"] = None
        old = tmp_path / "gbc.model"
        modelfile.write(old, kind, meta, arrays)
        code = run("evaluate", *corpus_flags(corpus), "--out", trained, "--model", old)
        assert code == 2
        assert "feature_subsample" in capsys.readouterr().err

    def test_float64_cnn_model_is_input_error(self, corpus, trained, tmp_path, capsys):
        from causalpairs import modelfile

        # cnn.model files stored float64 parameters before the network went float32
        kind, meta, arrays = modelfile.read(trained / "models" / "cnn.model", "cnn")
        old = tmp_path / "cnn.model"
        modelfile.write(old, kind, meta, {"params": arrays["params"].astype("<f8")})
        code = run("evaluate", *corpus_flags(corpus), "--out", trained, "--model", old)
        assert code == 2
        err = capsys.readouterr().err
        assert "float64 CNN parameters" in err and "retrain" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_gbc_is_training_error(corpus, tmp_path, capsys):
    out = tmp_path / "run"
    assert run("ingest", *corpus_flags(corpus), "--out", out, "--seed", 1) == 0
    code = run("train", "gbc", *corpus_flags(corpus), "--out", out,
               "--n-estimators", 3, "--gbc-lr", "1e308")
    assert code == 3
    assert "non-finite class scores at boosting round" in capsys.readouterr().err
    assert not (out / "models" / "gbc.model").exists()


@pytest.mark.parametrize("argv", [
    ["train", "gbc", "--epochs", "3"],
    ["train", "cnn", "--n-estimators", "3"],
    ["train", "cnn", "--images", "images"],
], ids=["gbc-epochs", "cnn-n-estimators", "images"])
def test_train_rejects_flags_it_does_not_use(corpus, tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(a) for a in corpus_flags(corpus)] + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[2]}" in capsys.readouterr().err


def test_train_cnn_ignores_rasterized_images(corpus, tmp_path):
    # rasterize output is for viewing: pictures of an earlier corpus under
    # the same ids leave the trained model as it is without them
    fresh = tmp_path / "fresh"
    assert run("generate", "--out", fresh, "--count", 48, "--n-obs", "60", "--seed", 6) == 0
    models = []
    for name, earlier in (("viewed", corpus), ("plain", None)):
        out = tmp_path / name
        if earlier:
            assert run("rasterize", *corpus_flags(earlier), "--out", out, "--side", 32) == 0
        assert run("ingest", *corpus_flags(fresh), "--out", out, "--seed", 1) == 0
        assert run(
            "train", "cnn", *corpus_flags(fresh), "--out", out, "--side", 32,
            "--channels", TINY_CHANNELS, "--epochs", 1, "--batch-size", 8,
        ) == 0
        models.append((out / "models" / "cnn.model").read_bytes())
    assert (tmp_path / "viewed" / "images").is_dir()
    assert models[0] == models[1]


def test_every_parsed_flag_is_read(corpus, tmp_path):
    # boosting draws no random numbers, so `train gbc --seed` feeds nothing;
    # it is accepted because bench/workloads.py passes it to both train commands
    allowed = {("train gbc", "seed")}
    flags = [str(a) for a in corpus_flags(corpus)] + ["--out", str(tmp_path)]
    models = ["--model", tmp_path / "models" / "cnn.model",
              "--model2", tmp_path / "models" / "gbc.model"]
    commands = [
        ["generate", "--out", tmp_path / "gen", "--count", 12, "--n-obs", 30],
        ["ingest", *flags, "--seed", 1],
        ["rasterize", *flags, "--side", 32],
        ["train", "cnn", *flags, "--side", 32, "--channels", TINY_CHANNELS, "--epochs", 1],
        ["train", "gbc", *flags, "--n-estimators", 2],
        ["evaluate", *flags, *models, "--weight", "tune"],
        ["sparse-sweep", *flags, "--obs-counts", 20, "--seed", 1, "--side", 32,
         "--channels", TINY_CHANNELS, "--epochs", 1, "--n-estimators", 2],
    ]
    reads, unread = set(), set()

    class ReadRecorder(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    for argv in commands:
        args = build_parser().parse_args([str(a) for a in argv], namespace=ReadRecorder())
        reads.clear()
        assert args.func(args) == 0, argv
        # the subcommand names and the handler are not flags
        parsed = set(vars(args)) - {"command", "kind", "func"}
        name = " ".join(a for a in argv[:2] if not a.startswith("-"))
        unread |= {(name, flag) for flag in parsed - reads}
    assert unread == allowed


@pytest.mark.parametrize("match,argv", [
    ("--mix", ["generate", "--count", 4, "--mix", "bogus=1.0"]),
    ("--mix", ["generate", "--count", 4, "--mix", "anm=0.5,linear=half"]),
    ("fractions", ["generate", "--count", 4, "--mix", "anm=nan"]),
    ("fractions", ["generate", "--count", 4, "--mix", "anm=-1,linear=2"]),
    ("--n-obs", ["generate", "--count", 4, "--n-obs", "5:x"]),
    ("--n-obs", ["generate", "--count", 4, "--n-obs", "5:6:7"]),
    ("--obs-counts", ["sparse-sweep", "--obs-counts", "10,x"]),
    ("--channels", ["train", "cnn", "--channels", "4,4,4,4,4,x,4,4,4,4"]),
    ("bins", ["generate", "--count", 4, "--cat-bins", 0]),
    ("learning_rate", ["train", "gbc", "--gbc-lr", "nan"]),
    ("learning_rate", ["train", "gbc", "--gbc-lr", "inf"]),
    ("learning_rate", ["train", "cnn", "--lr", "nan"]),
    ("learning_rate", ["train", "cnn", "--lr", "inf"]),
], ids=[
    "mechanism", "fraction", "nan-fraction", "negative-fraction",
    "n-obs", "n-obs-three", "obs-counts", "channels", "cat-bins-zero",
    "gbc-lr-nan", "gbc-lr-inf", "cnn-lr-nan", "cnn-lr-inf",
])
def test_malformed_argument_text_is_configuration_error(corpus, tmp_path, match, argv):
    argv = [str(a) for a in argv] + ["--out", str(tmp_path)]
    if argv[0] != "generate":
        assert run("ingest", *corpus_flags(corpus), "--out", tmp_path) == 0
        argv += [str(a) for a in corpus_flags(corpus)]
    args = build_parser().parse_args(argv)
    with pytest.raises(ConfigurationError, match=match):
        args.func(args)
    assert main(argv) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_features_are_input_error(tmp_path):
    import dataclasses

    from causalpairs import dataset, synth

    # finite values whose spread overflows: the correlation is not finite
    instances = [
        dataclasses.replace(inst, x=np.concatenate([[1e308, 1e308], inst.x[2:]]))
        for inst in synth.generate_benchmark(12, n_obs_range=(40, 40), seed=2)
    ]
    flags = [tmp_path / name for name in ("pairs.csv", "info.csv", "target.csv")]
    dataset.write_pairs_files(instances, *flags)
    flags = [x for flag, path in zip(("--pairs", "--info", "--target"), flags)
             for x in (flag, path)]
    assert run("ingest", *flags, "--out", tmp_path, "--seed", 1) == 0
    code = run("train", "gbc", *flags, "--out", tmp_path, "--n-estimators", 2)
    assert code == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pearson_overflow_is_input_error(tmp_path):
    import dataclasses

    from causalpairs import dataset, synth

    # y follows x, but one large positive and one large negative x make the
    # spread of x overflow float64, which used to read as a Pearson of +-0.0
    rng = np.random.default_rng(4)
    instances = []
    for inst in synth.generate_benchmark(12, n_obs_range=(40, 40), seed=2):
        x = rng.normal(size=40)
        y = x + rng.normal(scale=0.1, size=40)
        x[3], x[7] = 1e308, -1e308
        y[3] = y[7] = 0.0
        instances.append(dataclasses.replace(inst, x=x, y=y))
    flags = [tmp_path / name for name in ("pairs.csv", "info.csv", "target.csv")]
    dataset.write_pairs_files(instances, *flags)
    flags = [x for flag, path in zip(("--pairs", "--info", "--target"), flags)
             for x in (flag, path)]
    assert run("ingest", *flags, "--out", tmp_path, "--seed", 1) == 0
    code = run("train", "gbc", *flags, "--out", tmp_path, "--n-estimators", 2)
    assert code == 2


def test_train_gbc_extracts_each_row_once(corpus, tmp_path, monkeypatch):
    # the per-pair entry point stays the one a tracer can wrap and count
    from causalpairs import features

    calls = []
    original = features.extract_features
    monkeypatch.setattr(
        features, "extract_features", lambda inst: calls.append(inst.id) or original(inst)
    )
    flags = corpus_flags(corpus)
    assert run("ingest", *flags, "--out", tmp_path, "--seed", 1) == 0
    code = run("train", "gbc", *flags, "--out", tmp_path, "--augment", "--n-estimators", 2)
    assert code == 0
    n_train = len((tmp_path / "manifests" / "train.ids").read_text().split())
    assert len(calls) == 2 * n_train == len(set(calls))


class TestSparseSweep:
    def test_table_and_clamp_warning(self, corpus, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = run(
            "sparse-sweep", *corpus_flags(corpus), "--out", out,
            "--obs-counts", "20,100", "--side", 32,
            "--channels", TINY_CHANNELS, "--epochs", 1, "--batch-size", 8,
            "--lr", 0.005, "--n-estimators", 5, "--max-depth", 3,
            "--min-samples-split", 4, "--seed", 1,
        )
        assert code == 0
        lines = (out / "reports" / "sparse_sweep.csv").read_text().splitlines()
        assert lines[0] == "count,cnn_accuracy,cnn_auc,gbc_accuracy,gbc_auc"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "20"
        # count 100 exceeds the 60 available observations -> clamp warning
        err = capsys.readouterr().err
        assert "clamped" in err

    def test_rerun_byte_identical(self, corpus, tmp_path):
        tables = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run(
                "sparse-sweep", *corpus_flags(corpus), "--out", out,
                "--obs-counts", "15,40", "--side", 32,
                "--channels", TINY_CHANNELS, "--epochs", 2, "--batch-size", 8,
                "--lr", 0.005, "--n-estimators", 4, "--max-depth", 3,
                "--min-samples-split", 4, "--seed", 2, "--augment",
            )
            assert code == 0
            tables.append((out / "reports" / "sparse_sweep.csv").read_bytes())
        assert tables[0] == tables[1]
        assert len(tables[0].splitlines()) == 3

    def test_bad_counts(self, corpus, tmp_path):
        code = run(
            "sparse-sweep", *corpus_flags(corpus), "--out", tmp_path / "s",
            "--obs-counts", "1,5",
        )
        assert code == 2


def run_python(*args):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120,
    )


def test_module_entry_point_prints_usage():
    proc = run_python("-m", "causalpairs.cli", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage:")


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency; every CLI process would pay its import
    proc = run_python(
        "-c", "import sys, causalpairs.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
