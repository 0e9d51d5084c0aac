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
# a sweep that runs in a second, should it get past its input checks
TINY_SWEEP = ["sparse-sweep", "--obs-counts", 20, "--side", 32, "--channels", TINY_CHANNELS,
              "--epochs", 1, "--n-estimators", 2]


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
        assert run("ingest", *corpus_flags(corpus), "--out", out, "--seed", 1) == 0
        assert run("rasterize", *corpus_flags(corpus), "--out", out, "--side", 64) == 0
        images = sorted((out / "images").glob("*.pgm"))
        assert len(images) == 48
        header = images[0].read_bytes()[:13]
        assert header.startswith(b"P5\n64 64\n255\n")

    def test_rerun_byte_identical(self, corpus, tmp_path):
        out = tmp_path / "run"
        run("ingest", *corpus_flags(corpus), "--out", out, "--seed", 1)
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

    def test_cnn_train_log_records_validation_log_loss(self, trained):
        header, *rows = (trained / "reports" / "cnn_train_log.csv").read_text().splitlines()
        assert header == "epoch,train_loss,train_accuracy,val_accuracy,val_log_loss,n_train"
        assert len(rows) == 2
        assert all(0 < float(row.split(",")[4]) < 10 for row in rows)

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

    def test_tune_metric_is_not_a_flag(self, corpus, trained, capsys):
        # the weight is always tuned on validation log-loss
        with pytest.raises(SystemExit) as exc:
            run(
                "evaluate", *corpus_flags(corpus), "--out", trained,
                "--model", trained / "models" / "cnn.model",
                "--model2", trained / "models" / "gbc.model", "--tune-metric", "auc",
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --tune-metric auc" in capsys.readouterr().err

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
            for name in ("kernels", "weights"):
                if hasattr(layer, name):
                    getattr(layer, name)[...] = 1e30
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
        assert not (out / "evaluate.run.meta").exists()


    @pytest.mark.parametrize("weight", ["banana", "1.5", "-0.1", "nan"])
    @pytest.mark.parametrize("model2", [False, True], ids=["one-model", "two-models"])
    def test_bad_weight_fails_before_any_file_is_read(
        self, corpus, trained, tmp_path, monkeypatch, capsys, weight, model2
    ):
        from causalpairs import modelfile

        def refuse(*args):
            raise AssertionError("a file was read")

        monkeypatch.setattr(modelfile, "read", refuse)
        models = ["--model", trained / "models" / "gbc.model"]
        if model2:
            models += ["--model2", trained / "models" / "cnn.model"]
        out = tmp_path / "run"
        code = run("evaluate", *corpus_flags(corpus), "--out", out, *models, "--weight", weight)
        assert code == 2
        assert f"--weight must be a number in [0,1] or 'tune', got {weight!r}" in (
            capsys.readouterr().err
        )
        assert not out.exists()

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
        # each model once, then the corpus store once
        assert [str(p) for p in reads] == [
            str(trained / name)
            for name in ("models/cnn.model", "models/gbc.model", "manifests/corpus.cpmf")
        ]

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
    assert not (out / "train-gbc.run.meta").exists()


def test_gbc_ending_above_its_initial_loss_is_training_error(corpus, tmp_path, capsys):
    # finite scores throughout, but the train log-loss climbs from 1.0629 to 5.2331
    out = tmp_path / "run"
    assert run("ingest", *corpus_flags(corpus), "--out", out, "--seed", 1) == 0
    code = run("train", "gbc", *corpus_flags(corpus), "--out", out,
               "--gbc-lr", "1e10", "--max-depth", 2, "--n-estimators", 20)
    assert code == 3
    err = capsys.readouterr().err
    assert "log-loss 5.2331 is above the initial 1.0629" in err
    assert not (out / "models" / "gbc.model").exists()
    assert not (out / "train-gbc.run.meta").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_cnn_validation_loss_is_training_error(tmp_path, capsys):
    # lr 1e30: one finite training step, then NaN validation probabilities;
    # keeping the final parameters wrote a model that evaluate refused
    flags = ["--pairs", tmp_path / "pairs.csv", "--info", tmp_path / "info.csv",
             "--target", tmp_path / "target.csv", "--out", tmp_path]
    assert run("generate", "--out", tmp_path, "--count", 30, "--n-obs", 40, "--seed", 3) == 0
    assert run("ingest", *flags, "--seed", 1) == 0
    code = run("train", "cnn", *flags, "--side", 32, "--channels", "1,1,1,1,1,1,1,1,1,1",
               "--epochs", 1, "--lr", "1e30")
    assert code == 3
    assert "non-finite validation log-loss at epoch 0" in capsys.readouterr().err
    assert not (tmp_path / "models" / "cnn.model").exists()
    assert not (tmp_path / "train-cnn.run.meta").exists()


@pytest.mark.parametrize("argv", [
    ["rasterize"],
    ["train", "cnn", "--channels", TINY_CHANNELS, "--epochs", 1],
], ids=["rasterize", "train-cnn"])
def test_side_too_large_to_allocate_is_input_error(corpus, tmp_path, capsys, argv):
    # a 40000000-pixel side asks numpy for 1.42 PiB per image, which it
    # refuses before allocating anything
    out = tmp_path / "run"
    assert run("ingest", *corpus_flags(corpus), "--out", out, "--seed", 1) == 0
    capsys.readouterr()
    assert run(*argv, *corpus_flags(corpus), "--out", out, "--side", 40_000_000) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "images of side 40000000 do not fit in memory" in err
    assert not (out / "images").exists() and not (out / "models").exists()


@pytest.mark.parametrize("command", ["generate", "rasterize"])
def test_unwritable_out_is_input_error(corpus, tmp_path, capsys, command):
    plain = tmp_path / "plain"
    plain.write_text("")
    if command == "generate":
        argv = ["generate", "--out", plain / "sub", "--count", 4, "--n-obs", 30]
        message = "Not a directory"
    else:
        assert run("ingest", *corpus_flags(corpus), "--out", tmp_path, "--seed", 1) == 0
        (tmp_path / "images").write_text("")
        argv = ["rasterize", *corpus_flags(corpus), "--out", tmp_path, "--side", 32]
        message = "File exists"
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_every_command_writes_its_run_meta(tmp_path):
    import hashlib

    from causalpairs import __version__

    gen, out = tmp_path / "gen", tmp_path / "run"
    flags = [*corpus_flags(gen), "--out", out]
    commands = {
        "generate": ["generate", "--out", gen, "--count", 48, "--n-obs", 60, "--seed", 5,
                     "--mix", "anm=0.4,linear=0.2,independent=0.2,common-cause=0.2",
                     "--cat-bins", 6],
        "ingest": ["ingest", *flags, "--seed", 1],
        "rasterize": ["rasterize", *flags, "--side", 16],
        "train-cnn": ["train", "cnn", *flags, "--side", 32, "--channels", TINY_CHANNELS,
                      "--epochs", 1, "--seed", 3],
        "train-gbc": ["train", "gbc", *flags, "--n-estimators", 2, "--augment"],
        "evaluate": ["evaluate", *flags, "--model", out / "models" / "cnn.model",
                     "--model2", out / "models" / "gbc.model", "--exclude-zero"],
        "sparse-sweep": [*TINY_SWEEP, *flags],
    }
    checksums = {}
    for stem, argv in commands.items():
        argv = [str(a) for a in argv]
        assert main(argv) == 0, stem
        if stem == "generate":
            meta_dir, expected = gen, {}
            checksums = {
                name: hashlib.sha256((gen / f"{name}.csv").read_bytes()).hexdigest()
                for name in ("pairs", "info", "target")
            }
        else:
            meta_dir, expected = out, checksums
        path = meta_dir / f"{stem}.run.meta"
        data = path.read_bytes()
        meta = json.loads(data)
        assert data == (json.dumps(meta, sort_keys=True, indent=1) + "\n").encode(), stem
        assert set(meta) == {"command", "package_version", "params", "input_checksums"}
        assert meta["command"] == path.name.removesuffix(".run.meta")
        assert meta["package_version"] == __version__
        params = vars(build_parser().parse_args(argv))
        del params["func"]
        assert meta["params"] == params, stem
        assert meta["input_checksums"] == expected, stem


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
            assert run("ingest", *corpus_flags(earlier), "--out", out, "--seed", 1) == 0
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
    # boosting draws no random numbers, so `train gbc --seed` feeds only the
    # check that refuses a negative seed; it is accepted because
    # bench/workloads.py passes it to both train commands
    allowed = set()
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
    ("count", ["generate", "--count", 0]),
    ("--mix", ["generate", "--count", 4, "--mix", "bogus=1.0"]),
    ("--mix", ["generate", "--count", 4, "--mix", "anm=0.5,linear=half"]),
    ("fractions", ["generate", "--count", 4, "--mix", "anm=nan"]),
    ("fractions", ["generate", "--count", 4, "--mix", "anm=-1,linear=2"]),
    ("--n-obs", ["generate", "--count", 4, "--n-obs", "5:x"]),
    ("--n-obs", ["generate", "--count", 4, "--n-obs", "5:6:7"]),
    ("--obs-counts", ["sparse-sweep", "--obs-counts", "10,x"]),
    ("bin count", ["rasterize", "--side", 1]),
    ("--channels", ["train", "cnn", "--channels", "4,4,4,4,4,x,4,4,4,4"]),
    ("bins", ["generate", "--count", 4, "--cat-bins", 0]),
    ("noise_scale", ["generate", "--count", 4, "--noise-scale", "nan"]),
    ("noise_scale", ["generate", "--count", 4, "--noise-scale", "inf"]),
    ("--seed must be >= 0, got -1", ["generate", "--count", 4, "--seed", -1]),
    ("--seed must be >= 0, got -1", ["ingest", "--seed", -1]),
    ("--seed must be >= 0, got -2", ["train", "cnn", "--seed", -2]),
    ("--seed must be >= 0, got -1", ["train", "gbc", "--seed", -1]),
    ("--seed must be >= 0, got -1", ["sparse-sweep", "--seed", -1]),
    ("learning_rate", ["train", "gbc", "--gbc-lr", "nan"]),
    ("learning_rate", ["train", "gbc", "--gbc-lr", "inf"]),
    ("learning_rate", ["train", "cnn", "--lr", "nan"]),
    ("learning_rate", ["train", "cnn", "--lr", "inf"]),
    ("momentum", ["train", "cnn", "--momentum", "1.0"]),
    ("momentum", ["train", "cnn", "--momentum", "nan"]),
], ids=[
    "count", "mechanism", "fraction", "nan-fraction", "negative-fraction",
    "n-obs", "n-obs-three", "obs-counts", "rasterize-side", "channels", "cat-bins-zero",
    "noise-scale-nan", "noise-scale-inf", "generate-negative-seed",
    "ingest-negative-seed", "train-cnn-negative-seed", "train-gbc-negative-seed",
    "sparse-sweep-negative-seed", "gbc-lr-nan", "gbc-lr-inf", "cnn-lr-nan", "cnn-lr-inf",
    "momentum-one", "momentum-nan",
])
def test_malformed_argument_text_is_configuration_error(corpus, tmp_path, match, argv):
    out = tmp_path / "run"
    argv = [str(a) for a in argv] + ["--out", str(out)]
    if argv[0] != "generate":
        assert run("ingest", *corpus_flags(corpus), "--out", out) == 0
        argv += [str(a) for a in corpus_flags(corpus)]
    args = build_parser().parse_args(argv)
    before = sorted((p, p.stat().st_mtime_ns) for p in tmp_path.rglob("*"))
    with pytest.raises(ConfigurationError, match=match):
        args.func(args)
    # refused before any output is written or any directory made: a fresh
    # --out of generate stays absent
    assert sorted((p, p.stat().st_mtime_ns) for p in tmp_path.rglob("*")) == before
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
    # the batch entry point stays the one a tracer can wrap and count
    from causalpairs import features

    ids = []
    original = features.extract_features

    def counted(instances):
        ids.extend(inst.id for inst in instances)
        return original(instances)

    monkeypatch.setattr(features, "extract_features", counted)
    flags = corpus_flags(corpus)
    assert run("ingest", *flags, "--out", tmp_path, "--seed", 1) == 0
    code = run("train", "gbc", *flags, "--out", tmp_path, "--augment", "--n-estimators", 2)
    assert code == 0
    n_train = len((tmp_path / "manifests" / "train.ids").read_text().split())
    assert len(ids) == 2 * n_train == len(set(ids))


def test_span_beyond_float64_rasterizes(tmp_path):
    import dataclasses

    from causalpairs import dataset, raster, synth

    # the span of x in one pair is 2e308, beyond float64; bins used to come
    # out of inf / inf as the int64 minimum, an IndexError
    instances = synth.generate_benchmark(40, n_obs_range=(40, 40), seed=2)
    wide = instances[5].x.copy()
    wide[3], wide[7] = 1e308, -1e308
    instances[5] = dataclasses.replace(instances[5], x=wide)
    flags = [tmp_path / name for name in ("pairs.csv", "info.csv", "target.csv")]
    dataset.write_pairs_files(instances, *flags)
    flags = [x for flag, path in zip(("--pairs", "--info", "--target"), flags)
             for x in (flag, path)]
    out = tmp_path / "run"
    assert run("ingest", *flags, "--out", out, "--seed", 1) == 0
    assert run("rasterize", *flags, "--out", out, "--side", 32) == 0
    assert run("train", "cnn", *flags, "--out", out, "--side", 32, "--channels",
               TINY_CHANNELS, "--epochs", 1, "--batch-size", 8) == 0
    image = raster.read_image(out / "images" / f"{instances[5].id}.pgm")
    # the two extremes land in the first and the last column
    assert image[:, 0].any() and image[:, -1].any()


# ---------------------------------------------------------------------------
# The corpus store: ingest parses the text once; train and evaluate load it.


def copied_corpus(corpus, dest, rename=None):
    """The corpus files copied to dest; rename=(old, new) changes one pair's id."""
    dest.mkdir()
    for name in ("pairs.csv", "info.csv", "target.csv"):
        data = (corpus / name).read_bytes()
        if rename:
            old, new = (pid.encode() + b"," for pid in rename)
            assert data.count(old) == 1
            data = data.replace(old, new)
        (dest / name).write_bytes(data)
    return dest


def mixed_kind_corpus(dest):
    """Corpus files holding num, cat and bin attributes, values at float64's edges."""
    rows = [
        ("n1", "num", "num", "-0.0 5e-324 1.7976931348623157e308 0.1 -2.5",
         "1 2 3 4 5", "1"),
        ("c1", "cat", "num", "7.5 -3 7.5 0.0 -0.0", "0.3 0.1 0.2 0.4 0.5", "-1"),
        ("b1", "bin", "cat", "0 1 1 0 1", "40 40 2 9007199254740993 2", "0"),
        ("c2", "cat", "bin", "3 3 3 1", "1 0 0 1", "1"),
        ("n2", "num", "bin", "1e-300 2e-300 -1e300 4", "0 0 1 1", "-1"),
    ]
    (dest / "pairs.csv").write_text("".join(f"{r[0]},{r[3]},{r[4]}\n" for r in rows))
    (dest / "info.csv").write_text("".join(f"{r[0]},{r[1]},{r[2]}\n" for r in rows))
    (dest / "target.csv").write_text("".join(f"{r[0]},{r[5]}\n" for r in rows))
    return dest


class TestCorpusStore:
    def test_round_trip_is_bit_exact(self, tmp_path):
        from causalpairs import cli, modelfile
        from causalpairs.dataset import read_pairs_files

        corpus = mixed_kind_corpus(tmp_path)
        assert run("ingest", *corpus_flags(corpus), "--out", tmp_path, "--seed", 1) == 0
        _, meta, _ = modelfile.read(tmp_path / "manifests" / "corpus.cpmf", "corpus")
        assert meta["ids"] == ["n1", "c1", "b1", "c2", "n2"]
        args = argparse.Namespace(out=tmp_path, **{
            name: corpus / f"{name}.csv" for name in ("pairs", "info", "target")
        })
        splits = cli._Corpus(args).load(("train", "val", "test"))
        loaded = sorted((i for part in splits for i in part), key=lambda i: meta["ids"].index(i.id))
        parsed = read_pairs_files(*(corpus / f"{n}.csv" for n in ("pairs", "info", "target")))
        assert {i.x_kind.value for i in loaded} | {i.y_kind.value for i in loaded} == {
            "num", "cat", "bin"
        }
        assert [i.id for i in loaded] == [i.id for i in parsed]
        for got, want in zip(loaded, parsed):
            assert (got.id, got.x_kind, got.y_kind, got.label) == (
                want.id, want.x_kind, want.y_kind, want.label
            )
            for a, b in ((got.x, want.x), (got.y, want.y)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert not a.flags.writeable

    def test_train_and_evaluate_parse_no_text(self, corpus, tmp_path, monkeypatch):
        # nor do rasterize and sparse-sweep: only ingest parses the text
        from causalpairs import dataset

        flags = corpus_flags(corpus)
        assert run("ingest", *flags, "--out", tmp_path, "--seed", 1) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("the corpus text was parsed")

        monkeypatch.setattr(dataset, "parse_pairs", refuse)
        assert run("rasterize", *flags, "--out", tmp_path, "--side", 32) == 0
        assert run(
            "train", "cnn", *flags, "--out", tmp_path, "--side", 32,
            "--channels", TINY_CHANNELS, "--epochs", 1, "--batch-size", 8,
        ) == 0
        assert run("train", "gbc", *flags, "--out", tmp_path, "--n-estimators", 2) == 0
        assert run(
            "evaluate", *flags, "--out", tmp_path,
            "--model", tmp_path / "models" / "cnn.model",
            "--model2", tmp_path / "models" / "gbc.model",
        ) == 0
        assert run(*TINY_SWEEP, *flags, "--out", tmp_path) == 0

    def test_run_meta_checksums_match_the_store(self, trained, corpus):
        from causalpairs import modelfile

        _, meta, _ = modelfile.read(trained / "manifests" / "corpus.cpmf", "corpus")
        for command in ("ingest", "train-cnn", "train-gbc"):
            run_meta = json.loads((trained / f"{command}.run.meta").read_text())
            assert run_meta["input_checksums"] == meta["input_checksums"]
        assert sorted(meta["input_checksums"]) == ["info", "pairs", "target"]

    @pytest.mark.parametrize("name", ["pairs.csv", "info.csv", "target.csv"])
    def test_corpus_edited_after_ingest_is_input_error(self, corpus, tmp_path, capsys, name):
        corpus = copied_corpus(corpus, tmp_path / "corpus")
        out = tmp_path / "run"
        assert run("ingest", *corpus_flags(corpus), "--out", out, "--seed", 1) == 0
        # the same rows, other bytes
        with open(corpus / name, "ab") as f:
            f.write(b"\n")
        capsys.readouterr()
        for argv in (["train", "gbc", "--n-estimators", 2], ["rasterize"], TINY_SWEEP):
            assert run(*argv, *corpus_flags(corpus), "--out", out) == 2
            err = capsys.readouterr().err
            assert "stored for other corpus files" in err and "run `causalpairs ingest`" in err
        assert sorted(p.name for p in out.iterdir()) == ["ingest.run.meta", "manifests"]

    @pytest.mark.parametrize("damage", ["missing", "flipped", "truncated", "magic"])
    def test_unusable_store_is_input_error(self, corpus, trained, tmp_path, capsys, damage):
        import shutil

        out = tmp_path / "run"
        shutil.copytree(trained, out)
        store = out / "manifests" / "corpus.cpmf"
        data = store.read_bytes()
        if damage == "missing":
            store.unlink()
        elif damage == "flipped":
            store.write_bytes(data[:200] + bytes([data[200] ^ 1]) + data[201:])
        elif damage == "magic":
            store.write_bytes(bytes([data[0] ^ 1]) + data[1:])
        else:
            store.write_bytes(data[: len(data) // 2])
        capsys.readouterr()
        for argv in (
            ["rasterize"],
            ["train", "gbc", "--n-estimators", 2],
            ["evaluate", "--model", out / "models" / "gbc.model"],
            TINY_SWEEP,
        ):
            assert run(*argv, *corpus_flags(corpus), "--out", out) == 2
            err = capsys.readouterr().err
            assert "run `causalpairs ingest`" in err and "Traceback" not in err
            # a store is written again by ingest, not retrained, and it is
            # called a corpus store, not a model file
            assert "retrain" not in err and "model" not in err

    def test_every_manifest_is_checked_against_the_store(self, corpus, tmp_path, capsys):
        # train builds only its train and val pairs, but an unknown test id still fails
        assert run("ingest", *corpus_flags(corpus), "--out", tmp_path, "--seed", 1) == 0
        with open(tmp_path / "manifests" / "test.ids", "a") as f:
            f.write("no-such-pair\n")
        capsys.readouterr()
        assert run("train", "gbc", *corpus_flags(corpus), "--out", tmp_path) == 2
        assert "manifest ids missing from corpus: ['no-such-pair']" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest,source", [("train", "test"), ("train", "train")],
                             ids=["across-manifests", "within-one"])
    def test_an_id_listed_twice_is_input_error(self, corpus, tmp_path, capsys, manifest, source):
        # a test pair listed in train.ids too would be trained on
        assert run("ingest", *corpus_flags(corpus), "--out", tmp_path, "--seed", 1) == 0
        mdir = tmp_path / "manifests"
        pid = (mdir / f"{source}.ids").read_text().split()[0]
        with open(mdir / f"{manifest}.ids", "a") as f:
            f.write(pid + "\n")
        capsys.readouterr()
        assert run("train", "gbc", *corpus_flags(corpus), "--out", tmp_path) == 2
        assert f"manifest ids listed more than once: [{pid!r}]" in capsys.readouterr().err

    def test_ingest_writes_identical_stores(self, corpus, tmp_path):
        stores = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("ingest", *corpus_flags(corpus), "--out", out, "--seed", 1) == 0
            stores.append((out / "manifests" / "corpus.cpmf").read_bytes())
        assert stores[0] == stores[1]


def test_empty_train_manifest_is_input_error(corpus, tmp_path, capsys):
    assert run("ingest", *corpus_flags(corpus), "--out", tmp_path, "--seed", 1) == 0
    (tmp_path / "manifests" / "train.ids").write_text("")
    assert run("train", "gbc", *corpus_flags(corpus), "--out", tmp_path) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_empty_val_manifest_is_input_error_when_tuning(corpus, trained, tmp_path, capsys):
    import shutil

    out = tmp_path / "run"
    shutil.copytree(trained, out)
    (out / "manifests" / "val.ids").write_text("")
    code = run(
        "evaluate", *corpus_flags(corpus), "--out", out,
        "--model", out / "models" / "cnn.model",
        "--model2", out / "models" / "gbc.model", "--weight", "tune",
    )
    assert code == 2
    assert "cannot tune on an empty validation set" in capsys.readouterr().err


def test_non_utf8_manifest_is_input_error(corpus, trained, tmp_path, capsys):
    import shutil

    out = tmp_path / "run"
    shutil.copytree(trained, out)
    manifest = out / "manifests" / "test.ids"
    manifest.write_bytes(manifest.read_bytes() + b"pair\xff\n")
    code = run(
        "evaluate", *corpus_flags(corpus), "--out", out,
        "--model", out / "models" / "gbc.model",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and "not UTF-8" in err


class TestSparseSweep:
    def test_table_and_clamp_warning(self, corpus, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run("ingest", *corpus_flags(corpus), "--out", out, "--seed", 1) == 0
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
            assert run("ingest", *corpus_flags(corpus), "--out", out, "--seed", 2) == 0
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

    def test_fits_and_scores_on_the_ingested_split(self, corpus, tmp_path, monkeypatch):
        # other fractions and another seed than the sweep's: the manifests rule
        from causalpairs import cli

        assert run(
            "ingest", *corpus_flags(corpus), "--out", tmp_path, "--seed", 3,
            "--train-frac", 0.5, "--val-frac", 0.25,
        ) == 0
        seen = {"train": [], "val": [], "test": []}
        fit_cnn, fit_gbc, model_probs = cli._fit_cnn, cli._fit_gbc, cli._model_probs

        def record_cnn(args, train_insts, val_insts):
            seen["train"].append([i.id for i in train_insts])
            seen["val"].append([i.id for i in val_insts])
            return fit_cnn(args, train_insts, val_insts)

        def record_gbc(args, train_insts):
            seen["train"].append([i.id for i in train_insts])
            return fit_gbc(args, train_insts)

        def record_probs(model, instances):
            seen["test"].append([i.id for i in instances])
            return model_probs(model, instances)

        monkeypatch.setattr(cli, "_fit_cnn", record_cnn)
        monkeypatch.setattr(cli, "_fit_gbc", record_gbc)
        monkeypatch.setattr(cli, "_model_probs", record_probs)
        flags = [*corpus_flags(corpus), "--out", tmp_path, "--obs-counts", "20,30", "--seed", 1]
        assert run(*TINY_SWEEP, *flags) == 0
        for part, calls in seen.items():
            listed = (tmp_path / "manifests" / f"{part}.ids").read_text().split()
            # two counts; both models use train and test, only the CNN val
            assert calls == [listed] * (2 if part == "val" else 4), part

    @pytest.mark.parametrize("argv", [["rasterize"], TINY_SWEEP], ids=["rasterize", "sweep"])
    def test_without_ingest_is_input_error(self, corpus, tmp_path, capsys, argv):
        assert run(*argv, *corpus_flags(corpus), "--out", tmp_path) == 2
        err = capsys.readouterr().err
        assert "run `causalpairs ingest` first" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


def run_python(*args, env=(), cwd=None):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, **dict(env), "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120, cwd=cwd,
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


def test_bench_tracer_finds_every_entry_point():
    # bench/child.py wraps the package's functions by name; a rename would
    # otherwise fail only the minute-long bench tests
    bench = Path(__file__).resolve().parents[1] / "bench"
    proc = run_python(
        "-c", f"import sys; sys.path.insert(0, {str(bench)!r}); "
        "import child, spans; child.install(spans.Tracer(), [])",
    )
    assert proc.returncode == 0, proc.stderr


def test_reports_are_utf8_under_any_locale(corpus, tmp_path):
    # pair00003 falls in the seed-1 train split
    renamed = copied_corpus(corpus, tmp_path / "corpus", rename=("pair00003", "pair\u00e903"))
    flags = [str(a) for a in corpus_flags(renamed)]
    outputs = []
    locales = {"utf8": {"PYTHONUTF8": "1"}, "ascii": {"PYTHONUTF8": "0", "LC_ALL": "C"}}
    for name, env in locales.items():
        out = tmp_path / name
        for argv in (
            ["ingest", "--seed", "1"],
            ["rasterize", "--side", "16"],
            ["train", "gbc", "--n-estimators", "2"],
            ["evaluate", "--model", str(out / "models" / "gbc.model"), "--split", "train"],
        ):
            proc = run_python("-m", "causalpairs.cli", *argv, *flags, "--out", str(out), env=env)
            assert proc.returncode == 0, proc.stderr
        # run.meta records the --out path, which differs
        outputs.append({
            p.relative_to(out): p.read_bytes()
            for p in out.rglob("*") if p.is_file() and p.suffix != ".meta"
        })
    assert outputs[0] == outputs[1]
    assert "\npair\u00e903,".encode() in outputs[0][Path("reports/predictions.csv")]
    assert Path("images/pair\u00e903.pgm") in outputs[0]


@pytest.mark.parametrize("pid", ["", "../../escaped", "pair\0"], ids=["empty", "path", "nul"])
def test_unsafe_pair_id_is_input_error(corpus, tmp_path, capsys, pid):
    renamed = copied_corpus(corpus, tmp_path / "corpus", rename=("pair00003", pid))
    out = tmp_path / "run"
    assert run("ingest", *corpus_flags(renamed), "--out", out) == 2
    err = capsys.readouterr().err
    assert f"instance id {pid!r} must be non-empty" in err
    assert not out.exists()


def test_unsafe_pair_id_in_the_store_is_input_error(corpus, tmp_path, capsys):
    from causalpairs import modelfile

    out = tmp_path / "run" / "out"
    assert run("ingest", *corpus_flags(corpus), "--out", out, "--seed", 1) == 0
    store = out / "manifests" / "corpus.cpmf"
    _, meta, arrays = modelfile.read(store, "corpus")
    meta["ids"][meta["ids"].index("pair00003")] = "../../escaped"
    modelfile.write(store, "corpus", meta, arrays)
    train_ids = out / "manifests" / "train.ids"
    train_ids.write_text(train_ids.read_text().replace("pair00003", "../../escaped"))
    capsys.readouterr()
    assert run("rasterize", *corpus_flags(corpus), "--out", out, "--side", 32) == 2
    assert "instance id '../../escaped' must be non-empty" in capsys.readouterr().err
    assert not list((tmp_path / "run").rglob("*.pgm"))


def test_outputs_are_the_same_at_1_and_2_blas_threads(tmp_path):
    # OpenBLAS may split a GEMM between threads; every output must keep its
    # bytes.  The thread count is fixed when numpy loads, so each count runs
    # the whole pipeline in its own process.
    corpus = ["--pairs", "pairs.csv", "--info", "info.csv", "--target", "target.csv", "--out", "."]
    pipeline = [
        ["generate", "--out", ".", "--count", "60", "--n-obs", "80", "--seed", "5"],
        ["ingest", *corpus, "--seed", "1"],
        ["train", "cnn", *corpus, "--side", "32", "--channels", "8,8,16,16,16,16,32,32,32,32",
         "--epochs", "1", "--seed", "1", "--augment"],
        ["train", "gbc", *corpus, "--n-estimators", "3", "--augment"],
        ["evaluate", *corpus, "--model", "models/cnn.model", "--model2", "models/gbc.model"],
    ]
    script = (
        "import json, sys; from causalpairs.cli import main; "
        "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))"
    )
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        proc = run_python("-c", script, json.dumps(pipeline), env=env, cwd=out)
        assert proc.returncode == 0, proc.stderr
        outputs.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert Path("models/cnn.model") in outputs[0] and Path("reports/report.txt") in outputs[0]
    assert outputs[0] == outputs[1]
