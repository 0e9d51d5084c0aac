import json
import struct

import numpy as np
import pytest

from causalpairs import nnet
from causalpairs.cnn import (
    CnnArchitecture,
    CnnModel,
    TrainConfig,
    build_network,
    build_paper_arch,
    load_model,
    predict_batch,
    save_model,
    train_cnn,
)
from causalpairs.errors import ConfigurationError, InputError, ShapeError
from causalpairs.raster import ScatterImage

TINY_PLAN = ((4, 4),) * 5


def random_image(rng, side):
    return ScatterImage(
        pixels=rng.integers(0, 256, size=(side, side)).astype(np.uint8), m=side
    )


class TestArchitecture:
    def test_default_sides_from_200(self):
        arch = build_paper_arch(200)
        assert arch.spatial_sides() == [100, 50, 25, 12, 6]

    def test_sides_from_64(self):
        arch = build_paper_arch(64, TINY_PLAN)
        assert arch.spatial_sides() == [32, 16, 8, 4, 2]
        assert arch.flatten_length() == 2 * 2 * 4

    def test_layer_counts(self):
        net = build_network(build_paper_arch(32, TINY_PLAN), seed=0)
        kinds = [layer.kind for layer in net.layers]
        assert kinds.count("conv") == 10
        assert kinds.count("pool") == 5
        assert kinds.count("dense") == 4
        assert kinds[-1] == "softmax"
        dense_units = [l.units for l in net.layers if l.kind == "dense"]
        assert dense_units == [1024, 512, 25, 3]

    def test_too_small_input(self):
        with pytest.raises(ConfigurationError):
            build_paper_arch(16)

    def test_flatten_matches_network(self):
        for side in (32, 64, 96):
            arch = build_paper_arch(side, TINY_PLAN)
            net = build_network(arch, seed=1)
            first_dense = next(l for l in net.layers if l.kind == "dense")
            assert first_dense.in_features == arch.flatten_length()

    def test_stage_count_enforced(self):
        with pytest.raises(ConfigurationError):
            CnnArchitecture(stages=((4, 4),) * 4, input_side=64)


class TestPredict:
    def test_zero_weights_give_uniform(self):
        arch = build_paper_arch(32, TINY_PLAN)
        net = build_network(arch, seed=0)
        for _, param in net.parameters():
            param[...] = 0.0
        from causalpairs.cnn import CnnModel

        model = CnnModel(network=net, arch=arch)
        rng = np.random.default_rng(0)
        probs = predict_batch(model, [random_image(rng, 32) for _ in range(2)])
        assert probs == pytest.approx(np.full((2, 3), 1 / 3), abs=1e-12)

    def test_purity(self):
        arch = build_paper_arch(32, TINY_PLAN)
        from causalpairs.cnn import CnnModel

        model = CnnModel(network=build_network(arch, seed=5), arch=arch)
        rng = np.random.default_rng(1)
        img = random_image(rng, 32)
        a = predict_batch(model, [img])
        b = predict_batch(model, [img])
        assert a.tobytes() == b.tobytes()

    def test_distribution(self):
        arch = build_paper_arch(32, TINY_PLAN)
        from causalpairs.cnn import CnnModel

        model = CnnModel(network=build_network(arch, seed=5), arch=arch)
        rng = np.random.default_rng(2)
        probs = predict_batch(model, [random_image(rng, 32) for _ in range(4)])
        assert probs.shape == (4, 3) and probs.dtype == np.float64
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_output_is_validation_error(self):
        from causalpairs.errors import ValidationError

        arch = build_paper_arch(32, TINY_PLAN)
        model = CnnModel(network=build_network(arch, seed=5), arch=arch)
        for _, param in model.network.parameters():
            param[...] = 1e300
        rng = np.random.default_rng(3)
        with pytest.raises(ValidationError, match="out of range"):
            predict_batch(model, [random_image(rng, 32)])

    def test_size_mismatch(self):
        arch = build_paper_arch(32, TINY_PLAN)
        from causalpairs.cnn import CnnModel

        model = CnnModel(network=build_network(arch, seed=5), arch=arch)
        rng = np.random.default_rng(3)
        with pytest.raises(ShapeError):
            predict_batch(model, [random_image(rng, 64)])


def small_training_set(rng, n=8, side=32):
    data = []
    for i in range(n):
        label = (1, 0, -1)[i % 3]
        data.append((random_image(rng, side), label))
    return data


class TestTraining:
    def test_deterministic_rerun_same_model_bytes(self):
        rng = np.random.default_rng(4)
        data = small_training_set(rng)
        arch = build_paper_arch(32, TINY_PLAN)
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.005, seed=7)
        m1, h1 = train_cnn(data, data[:3], arch, cfg)
        m2, h2 = train_cnn(data, data[:3], arch, cfg)
        assert h1[0].train_loss == h2[0].train_loss
        assert nnet.network_to_bytes(m1.network) == nnet.network_to_bytes(m2.network)

    def test_history_and_selection(self):
        rng = np.random.default_rng(5)
        data = small_training_set(rng)
        arch = build_paper_arch(32, TINY_PLAN)
        cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=0.005, seed=1)
        model, history = train_cnn(data, data[:3], arch, cfg)
        assert len(history) == 3
        assert all(np.isfinite(m.train_loss) for m in history)
        assert model.train_config["epochs"] == 3
        assert model.data_checksum

    def test_label_mapping_round_trip(self):
        # labels {1,0,-1} map to class indices {0,1,2}: an image trained
        # toward one label should predict it back through the same mapping
        rng = np.random.default_rng(6)
        data = small_training_set(rng, n=6)
        arch = build_paper_arch(32, TINY_PLAN)
        model, _ = train_cnn(
            data, [], arch, TrainConfig(epochs=1, batch_size=6, learning_rate=1e-4, seed=2)
        )
        assert model.label_to_class == {1: 0, 0: 1, -1: 2}

    def test_empty_training_set(self):
        arch = build_paper_arch(32, TINY_PLAN)
        from causalpairs.errors import ValidationError

        with pytest.raises(ValidationError):
            train_cnn([], [], arch, TrainConfig(epochs=1))


class TestModelFile:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        data = small_training_set(rng, n=6)
        arch = build_paper_arch(32, TINY_PLAN)
        model, _ = train_cnn(
            data, data[:2], arch,
            TrainConfig(epochs=1, batch_size=3, learning_rate=0.001, seed=3),
        )
        path = tmp_path / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.arch == model.arch
        assert loaded.label_to_class == model.label_to_class
        assert loaded.train_config == model.train_config
        assert loaded.data_checksum == model.data_checksum
        assert nnet.network_to_bytes(loaded.network) == nnet.network_to_bytes(model.network)

    def test_save_twice_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(8)
        data = small_training_set(rng, n=6)
        arch = build_paper_arch(32, TINY_PLAN)
        model, _ = train_cnn(
            data, [], arch, TrainConfig(epochs=1, batch_size=3, learning_rate=0.001, seed=4)
        )
        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()


def small_arch(channels=2):
    return CnnArchitecture(stages=((channels, channels),) * 5, dense_units=(4, 4, 4),
                           input_side=32)


@pytest.fixture(scope="module")
def small_model_file(tmp_path_factory):
    """Bytes of a side-32 model with 2 channels per conv and 4-unit dense layers."""
    path = tmp_path_factory.mktemp("cnn") / "small.model"
    save_model(CnnModel(network=build_network(small_arch(), seed=1), arch=small_arch()), path)
    return path.read_bytes()


class TestCorruptModel:
    def load(self, tmp_path, data):
        path = tmp_path / "bad.model"
        path.write_bytes(data)
        return load_model(path)

    def test_small_model_loads(self, small_model_file, tmp_path):
        model = self.load(tmp_path, small_model_file)
        assert model.arch == small_arch()

    def test_every_truncation_is_input_error(self, small_model_file, tmp_path):
        path = tmp_path / "cut.model"
        for cut in range(len(small_model_file)):
            path.write_bytes(small_model_file[:cut])
            with pytest.raises(InputError):
                load_model(path)

    def test_trailing_bytes(self, small_model_file, tmp_path):
        with pytest.raises(InputError, match="trailing"):
            self.load(tmp_path, small_model_file + b"\0")

    def test_bad_version(self, small_model_file, tmp_path):
        data = small_model_file[:4] + struct.pack("<I", 2) + small_model_file[8:]
        with pytest.raises(InputError, match="version"):
            self.load(tmp_path, data)

    def test_unknown_layer_code(self, small_model_file, tmp_path):
        (meta_len,) = struct.unpack_from("<Q", small_model_file, 8)
        # model header, network magic, version and layer count
        code = 24 + meta_len + 12
        data = small_model_file[:code] + bytes([200]) + small_model_file[code + 1:]
        with pytest.raises(InputError, match="layer code"):
            self.load(tmp_path, data)

    def test_bad_metadata(self, small_model_file, tmp_path):
        (meta_len,) = struct.unpack_from("<Q", small_model_file, 8)
        meta = small_model_file[24:24 + meta_len]
        good = json.loads(meta)
        bad_side = dict(good, arch=dict(good["arch"], input_side="32"))
        for bad in (
            b"x" * meta_len,
            meta.replace(b'"data_checksum"', b'"data_checks0m"'),
            json.dumps(bad_side).encode(),
        ):
            data = small_model_file[:8] + struct.pack("<Q", len(bad)) + \
                small_model_file[16:24] + bad + small_model_file[24 + meta_len:]
            with pytest.raises(InputError, match="metadata"):
                self.load(tmp_path, data)

    def test_arch_disagreeing_with_layers(self, tmp_path):
        network = build_network(small_arch(), seed=1)
        for arch in (small_arch(channels=3), CnnArchitecture(
                stages=((2, 2),) * 5, dense_units=(4, 4, 5), input_side=32)):
            path = tmp_path / "mismatch.model"
            save_model(CnnModel(network=network, arch=arch), path)
            with pytest.raises(InputError, match="does not match"):
                load_model(path)
