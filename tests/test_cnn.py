import hashlib
import struct
import tracemalloc

import numpy as np
import pytest

from causalpairs import cnn, modelfile, nnet
from causalpairs.cnn import (
    DEFAULT_CHANNEL_PLAN,
    CnnArchitecture,
    CnnModel,
    TrainConfig,
    build_network,
    load_model,
    predict_batch,
    save_model,
    train_cnn,
)
from causalpairs.errors import ConfigurationError, InputError, ShapeError, TrainingError
from causalpairs.probs import check_probs, log_loss

TINY_PLAN = ((4, 4),) * 5
TINY_ARCH = CnnArchitecture(stages=TINY_PLAN, input_side=32)


def random_images(rng, n, side=32):
    """A uint8 [n, side, side] stack of random images."""
    return rng.integers(0, 256, size=(n, side, side), dtype=np.uint8)


class TestArchitecture:
    def test_default_sides_from_200(self):
        # five poolings: 200 -> 100 -> 50 -> 25 -> 12 -> 6
        arch = CnnArchitecture(stages=DEFAULT_CHANNEL_PLAN, input_side=200)
        assert arch.flatten_length() == 6 * 6 * 256

    def test_sides_from_64(self):
        arch = CnnArchitecture(stages=TINY_PLAN, input_side=64)
        assert arch.flatten_length() == 2 * 2 * 4

    def test_layer_counts(self):
        net = build_network(TINY_ARCH, seed=0)
        kinds = [layer.kind for layer in net.layers]
        assert kinds.count("conv") == 10
        assert kinds.count("pool") == 5
        assert kinds.count("dense") == 4
        # the network applies the softmax itself
        assert kinds[-1] == "dense"
        dense_units = [l.units for l in net.layers if l.kind == "dense"]
        assert dense_units == [1024, 512, 25, 3]

    def test_too_small_input(self):
        with pytest.raises(ConfigurationError):
            CnnArchitecture(stages=DEFAULT_CHANNEL_PLAN, input_side=16)

    def test_flatten_matches_network(self):
        # odd sides too: each pooling drops a trailing row and column
        for side in (32, 64, 96, 100):
            arch = CnnArchitecture(stages=TINY_PLAN, input_side=side)
            net = build_network(arch, seed=1)
            flat = np.zeros((1, 1, side, side), dtype=np.float32)
            for layer in net.layers[: [l.kind for l in net.layers].index("dense")]:
                flat = layer.forward(flat)
            assert flat.shape == (1, arch.flatten_length())

    def test_stage_count_enforced(self):
        with pytest.raises(ConfigurationError):
            CnnArchitecture(stages=((4, 4),) * 4, input_side=64)

    def test_parameters_too_large_to_allocate_are_configuration_error(self):
        # 16 PiB of float32 parameters, which numpy refuses before allocating any
        arch = CnnArchitecture(stages=DEFAULT_CHANNEL_PLAN, input_side=2**22)
        with pytest.raises(ConfigurationError, match="do not fit in memory"):
            build_network(arch, seed=0)


class TestPredict:
    def test_zero_weights_give_uniform(self):
        arch = TINY_ARCH
        net = build_network(arch, seed=0)
        net.params[...] = 0.0
        from causalpairs.cnn import CnnModel

        model = CnnModel(network=net, arch=arch)
        rng = np.random.default_rng(0)
        probs = predict_batch(model, random_images(rng, 2))
        assert probs == pytest.approx(np.full((2, 3), 1 / 3), abs=1e-12)

    def test_purity(self):
        arch = TINY_ARCH
        from causalpairs.cnn import CnnModel

        model = CnnModel(network=build_network(arch, seed=5), arch=arch)
        rng = np.random.default_rng(1)
        img = random_images(rng, 1)
        a = predict_batch(model, img)
        b = predict_batch(model, img)
        assert a.tobytes() == b.tobytes()

    def test_distribution(self):
        arch = TINY_ARCH
        from causalpairs.cnn import CnnModel

        model = CnnModel(network=build_network(arch, seed=5), arch=arch)
        rng = np.random.default_rng(2)
        probs = predict_batch(model, random_images(rng, 4))
        assert probs.shape == (4, 3) and probs.dtype == np.float64
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9

    def test_no_images(self):
        model = CnnModel(network=build_network(TINY_ARCH, seed=5), arch=TINY_ARCH)
        probs = predict_batch(model, np.zeros((0, 32, 32), dtype=np.uint8))
        assert probs.shape == (0, 3) and probs.dtype == np.float64

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_output_is_validation_error(self):
        from causalpairs.errors import ValidationError

        arch = TINY_ARCH
        model = CnnModel(network=build_network(arch, seed=5), arch=arch)
        model.network.params[...] = 1e300
        rng = np.random.default_rng(3)
        with pytest.raises(ValidationError, match="out of range"):
            predict_batch(model, random_images(rng, 1))

    def test_size_mismatch(self):
        arch = TINY_ARCH
        from causalpairs.cnn import CnnModel

        model = CnnModel(network=build_network(arch, seed=5), arch=arch)
        rng = np.random.default_rng(3)
        for images in (random_images(rng, 1, 64), random_images(rng, 2)[:, None],
                       random_images(rng, 1)[0]):
            with pytest.raises(ShapeError, match="do not match model side 32"):
                predict_batch(model, images)


def small_training_set(rng, n=8, side=32):
    """(uint8 [n, side, side] image stack, labels cycling through 1, 0, -1)."""
    return random_images(rng, n, side), [(1, 0, -1)[i % 3] for i in range(n)]


@pytest.mark.parametrize("momentum", [1.0, -0.1, float("nan")])
def test_momentum_outside_unit_interval_is_configuration_error(momentum):
    with pytest.raises(ConfigurationError, match="momentum must be in"):
        TrainConfig(momentum=momentum)


class TestTraining:
    def test_deterministic_rerun_same_model_bytes(self):
        rng = np.random.default_rng(4)
        px, labels = small_training_set(rng)
        arch = TINY_ARCH
        cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.005, seed=7)
        m1, h1 = train_cnn(px, labels, arch, cfg, px[:3], labels[:3])
        m2, h2 = train_cnn(px, labels, arch, cfg, px[:3], labels[:3])
        assert h1[0].train_loss == h2[0].train_loss
        assert m1.network.params.tobytes() == m2.network.params.tobytes()

    def test_history_and_selection(self):
        rng = np.random.default_rng(5)
        px, labels = small_training_set(rng)
        arch = TINY_ARCH
        cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=0.005, seed=1)
        model, history = train_cnn(px, labels, arch, cfg, px[:3], labels[:3])
        assert len(history) == 3
        assert all(np.isfinite(m.train_loss) for m in history)

    # validation probabilities of the pairs labelled 1, 0, -1, per epoch
    SURE_BUT_WRONG_ONCE = [[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.2, 0.45, 0.35]]
    RIGHT_BUT_UNSURE = [[0.4, 0.3, 0.3], [0.3, 0.4, 0.3], [0.3, 0.3, 0.4]]
    UNIFORM = [[1 / 3] * 3] * 3

    @pytest.mark.parametrize("script, kept", [
        # accuracy 1, 2/3, 1/3: the best-accuracy epoch is 0, the lowest log-loss 1
        ([RIGHT_BUT_UNSURE, SURE_BUT_WRONG_ONCE, UNIFORM], 1),
        # a tie in log-loss keeps the earlier epoch
        ([SURE_BUT_WRONG_ONCE, UNIFORM, SURE_BUT_WRONG_ONCE], 0),
    ], ids=["log-loss-not-accuracy", "tie-keeps-earlier"])
    def test_keeps_the_epoch_of_lowest_validation_log_loss(self, monkeypatch, script, kept):
        rng = np.random.default_rng(7)
        px, labels = small_training_set(rng, n=6)
        val = random_images(rng, 3), [1, 0, -1]
        cfg = TrainConfig(epochs=3, batch_size=3, learning_rate=0.01, seed=4)
        seen = []

        def scripted(network, pixels, batch_size):
            seen.append(network.params.copy())
            return np.array(script[len(seen) - 1])

        monkeypatch.setattr(cnn, "_predict_classes", scripted)
        model, history = train_cnn(px, labels, TINY_ARCH, cfg, *val)
        assert len(seen) == 3 and not np.array_equal(seen[0], seen[1])
        assert model.network.params.tobytes() == seen[kept].tobytes()
        assert [m.val_log_loss for m in history] == [log_loss(np.array(p), [0, 1, 2]) for p in script]
        # with no validation data the final epoch is kept
        unvalidated, history = train_cnn(px, labels, TINY_ARCH, cfg)
        assert unvalidated.network.params.tobytes() == seen[-1].tobytes()
        assert all(np.isnan(m.val_log_loss) for m in history)

    def test_best_epoch_is_copied_into_one_buffer(self, monkeypatch):
        # validation log-loss falls in each of 3 epochs, so the kept
        # parameters are replaced twice.  params, grads, velocity and the
        # best epoch's copy are 4 params-sized vectors, and a step adds about
        # one chunk's buffers: 9.84 MB against a bound of 10.02 MB.  A new
        # copy at each improvement, made while the last one was alive,
        # peaked at 5 vectors, 10.93 MB.
        script = [self.UNIFORM, self.RIGHT_BUT_UNSURE, [[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]]]
        rng = np.random.default_rng(11)
        px, labels = small_training_set(rng, n=6)
        val = random_images(rng, 3), [1, 0, -1]
        cfg = TrainConfig(epochs=3, batch_size=3, learning_rate=0.01, seed=4)
        seen = []

        def scripted(network, pixels, batch_size):
            seen.append(hashlib.sha256(network.params).hexdigest())
            return np.array(script[len(seen) - 1])

        monkeypatch.setattr(cnn, "_predict_classes", scripted)
        tracemalloc.start()
        try:
            model, history = train_cnn(px, labels, TINY_ARCH, cfg, *val)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        losses = [m.val_log_loss for m in history]
        assert losses[0] > losses[1] > losses[2] and len(set(seen)) == 3
        assert hashlib.sha256(model.network.params).hexdigest() == seen[2]
        assert peak < 4 * model.network.params.nbytes + 1.25 * nnet._CHUNK_BYTES

    def test_last_epoch_is_not_copied(self):
        # one epoch with validation: params hold the best epoch at the end,
        # so no copy is made.  params, grads and velocity are 3 params-sized
        # vectors, and a step adds about one chunk's buffers: 7.23 MB against
        # a bound of 7.84 MB.  Copying the last epoch out and back peaked at
        # 4 vectors, 9.40 MB.
        rng = np.random.default_rng(11)
        px, labels = small_training_set(rng, n=6)
        val = random_images(rng, 3), [1, 0, -1]
        cfg = TrainConfig(epochs=1, batch_size=3, learning_rate=0.01, seed=4)
        tracemalloc.start()
        try:
            model, history = train_cnn(px, labels, TINY_ARCH, cfg, *val)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(history[0].val_log_loss)
        unvalidated, _ = train_cnn(px, labels, TINY_ARCH, cfg)
        assert model.network.params.tobytes() == unvalidated.network.params.tobytes()
        assert peak < 3 * model.network.params.nbytes + 1.25 * nnet._CHUNK_BYTES

    def test_label_mapping_round_trip(self, tmp_path):
        # labels {1,0,-1} map to class indices {0,1,2}, and the model file
        # records that mapping
        rng = np.random.default_rng(6)
        model, _ = train_cnn(
            *small_training_set(rng, n=6), TINY_ARCH,
            TrainConfig(epochs=1, batch_size=6, learning_rate=1e-4, seed=2),
        )
        save_model(model, tmp_path / "m.model")
        _, meta, _ = modelfile.read(tmp_path / "m.model", "cnn")
        assert meta["label_to_class"] == {"1": 0, "0": 1, "-1": 2}

    def test_empty_training_set(self):
        arch = TINY_ARCH
        from causalpairs.errors import ValidationError

        with pytest.raises(ValidationError):
            train_cnn(np.zeros((0, 32, 32), dtype=np.uint8), [], arch, TrainConfig(epochs=1))

    def test_images_that_do_not_match_their_labels_or_side_are_shape_error(self):
        px, labels = small_training_set(np.random.default_rng(8), n=4)
        cfg = TrainConfig(epochs=1, batch_size=4)
        for args in (
            (px, labels[:3]),
            (random_images(np.random.default_rng(9), 4, 64), labels),
            (px, labels, px[:2], labels[:1]),
            (px, labels, px[:2, :16, :16], labels[:2]),
        ):
            with pytest.raises(ShapeError, match="at model side 32"):
                train_cnn(*args[:2], TINY_ARCH, cfg, *args[2:])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_validation_loss_is_training_error(self):
        # lr 1e30: the one step's training loss is finite, the next
        # validation pass is not
        px, labels = small_training_set(np.random.default_rng(10), n=6)
        cfg = TrainConfig(epochs=1, batch_size=6, learning_rate=1e30, seed=1)
        with pytest.raises(TrainingError, match="non-finite validation log-loss at epoch 0"):
            train_cnn(px, labels, TINY_ARCH, cfg, px, labels)


class TestModelFile:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        px, labels = small_training_set(rng, n=6)
        arch = TINY_ARCH
        model, _ = train_cnn(
            px, labels, arch,
            TrainConfig(epochs=1, batch_size=3, learning_rate=0.001, seed=3),
            px[:2], labels[:2],
        )
        path = tmp_path / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.arch == model.arch
        assert loaded.network.params.tobytes() == model.network.params.tobytes()

    def test_save_twice_identical_bytes(self, tmp_path):
        rng = np.random.default_rng(8)
        arch = TINY_ARCH
        model, _ = train_cnn(
            *small_training_set(rng, n=6), arch,
            TrainConfig(epochs=1, batch_size=3, learning_rate=0.001, seed=4),
        )
        p1, p2 = tmp_path / "a.model", tmp_path / "b.model"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loading_holds_one_copy_of_the_parameters(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(CnnModel(network=build_network(TINY_ARCH, seed=3), arch=TINY_ARCH), path)
        tracemalloc.start()
        try:
            model = load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        params = model.network.params
        # the file's bytes, read once, and the gradient vector; copying the
        # file's array into fresh params added one more params.nbytes
        assert peak < path.stat().st_size + params.nbytes + (64 << 10)
        assert params.flags.writeable and params.flags.aligned


class TestForwardMemory:
    """Scoring holds one chunk of images' activations at a time."""

    # the benchmark's network (side 64, channels 8,8,16,16,16,16,32,32,32,32)
    ARCH = CnnArchitecture(stages=((8, 8), (16, 16), (16, 16), (32, 32), (32, 32)), input_side=64)
    # numpy's own small buffers, the chunks' flattened outputs and the dense head
    SLACK = 256 << 10

    @staticmethod
    def chunk_activations(network, side):
        """Bytes of a conv's input and output for one chunk, plus one patch buffer.

        A chunk's image count is set by the largest activation; the patch
        buffer holds at most nnet._CHUNK_BYTES, or one image's patches when
        those are larger.
        """
        a = np.zeros((1, 1, side, side), dtype=np.float32)
        largest, patches = 0, nnet._CHUNK_BYTES
        for layer in network.layers:
            if layer.kind == "conv":
                patches = max(patches, 9 * a.nbytes)
            a = layer.forward(a)
            largest = max(largest, a.nbytes)
        return 2 * (nnet._CHUNK_BYTES // largest) * largest + patches

    def test_forward_holds_one_activation_at_a_time(self):
        # one predict_batch batch of 64 in chunks of 8: 3.34 MB, against a
        # bound of 3.54 MB; the whole batch at once measured 18.0 MB
        network = build_network(self.ARCH, seed=0)
        xs = np.random.default_rng(11).random((64, 1, 64, 64), dtype=np.float32)
        bound = self.chunk_activations(network, 64) + self.SLACK
        tracemalloc.start()
        try:
            network.forward(xs)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound
        assert retained <= 4096

    def test_predict_batch_holds_uint8_pixels_and_one_float_batch(self):
        # 5.45 MB against a bound of 5.64 MB; a float32 copy of every image
        # and whole-batch activations measured 22.2 MB
        model = CnnModel(network=build_network(self.ARCH, seed=0), arch=self.ARCH)
        rng = np.random.default_rng(12)
        images = random_images(rng, 256, 64)
        pixels, batch = 256 * 64 * 64, 64 * 64 * 64 * 4
        bound = pixels + batch + self.chunk_activations(model.network, 64) + self.SLACK
        tracemalloc.start()
        try:
            predict_batch(model, images)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


    def test_scoring_through_the_cli_holds_the_pixels_once(self):
        # the CLI's image path, raster.rasterize_all's one stack scored by
        # predict_batch: 6.60 MB against a bound of 6.94 MB; a list of
        # per-image arrays stacked again by predict_batch measured 8.83 MB
        from causalpairs import cli, synth

        insts = synth.generate_benchmark(512, n_obs_range=(50, 50), seed=3)
        model = CnnModel(network=build_network(self.ARCH, seed=0), arch=self.ARCH)
        pixels, batch = 512 * 64 * 64, 64 * 64 * 64 * 4
        bound = pixels + batch + self.chunk_activations(model.network, 64) + 2 * self.SLACK
        tracemalloc.start()
        try:
            cli._model_probs(model, insts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestStepMemory:
    """A training step keeps what each backward reads and walks the conv front
    a chunk of images at a time."""

    @staticmethod
    def step_bytes(network, side, n):
        """Bytes that bound a float32 training step on n images.

        What the steps keep over the whole batch: each layer's input, but
        for the caller's images and each conv->ReLU output that feeds a
        conv, which is recomputed; a ReLU's input is its output, kept by
        the layer after it, and a pool keeps a byte per window.  Besides
        that, for one chunk of the largest activation, the kept or
        recomputed input, the output gradient and the input gradient, and
        one patch buffer, as in TestForwardMemory.
        """
        a = np.zeros((1, 1, side, side), dtype=np.float32)
        kept, largest, patches = 0, 0, nnet._CHUNK_BYTES
        layers = network.layers
        for i, layer in enumerate(layers):
            if layer.kind == "conv":
                patches = max(patches, 9 * a.nbytes)
            recomputed = layer.kind == "conv" and layers[i - 1].kind == "relu"
            if i > 0 and layer.kind not in ("relu", "pool") and not recomputed:
                kept += a.nbytes
            a = layer.forward(a)
            if layer.kind == "pool":
                kept += a.size
            largest = max(largest, a.nbytes)
        return n * kept + 3 * (nnet._CHUNK_BYTES // largest) * largest + patches

    def test_benchmark_network_step(self):
        # 5.88 MiB against a bound of 6.71 MiB.  Sweeping the whole batch
        # measured 13.27 MiB, the chunk walk keeping every ReLU output that
        # feeds a conv 11.00 MiB, and recomputing only the first 8.00 MiB.
        network = build_network(TestForwardMemory.ARCH, seed=0)
        x = np.random.default_rng(13).random((32, 1, 64, 64), dtype=np.float32)
        classes = np.arange(32) % 3
        bound = self.step_bytes(network, 64, 32) + TestForwardMemory.SLACK
        network.loss_and_backward(x, classes)
        tracemalloc.start()
        try:
            network.loss_and_backward(x, classes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestFloat32:
    """The network computes in float32; its softmax and probabilities are float64."""

    @staticmethod
    def record_outputs(network):
        """Wrap every layer's forward and backward to log (kind, pass, output dtype)."""
        log = []
        for layer in network.layers:
            for name in ("forward", "backward"):
                def wrapped(*args, _call=getattr(layer, name), _key=(layer.kind, name), **kw):
                    out = _call(*args, **kw)
                    log.append((*_key, None if out is None else out.dtype))
                    return out

                setattr(layer, name, wrapped)
        return log

    def test_built_and_loaded_networks_are_float32(self, tmp_path, monkeypatch):
        arch = TINY_ARCH
        save_model(CnnModel(network=build_network(arch, seed=3), arch=arch), tmp_path / "m.model")
        rng = np.random.default_rng(9)
        # the batch that training hands to loss_and_backward
        batches = []
        step = nnet.Network.loss_and_backward
        monkeypatch.setattr(nnet.Network, "loss_and_backward",
                            lambda net, x, cls: batches.append((x, cls)) or step(net, x, cls))
        train_cnn(*small_training_set(rng, n=5), arch,
                  TrainConfig(epochs=1, batch_size=5, learning_rate=1e-4, seed=2))
        monkeypatch.undo()
        (xs, cls), = batches
        assert xs.dtype == np.float32
        built = build_network(arch, seed=3)
        loaded = load_model(tmp_path / "m.model").network
        for network in (built, loaded):
            assert network.params.dtype == np.float32
            log = self.record_outputs(network)
            _, probs = network.loss_and_backward(xs, cls)
            # every layer runs both passes, except the ReLU before each pool,
            # whose backward the pool's record does; the first conv forms no
            # input gradient.  The batch is one chunk, and the walk back runs
            # each stage's first conv and its ReLU forward once more, to
            # recompute their output.
            assert len(log) == 2 * len(network.layers) - cnn.N_STAGES + 2 * cnn.N_STAGES
            # the ReLU before each stage's second conv and the two in the dense head
            assert log.count(("relu", "backward", np.float32)) == cnn.N_STAGES + 2
            assert log[-1] == ("conv", "backward", None)
            assert all(dtype == np.float32 for _, _, dtype in log[:-1])
            assert probs.dtype == np.float64
            assert network.grads.dtype == np.float32

    def test_probabilities_are_float64(self):
        arch = TINY_ARCH
        model = CnnModel(network=build_network(arch, seed=4), arch=arch)
        rng = np.random.default_rng(10)
        probs = predict_batch(model, random_images(rng, 5))
        assert probs.dtype == np.float64 and probs.shape == (5, 3)
        check_probs(probs)  # raises on a row that is not a distribution

    def test_model_file_stores_float32(self, tmp_path):
        arch = TINY_ARCH
        network = build_network(arch, seed=5)
        save_model(CnnModel(network=network, arch=arch), tmp_path / "m.model")
        _, _, arrays = modelfile.read(tmp_path / "m.model", "cnn")
        assert arrays["params"].dtype.str == "<f4"
        assert arrays["params"].tobytes() == network.params.tobytes()


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

    def rewrite(self, tmp_path, small_model_file, edit, kind="cnn"):
        """Load a copy of the small model whose meta and arrays went through edit.

        The copy is written by modelfile.write, so its digest is valid.
        """
        path = tmp_path / "small.model"
        path.write_bytes(small_model_file)
        _, meta, arrays = modelfile.read(path, "cnn")
        arrays = dict(arrays)
        edit(meta, arrays)
        modelfile.write(path, kind, meta, arrays)
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
        with pytest.raises(InputError, match="checksum"):
            self.load(tmp_path, small_model_file + b"\0")

    def test_every_bit_flip_is_input_error(self, tmp_path):
        # one channel and one unit per layer keep the file, and the loop, small
        arch = CnnArchitecture(stages=((1, 1),) * 5, dense_units=(1, 1, 1), input_side=32)
        path = tmp_path / "tiny.model"
        save_model(CnnModel(network=build_network(arch, seed=2), arch=arch), path)
        data = path.read_bytes()
        for bit in range(8 * len(data)):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(flipped)
            with pytest.raises(InputError):
                load_model(path)

    def test_bad_version(self, small_model_file, tmp_path):
        body = small_model_file[:4] + struct.pack("<I", 3) + small_model_file[8:-32]
        with pytest.raises(InputError, match="version"):
            self.load(tmp_path, body + hashlib.sha256(body).digest())

    def test_version_1_file(self, tmp_path):
        data = b"CPBM" + struct.pack("<IQQ", 1, 2, 0) + b"{}"
        with pytest.raises(InputError, match="retrain"):
            self.load(tmp_path, data)

    def test_wrong_kind(self, small_model_file, tmp_path):
        with pytest.raises(InputError, match="model file of kind 'gbc', expected cnn"):
            self.rewrite(tmp_path, small_model_file, lambda meta, arrays: None, kind="gbc")

    def test_non_finite_parameter(self, small_model_file, tmp_path):
        def edit(meta, arrays):
            arrays["params"] = np.where(np.arange(arrays["params"].size) == 5, np.nan, 0.0)

        with pytest.raises(InputError, match="non-finite"):
            self.rewrite(tmp_path, small_model_file, edit)

    @pytest.mark.parametrize("size", [-1, 1])
    def test_params_of_the_wrong_size(self, small_model_file, tmp_path, size):
        def edit(meta, arrays):
            n = arrays["params"].size + size
            arrays["params"] = np.zeros(n)

        with pytest.raises(InputError, match="CNN parameters, the arch needs"):
            self.rewrite(tmp_path, small_model_file, edit)

    def test_bad_label_map(self, small_model_file, tmp_path):
        def edit(meta, arrays):
            meta["label_to_class"] = {"1": 2, "0": 1, "-1": 0}

        with pytest.raises(InputError, match="label mapping"):
            self.rewrite(tmp_path, small_model_file, edit)

    def test_bad_metadata(self, small_model_file, tmp_path):
        edits = [
            lambda meta, arrays: meta["arch"].pop("input_side"),
            lambda meta, arrays: meta["arch"].update(input_side="32"),
            lambda meta, arrays: meta["arch"].update(input_side=16),
            lambda meta, arrays: meta["arch"]["stages"].__setitem__(0, [2, 2, 2]),
            lambda meta, arrays: meta["arch"].update(dense_units=[4.0, 4, 4]),
            lambda meta, arrays: meta.update(label_to_class={"one": 0}),
            lambda meta, arrays: arrays.pop("params"),
        ]
        for edit in edits:
            with pytest.raises(InputError, match="bad CNN model metadata"):
                self.rewrite(tmp_path, small_model_file, edit)

    def test_file_with_older_meta_keys_scores_the_same(self, small_model_file, tmp_path):
        def older(meta, arrays):
            meta["train_config"] = {"epochs": 30, "batch_size": 32, "learning_rate": 0.01,
                                    "momentum": 0.9, "seed": 0}
            meta["data_checksum"] = hashlib.sha256(b"training images").hexdigest()
            meta["arch"]["output_units"] = 3

        pixels = random_images(np.random.default_rng(3), 5)
        want = predict_batch(self.rewrite(tmp_path, small_model_file, lambda meta, arrays: None),
                             pixels)
        got = predict_batch(self.rewrite(tmp_path, small_model_file, older), pixels)
        assert got.tobytes() == want.tobytes()

    def test_arch_disagreeing_with_layers(self, tmp_path):
        network = build_network(small_arch(), seed=1)
        for arch in (small_arch(channels=3), CnnArchitecture(
                stages=((2, 2),) * 5, dense_units=(4, 4, 5), input_side=32)):
            path = tmp_path / "mismatch.model"
            save_model(CnnModel(network=network, arch=arch), path)
            with pytest.raises(InputError, match="the arch needs"):
                load_model(path)
