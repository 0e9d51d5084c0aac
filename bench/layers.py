"""Per-layer metrics: how each is derived from traced spans.

Their names and units are declared once, in BENCHMARK.json's ``per_layer``
list.

Names ending in ``_self_s`` and the leaf layers (``nnet.*``,
``boosting.best_split_s``, ``boosting.apply_s``, ``dataset.parse_pairs_s``)
are self time.  ``cnn.train_cnn_s``, ``cnn.predict_batch_s``,
``boosting.gbc_fit_s``, ``boosting.gbc_predict_batch_s`` and
``ensemble.*`` include the layers they call.  Calls made from the CLI
thread pool (``features.*``, ``raster.rasterize_s``) are busy time, the
sum over calls, except ``features.extract_wall_s``, the union of their
intervals.  ``raster.write_image_s`` and ``synth.generate_benchmark_s``
come from the traced set-up, the only place those layers run; every other
figure comes from the traced timed command.
"""

from spans import LayerStats

# Counts that must repeat exactly between two traced runs of the same code.
EXACT_COUNTS = (
    "boosting.best_split.calls",
    "boosting.tree_nodes",
    "boosting.fit_tree.calls",
    "nnet.conv.calls",
    "nnet.conv.gflop",
    "features.extract.calls",
)


def layer_metrics(stats: dict, setup_stats: dict, serial_extract_s: float) -> dict:
    """Every per-layer metric except cli.import_s and trace.overhead_s."""

    def st(name, source=stats):
        return source.get(name, LayerStats())

    conv_f, conv_b = st("nnet.conv.forward"), st("nnet.conv.backward")
    conv_s = conv_f.self_s + conv_b.self_s
    gflop = (conv_f.attrs.get("flop", 0) + conv_b.attrs.get("flop", 0)) / 1e9
    train = st("cnn.train_cnn")
    fit_tree = st("boosting.fit_tree")
    extract = st("features.extract")
    m = {
        "nnet.conv.forward_s": conv_f.self_s,
        "nnet.conv.backward_s": conv_b.self_s,
        "nnet.conv.calls": conv_f.calls + conv_b.calls,
        "nnet.conv.gflop": gflop,
        "nnet.conv.gflop_per_s": gflop / conv_s if conv_s else 0.0,
    }
    for layer in ("pool", "relu", "dense"):
        for phase in ("forward", "backward"):
            m[f"nnet.{layer}.{phase}_s"] = st(f"nnet.{layer}.{phase}").self_s
    m.update({
        "nnet.sgd_step_s": st("nnet.sgd_step").self_s,
        "cnn.train_cnn_s": train.busy_s,
        "cnn.train_self_s": train.self_s,
        "cnn.train_images_per_s": (
            train.attrs.get("images", 0) / train.busy_s if train.busy_s else 0.0
        ),
        "cnn.predict_batch_s": st("cnn.predict_batch").busy_s,
        "boosting.best_split_s": st("boosting.best_split").self_s,
        "boosting.best_split.calls": st("boosting.best_split").calls,
        "boosting.fit_tree_self_s": fit_tree.self_s,
        "boosting.fit_tree.calls": fit_tree.calls,
        "boosting.tree_nodes": fit_tree.attrs.get("nodes", 0),
        "boosting.gbc_fit_s": st("boosting.gbc_fit").busy_s,
        "boosting.apply_s": st("boosting.apply").self_s,
        "boosting.gbc_predict_batch_s": st("boosting.gbc_predict_batch").busy_s,
        "features.extract_busy_s": extract.busy_s,
        "features.extract_wall_s": extract.wall_s,
        "features.extract.calls": extract.calls,
        # serial extraction of the same inputs over the pooled wall time
        "cli.pool_speedup": serial_extract_s / extract.wall_s if extract.wall_s else 0.0,
        "dataset.parse_pairs_s": st("dataset.parse_pairs").self_s,
        "raster.rasterize_s": st("raster.rasterize").busy_s,
        "raster.read_image_s": st("raster.read_image").busy_s,
        "raster.write_image_s": st("raster.write_image", setup_stats).busy_s,
        "synth.generate_benchmark_s": st("synth.generate_benchmark", setup_stats).busy_s,
        "ensemble.tune_weight_s": st("ensemble.tune_weight").busy_s,
        "ensemble.auc_s": st("ensemble.auc").busy_s,
    })
    return m
