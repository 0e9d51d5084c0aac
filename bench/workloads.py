"""The benchmark's workloads: corpus, set-up steps and the timed CLI command.

Every command runs with the work directory as its current directory, so
the corpus is ``pairs.csv``/``info.csv``/``target.csv`` and ``--out`` is
``.``; the generated ``run.meta`` files therefore do not depend on where
the work directory lives.

Standard library only: the generator process imports this module and
must stay small, because a child's peak RSS as reported by ``wait4`` can
include its parent's footprint.
"""

from dataclasses import dataclass

CHANNELS = "8,8,16,16,16,16,32,32,32,32"
SIDE = 64
QUICK_CHANNELS = "2,2,2,2,2,2,2,2,2,2"
QUICK_SIDE = 32

CORPUS = ("--pairs", "pairs.csv", "--info", "info.csv", "--target", "target.csv", "--out", ".")


@dataclass(frozen=True)
class Workload:
    name: str
    count: int                  # pairs generated with synth.generate_benchmark
    n_obs: tuple                # inclusive range of observations per pair
    categorical_every: int      # every k-th pair made categorical; 0 for none
    train_frac: float
    val_frac: float
    setup: tuple                # CLI argv lists run in-process after ingest
    timed: tuple                # CLI argv lists run one after another: one timed operation
    verify: tuple | None        # untimed evaluate of the new models, if any
    models: tuple               # model files the run must load
    artifacts: tuple            # deterministic outputs of the timed commands
    item_unit: str              # what items_per_s counts

    def items(self, n_train: int, n_val: int, n_test: int) -> int:
        """Work done by one timed operation at this size."""
        if self.name == "train":
            # augmented images x epochs for the CNN, augmented rows for the GBC
            return 2 * n_train * self.epochs + 2 * n_train
        return n_val + n_test                 # pairs scored by each model

    @property
    def epochs(self) -> int:
        cnn = next(argv for argv in self.timed if argv[:2] == ("train", "cnn"))
        return int(cnn[cnn.index("--epochs") + 1])


NAMES = ("train", "evaluate")


def build(name: str, seed: int, quick: bool = False) -> Workload:
    side = QUICK_SIDE if quick else SIDE
    channels = QUICK_CHANNELS if quick else CHANNELS
    cnn_flags = ("--side", str(side), "--channels", channels, "--seed", str(seed))
    if name == "train":
        # 280 training pairs (560 augmented) as in a 70/15/15 split of 400,
        # but a test split of 350 pairs, so that the quality figures vary
        # less from seed to seed.  Both models of the paper's ensemble are
        # trained, one CLI command each.
        return Workload(
            name=name,
            count=60 if quick else 700,
            n_obs=(100, 100) if quick else (500, 500),
            categorical_every=0,
            train_frac=0.4,
            val_frac=0.1,
            setup=(("rasterize", *CORPUS, "--side", str(side)),),
            timed=(
                ("train", "cnn", *CORPUS, *cnn_flags, "--epochs", "1", "--augment"),
                ("train", "gbc", *CORPUS, "--seed", str(seed), "--augment",
                 "--n-estimators", "3" if quick else "30"),
            ),
            # a fixed weight, so that a CNN that goes wrong lowers the
            # ensemble's quality instead of being tuned away
            verify=("evaluate", *CORPUS, "--model", "models/cnn.model",
                    "--model2", "models/gbc.model", "--weight", "0.5"),
            models=("models/cnn.model", "models/gbc.model"),
            artifacts=("models/cnn.model", "reports/cnn_train_log.csv",
                       "models/gbc.model", "reports/gbc_train_log.csv"),
            item_unit="training images x epochs plus training rows",
        )
    if name == "evaluate":
        return Workload(
            name=name,
            count=80 if quick else 600,
            n_obs=(60, 120) if quick else (200, 1000),
            categorical_every=4,
            train_frac=0.3 if quick else 0.15,
            val_frac=0.25,
            setup=(
                ("train", "cnn", *CORPUS, *cnn_flags, "--epochs", "1"),
                ("train", "gbc", *CORPUS, "--seed", str(seed), "--augment",
                 "--n-estimators", "3" if quick else "10"),
            ),
            timed=(("evaluate", *CORPUS, "--model", "models/cnn.model",
                    "--model2", "models/gbc.model", "--weight", "tune"),),
            verify=None,
            models=("models/cnn.model", "models/gbc.model"),
            artifacts=("reports/predictions.csv", "reports/report.txt"),
            item_unit="pairs scored",
        )
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
