import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalpairs.ensemble import (
    WEIGHT_GRID,
    accuracy,
    auc_bidirectional,
    auc_bidirectional_parts,
    ensemble,
    predict_labels,
    rank_auc,
    signed_scores,
    tune_weight,
)
from causalpairs.errors import ConfigurationError, UndefinedMetricError, ValidationError
from causalpairs.probs import check_probs, label_classes, log_loss


def triple(p1, p0, pn):
    """One row of an [N, 3] probability array."""
    return [p1, p0, pn]


def probs(*rows):
    return np.array(rows, dtype=np.float64)


def pair_counting_auc(scores, positives):
    """O(n^2) oracle: fraction of (positive, negative) pairs ranked correctly,
    ties worth 1/2."""
    scores = np.asarray(scores, float)
    positives = np.asarray(positives, bool)
    pos = scores[positives]
    neg = scores[~positives]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_package_attribute_is_the_module():
    # the package root re-exports nothing, so no function shadows the module
    import inspect

    import causalpairs.ensemble

    assert inspect.ismodule(causalpairs.ensemble)
    assert causalpairs.ensemble.ensemble is ensemble


class TestEnsemble:
    def test_endpoints(self):
        pc = probs(triple(0.6, 0.3, 0.1))
        pg = probs(triple(0.2, 0.5, 0.3))
        assert np.array_equal(ensemble(pc, pg, 1.0), pc)
        assert np.array_equal(ensemble(pc, pg, 0.0), pg)

    def test_hand_combination(self):
        # 0.4*0.6+0.6*0.2 = 0.36, 0.4*0.3+0.6*0.5 = 0.42, 0.4*0.1+0.6*0.3 = 0.22
        out = ensemble(probs(triple(0.6, 0.3, 0.1)), probs(triple(0.2, 0.5, 0.3)), 0.4)
        assert out == pytest.approx(probs([0.36, 0.42, 0.22]), abs=1e-15)

    def test_output_is_distribution(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.dirichlet([1, 1, 1])
            b = rng.dirichlet([1, 1, 1])
            w = rng.uniform()
            out = ensemble(probs(a), probs(b), w)
            assert abs(out.sum() - 1.0) < 1e-12

    def test_rowwise(self):
        pc = probs(triple(0.6, 0.3, 0.1), triple(0.0, 0.0, 1.0))
        pg = probs(triple(0.2, 0.5, 0.3), triple(1.0, 0.0, 0.0))
        out = ensemble(pc, pg, 0.25)
        for i in range(2):
            assert out[i].tobytes() == ensemble(pc[i:i + 1], pg[i:i + 1], 0.25).tobytes()

    def test_idempotent_on_equal_inputs(self):
        p = probs(triple(0.2, 0.5, 0.3))
        for w in WEIGHT_GRID:
            assert ensemble(p, p, w) == pytest.approx(p)

    def test_weight_out_of_range(self):
        with pytest.raises(ConfigurationError):
            ensemble(probs(triple(1, 0, 0)), probs(triple(1, 0, 0)), 1.5)

    def test_misaligned_arrays(self):
        with pytest.raises(ValidationError):
            ensemble(probs(triple(1, 0, 0)), probs(triple(1, 0, 0), triple(0, 1, 0)), 0.5)


class TestPredictClass:
    def test_argmax(self):
        p = probs(triple(0.5, 0.3, 0.2), triple(0.1, 0.6, 0.3), triple(0.1, 0.2, 0.7))
        assert predict_labels(p).tolist() == [1, 0, -1]

    def test_tie_order(self):
        third = 1.0 / 3.0
        assert predict_labels(probs(triple(third, third, third))).tolist() == [1]
        assert predict_labels(probs(triple(0.2, 0.4, 0.4))).tolist() == [0]

    def test_rescaling_invariance(self):
        p = probs(triple(0.5, 0.3, 0.2))
        scaled = 2.5 * p
        assert predict_labels(scaled / scaled.sum()).tolist() == predict_labels(p).tolist()


def ref_check_row(vals):
    """The per-row check of the former probability-triple class; None if valid.

    Its sum() added left to right from 0 (Python before 3.12); the sum is
    spelled out so that the reference does not move with the interpreter.
    """
    if any(not np.isfinite(v) or v < -1e-12 or v > 1.0 + 1e-9 for v in vals):
        return f"probabilities out of range: {vals}"
    total = 0 + vals[0] + vals[1] + vals[2]
    if abs(total - 1.0) > 1e-9:
        return f"probabilities sum to {total!r}, not 1"
    return None


EDGE_VALUES = [
    0.0, -0.0, 1.0, 0.5, 0.25, 1 / 3, -1e-12, -1.1e-12, 1.0 + 1e-9, 1.0 + 2e-9,
    5e-10, 2e-9, np.nan, np.inf, -np.inf, 1e300,
]


class TestCheckProbs:
    @given(rows=st.lists(
        st.tuples(*[st.sampled_from(EDGE_VALUES) | st.floats(-0.1, 1.1)] * 3),
        min_size=1, max_size=6,
    ))
    @settings(max_examples=300, deadline=None)
    def test_rejects_the_rows_the_triple_class_rejected(self, rows):
        errors = [ref_check_row(tuple(map(float, r))) for r in rows]
        first = next((e for e in errors if e is not None), None)
        if first is None:
            assert check_probs(rows).tobytes() == np.array(rows, dtype=np.float64).tobytes()
        else:
            with pytest.raises(ValidationError) as err:
                check_probs(rows)
            assert str(err.value) == first

    @pytest.mark.parametrize("row", [[np.inf, -np.inf, 0.5], [1e308, 1e308, 0.0]])
    def test_rejects_without_a_warning(self, row):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="out of range"):
                check_probs(probs(triple(0.2, 0.5, 0.3), row))

    def test_nan_row_message(self):
        with pytest.raises(ValidationError, match=r"out of range: \(nan, nan, nan\)"):
            check_probs(probs(triple(0.2, 0.5, 0.3), [np.nan] * 3))

    def test_tolerances(self):
        check_probs(probs(
            [0.5, 0.5, 5e-10], [-1e-12, 0.5, 0.5 + 1e-12], [1.0 + 1e-9, 0.0, -1e-12],
        ))
        for row, message in (
            ([0.5, 0.5, 2e-9], "sum to"),
            ([0.5, 0.5 - 2e-9, 0.0], "sum to"),
            ([-2e-12, 0.5, 0.5], "out of range"),
            ([1.0 + 2e-9, 0.0, -2e-9], "out of range"),
        ):
            with pytest.raises(ValidationError, match=message):
                check_probs(probs(row))

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (1, 3, 1), (0,)])
    def test_shape(self, shape):
        with pytest.raises(ValidationError, match="N, 3"):
            check_probs(np.full(shape, 1 / 3))

    def test_public_functions_check_their_inputs(self):
        good = probs(triple(0.6, 0.3, 0.1), triple(0.1, 0.3, 0.6))
        bad = probs(triple(0.6, 0.3, 0.1), triple(0.5, 0.3, 0.3))
        for call in (
            lambda p: ensemble(p, good, 0.5),
            lambda p: ensemble(good, p, 0.5),
            predict_labels,
            signed_scores,
            lambda p: auc_bidirectional_parts(p, [1, -1]),
            lambda p: tune_weight(p, good, [1, -1]),
            lambda p: tune_weight(good, p, [1, -1]),
        ):
            call(good)
            with pytest.raises(ValidationError, match="sum to"):
                call(bad)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([1, 0, -1], [1, 0, -1]) == 1.0

    def test_half(self):
        assert accuracy([1, 0, -1, 1], [1, 0, 1, -1]) == 0.5

    def test_permutation_invariant(self):
        preds, truths = [1, 0, -1, 1, 0], [1, 1, -1, 0, 0]
        base = accuracy(preds, truths)
        perm = [3, 1, 4, 0, 2]
        assert accuracy([preds[i] for i in perm], [truths[i] for i in perm]) == base

    def test_errors(self):
        with pytest.raises(ValidationError):
            accuracy([1], [1, 0])
        with pytest.raises(ValidationError):
            accuracy([], [])


class TestAuc:
    def test_perfect_three_class_ordering(self):
        p = probs(triple(0.8, 0.1, 0.1), triple(0.2, 0.6, 0.2), triple(0.1, 0.1, 0.8))
        truths = [1, 0, -1]
        assert auc_bidirectional(p, truths) == 1.0

    def test_all_scores_equal(self):
        p = probs(*[triple(1 / 3, 1 / 3, 1 / 3)] * 6)
        truths = [1, 1, 0, 0, -1, -1]
        assert auc_bidirectional(p, truths) == 0.5

    def test_derived_three_instance_case(self):
        # truths [1,-1,0], scores [0.4,-0.2,0.1]: forward positives {0.4}
        # beat {-0.2, 0.1}; backward positives {0.2} beat {-0.4, -0.1}
        p = probs(triple(0.5, 0.4, 0.1), triple(0.2, 0.4, 0.4), triple(0.3, 0.5, 0.2))
        truths = [1, -1, 0]
        mean, fwd, bwd = auc_bidirectional_parts(p, truths)
        assert (fwd, bwd, mean) == (1.0, 1.0, 1.0)

    def test_undefined_without_positives(self):
        p = probs(triple(0.5, 0.4, 0.1), triple(0.2, 0.4, 0.4))
        with pytest.raises(UndefinedMetricError):
            auc_bidirectional(p, [0, 0])

    def test_undefined_on_empty_input(self):
        with pytest.raises(UndefinedMetricError):
            auc_bidirectional(np.empty((0, 3)), [])

    def test_exclude_zero_flag(self):
        p = probs(
            triple(0.9, 0.05, 0.05),
            triple(0.05, 0.05, 0.9),
            triple(0.4, 0.3, 0.3),
        )
        truths = [1, -1, 0]
        assert auc_bidirectional(p, truths, exclude_zero=True) == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=40)
        positives = rng.random(40) < 0.4
        if not positives.any() or positives.all():
            positives[0] = True
            positives[1] = False
        base = rank_auc(scores, positives)
        assert rank_auc(np.exp(scores), positives) == pytest.approx(base, abs=1e-12)
        assert rank_auc(3 * scores + 7, positives) == pytest.approx(base, abs=1e-12)


@given(seed=st.integers(min_value=0, max_value=2**31), n=st.integers(2, 120))
@settings(max_examples=60, deadline=None)
def test_rank_auc_matches_pair_counting_oracle(seed, n):
    rng = np.random.default_rng(seed)
    # quantized scores force plenty of ties
    scores = np.round(rng.normal(size=n), 1)
    positives = rng.random(n) < 0.5
    if not positives.any():
        positives[0] = True
    if positives.all():
        positives[-1] = False
    assert rank_auc(scores, positives) == pytest.approx(
        pair_counting_auc(scores, positives), abs=1e-12
    )


class TestTuneWeight:
    def _grid_probs(self, rng, n):
        pc = np.array([rng.dirichlet([1, 1, 1]) for _ in range(n)])
        pg = np.array([rng.dirichlet([1, 1, 1]) for _ in range(n)])
        labels = [int(l) for l in rng.choice([1, 0, -1], size=n)]
        while len(set(labels)) < 3:
            labels = [int(l) for l in rng.choice([1, 0, -1], size=n)]
        return pc, pg, labels

    def test_grid_has_eleven_candidates(self):
        assert len(WEIGHT_GRID) == 11
        assert WEIGHT_GRID[0] == 0.0 and WEIGHT_GRID[-1] == 1.0

    def test_beats_endpoints(self):
        rng = np.random.default_rng(11)
        pc, pg, labels = self._grid_probs(rng, 60)
        w = tune_weight(pc, pg, labels)

        def loss(weight):
            return log_loss(ensemble(pc, pg, weight), label_classes(labels))

        assert loss(w) <= min(loss(0.0), loss(1.0))

    def test_minimises_log_loss_not_auc(self):
        # each model puts 0.9 on one pair's label and 0.01 on the other's:
        # every weight inside (0, 1) ranks both pairs perfectly, so the AUC
        # grid keeps 0.1, while the log-loss is lowest at the even mix
        pc = probs(triple(0.9, 0.05, 0.05), triple(0.01, 0.98, 0.01), triple(0.1, 0.8, 0.1))
        pg = probs(triple(0.01, 0.98, 0.01), triple(0.05, 0.05, 0.9), triple(0.1, 0.8, 0.1))
        labels = [1, -1, 0]
        aucs = [auc_bidirectional(ensemble(pc, pg, w), labels) for w in WEIGHT_GRID]
        assert WEIGHT_GRID[int(np.argmax(aucs))] == 0.1
        assert tune_weight(pc, pg, labels) == 0.5

    def test_negative_entry_that_check_probs_allows_counts_as_zero(self):
        # a -1e-12 on the true class would make log(p + 1e-15) NaN, and a NaN
        # loss would win the argmin
        pc = probs(triple(-1e-12, 0.5, 0.5 + 1e-12), triple(0.1, 0.1, 0.8))
        pg = probs(triple(0.8, 0.1, 0.1), triple(0.1, 0.1, 0.8))
        assert tune_weight(pc, pg, [1, -1]) == 0.0
        assert log_loss(pc, [0, 2]) == pytest.approx((-np.log(1e-15) - np.log(0.8)) / 2)

    def test_identical_models_tie_to_zero(self):
        rng = np.random.default_rng(2)
        pc, _, labels = self._grid_probs(rng, 30)
        assert tune_weight(pc, pc, labels) == 0.0

    def test_label_outside_the_three_is_validation_error(self):
        p = probs(triple(0.6, 0.3, 0.1), triple(0.1, 0.3, 0.6))
        with pytest.raises(ValidationError, match="label 2 at row 1 is not one of 1, 0, -1"):
            tune_weight(p, p, [1, 2])

    def test_misaligned(self):
        with pytest.raises(ValidationError):
            tune_weight(probs(triple(1, 0, 0)), np.empty((0, 3)), [1])
        with pytest.raises(ValidationError, match="empty"):
            tune_weight(np.empty((0, 3)), np.empty((0, 3)), [])
