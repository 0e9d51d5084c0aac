import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import stats

from causalpairs.ranks import rankdata, sorted_ranks


def test_hand_values():
    assert rankdata([3.0, 1.0, 2.0]).tolist() == [3.0, 1.0, 2.0]
    assert rankdata([2, 2, 1, 2]).tolist() == [3.0, 3.0, 1.0, 3.0]
    assert rankdata([]).shape == (0,)


@given(
    values=st.lists(st.integers(min_value=-3, max_value=3), max_size=60)
    | st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=60),
)
@settings(max_examples=300, deadline=None)
def test_bytes_equal_scipy(values):
    # tie-heavy integers and floats with signed zeros
    a = rankdata(np.array(values, dtype=np.float64))
    b = stats.rankdata(np.array(values, dtype=np.float64))
    assert a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


@given(
    values=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), max_size=60)
    | st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=60),
    cuts=st.lists(st.integers(min_value=1, max_value=59), max_size=3),
)
@settings(max_examples=200, deadline=None)
def test_distinct_count_equals_unique(values, cuts):
    # segments laid end to end, each sorted, as the feature batch holds them
    values = np.array(values, dtype=np.float64)
    bounds = sorted({0, len(values), *(c for c in cuts if c < len(values))})
    spans = list(zip(bounds[:-1], bounds[1:]))
    if not spans:
        return
    ordered = np.concatenate([np.sort(values[i:j]) for i, j in spans])
    ranks, distinct = sorted_ranks(ordered, np.array(bounds[:-1]))
    assert len(distinct) == len(spans)
    for (i, j), count in zip(spans, distinct):
        assert ranks[i:j].tobytes() == rankdata(ordered[i:j]).tobytes()
        assert count == len(np.unique(ordered[i:j]))
