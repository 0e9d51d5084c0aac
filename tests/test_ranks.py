import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import stats

from causalpairs.ranks import rankdata


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
