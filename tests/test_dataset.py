import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalpairs.cli import _with_twins
from causalpairs.dataset import (
    AttributeKind,
    PairInstance,
    SplitSpec,
    _encode_categories,
    _file_rows,
    augment_swap,
    format_pairs,
    parse_pairs,
    read_pairs_files,
    split,
)
from causalpairs.errors import (
    ConfigurationError,
    ConsistencyError,
    ParseError,
    ValidationError,
)

PAIRS = "p1, 0 1 2, 2 4 6\n"
INFO = "p1,num,num\n"
TARGET = "p1,1\n"


def make_instance(pid="d0", x=(0.0, 1.0, 2.0), y=(5.0, 4.0, 3.0), label=1,
                  x_kind=AttributeKind.NUMERICAL, y_kind=AttributeKind.NUMERICAL):
    return PairInstance(pid, np.array(x), np.array(y), x_kind, y_kind, label)


class TestParse:
    def test_basic_row(self):
        (inst,) = parse_pairs(PAIRS, INFO, TARGET)
        assert inst.id == "p1"
        assert np.array_equal(inst.x, [0, 1, 2])
        assert np.array_equal(inst.y, [2, 4, 6])
        assert inst.x_kind is AttributeKind.NUMERICAL
        assert inst.y_kind is AttributeKind.NUMERICAL
        assert inst.label == 1

    def test_negative_label(self):
        (inst,) = parse_pairs(PAIRS, INFO, "p1,-1\n")
        assert inst.label == -1

    def test_binary_value_out_of_range(self):
        with pytest.raises(ValidationError):
            parse_pairs("p1, 0 1 3, 0 1 1\n", "p1,bin,bin\n", TARGET)

    def test_categorical_first_appearance_encoding(self):
        (inst,) = parse_pairs("p1, 7 7 5 9 5, 0 0 1 1 0\n", "p1,cat,bin\n", TARGET)
        assert np.array_equal(inst.x, [0, 0, 1, 2, 1])

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_categorical_value_rejected(self, token):
        # encoding would make each NaN a new category; num and bin reject it
        with pytest.raises(ValidationError, match="non-finite"):
            parse_pairs(f"p1, 1 2 {token} {token} 3, 0 1 0 1 0\n", "p1,cat,bin\n", TARGET)

    def test_undecodable_file_is_parse_error(self, tmp_path):
        paths = [tmp_path / name for name in ("pairs.csv", "info.csv", "target.csv")]
        for path, text in zip(paths, (PAIRS, INFO, TARGET)):
            path.write_text(text)
        paths[0].write_bytes(b"p1, 0 1 2, 2 4 \xff\n")
        with pytest.raises(ParseError) as err:
            read_pairs_files(*paths)
        assert err.value.path == str(paths[0])

    def test_undecodable_byte_reports_its_row(self, tmp_path):
        paths = [tmp_path / name for name in ("pairs.csv", "info.csv", "target.csv")]
        for path, text in zip(paths, ("p1, 0 1, 2 3\n", "p1,num,num\n", "p1,1\n")):
            path.write_text(text)
        # rows 1-3 end in \n, \r and \x85, so rows 2-4 share one b"\n"-ended
        # line of bytes; the bad byte is on row 4
        bad = b"p0,num,num\n" + "p1,num,num\rp2,num,num\x85p3,".encode() + b"\xffnum,num\n"
        paths[1].write_bytes(bad + b"p4,num,num\n" * 5000)
        with pytest.raises(ParseError) as err:
            read_pairs_files(*paths)
        assert (err.value.path, err.value.line) == (str(paths[1]), 4)

    @pytest.mark.parametrize(
        "token", ["0.1", "-0", "+1.5e3", "1_000", "5e-324", "2.2250738585072014e-308"]
    )
    def test_values_parse_as_python_float(self, token):
        (inst,) = parse_pairs(f"p1, {token} 1, 2 3\n", INFO, TARGET)
        assert inst.x[:1].tobytes() == np.array([float(token)]).tobytes()

    def test_malformed_row_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_pairs("p1, 0 1, 2 3\nbadrow\n", "p1,num,num\n", TARGET)
        assert err.value.line == 2

    def test_bad_value_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_pairs("p1, 0 zap, 2 3\n", INFO, TARGET)
        assert err.value.line == 1

    def test_missing_id_in_info(self):
        with pytest.raises(ConsistencyError):
            parse_pairs(PAIRS, "other,num,num\n", TARGET)

    def test_missing_id_in_target(self):
        with pytest.raises(ConsistencyError):
            parse_pairs(PAIRS, INFO, "other,1\n")

    def test_extra_id_in_target(self):
        with pytest.raises(ConsistencyError):
            parse_pairs(PAIRS, INFO, "p1,1\np2,0\n")

    def test_empty_vector_rejected(self):
        with pytest.raises(ValidationError):
            parse_pairs("p1, , \n", INFO, TARGET)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            parse_pairs("p1, 0 1, 2\n", INFO, TARGET)

    def test_bad_label_token(self):
        with pytest.raises(ParseError):
            parse_pairs(PAIRS, INFO, "p1,2\n")

    def test_format_round_trip(self):
        insts = parse_pairs(
            "a, 0.25 -1.5 3.0, 1 0 1\nb, 4 4 4, 0.125 7.5 -2.25\n",
            "a,num,bin\nb,cat,num\n",
            "a,1\nb,-1\n",
        )
        texts = format_pairs(insts)
        again = parse_pairs(*texts)
        for before, after in zip(insts, again):
            assert before.id == after.id
            assert np.array_equal(before.x, after.x)
            assert np.array_equal(before.y, after.y)
            assert before.label == after.label


@pytest.mark.parametrize("code", [-1.0, 0.5, 2.0**53, 1e19])
def test_categorical_code_out_of_range_rejected(code):
    # a code of 2**63 or more casts to a negative bin index in discretize
    with pytest.raises(ValidationError, match="integer codes"):
        make_instance(x=(0.0, code, 1.0), x_kind=AttributeKind.CATEGORICAL)


@pytest.mark.parametrize("pid", ["", "../up", "a\\b", "a\0b"])
def test_unsafe_id_rejected(pid):
    # ids name image files and manifest lines
    with pytest.raises(ValidationError, match="must be non-empty"):
        make_instance(pid=pid)
    with pytest.raises(ValidationError, match="must be non-empty"):
        parse_pairs(PAIRS.replace("p1", pid), INFO.replace("p1", pid), TARGET.replace("p1", pid))


# Every row separator str.splitlines() knows, which a streamed file must split at too.
SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]


class TestStreamedRows:
    def test_file_rows_are_splitlines(self):
        rng = np.random.default_rng(5)
        pieces = SEPARATORS + ["a", "1 2", ",", " ", "\u00e9", "\u20ac", "\U0001f600"]
        for _ in range(3000):
            text = "".join(rng.choice(pieces, size=rng.integers(0, 40)))
            assert list(_file_rows(io.BytesIO(text.encode()))) == text.splitlines(), repr(text)

    def test_files_parse_as_their_texts(self, tmp_path):
        rng = np.random.default_rng(6)
        instances = [
            make_instance(f"d{i}", x=rng.normal(size=5), y=rng.integers(0, 3, 5),
                          y_kind=AttributeKind.CATEGORICAL, label=int(rng.integers(-1, 2)))
            for i in range(30)
        ]
        texts = []
        for text in format_pairs(instances):
            # blank rows in between, which the parser skips
            rows = [r for row in text.splitlines() for r in [row] + [""] * rng.integers(0, 2)]
            seps = rng.choice(SEPARATORS, size=len(rows))
            texts.append("".join(row + sep for row, sep in zip(rows, seps)))
        paths = [tmp_path / name for name in ("pairs.csv", "info.csv", "target.csv")]
        for path, text in zip(paths, texts):
            path.write_bytes(text.encode())
        want = parse_pairs(*texts)
        got = read_pairs_files(*paths)
        assert [i.id for i in got] == [i.id for i in want] == [i.id for i in instances]
        for a, b in zip(got, want):
            assert (a.x.tobytes(), a.y.tobytes(), a.x_kind, a.y_kind, a.label) == (
                b.x.tobytes(), b.y.tobytes(), b.x_kind, b.y_kind, b.label)


class TestSplit:
    def _corpus(self, n):
        return [make_instance(pid=f"p{i}") for i in range(n)]

    def test_70_15_15_sizes(self):
        tr, va, te = split(self._corpus(100), SplitSpec(0.70, 0.15, seed=1))
        assert (len(tr), len(va), len(te)) == (70, 15, 15)

    def test_floor_rule_small(self):
        tr, va, te = split(self._corpus(10), SplitSpec(0.70, 0.15, seed=1))
        assert (len(tr), len(va), len(te)) == (7, 1, 2)

    def test_same_seed_same_partition(self):
        a = split(self._corpus(37), SplitSpec(seed=99))
        b = split(self._corpus(37), SplitSpec(seed=99))
        for pa, pb in zip(a, b):
            assert [i.id for i in pa] == [i.id for i in pb]

    def test_partition_is_exact(self):
        corpus = self._corpus(41)
        tr, va, te = split(corpus, SplitSpec(seed=3))
        ids = sorted(i.id for part in (tr, va, te) for i in part)
        assert ids == sorted(i.id for i in corpus)

    def test_bad_fractions(self):
        with pytest.raises(ConfigurationError):
            SplitSpec(0.9, 0.2, seed=0)
        with pytest.raises(ConfigurationError):
            SplitSpec(0.0, 0.5, seed=0)

    def test_empty_input(self):
        with pytest.raises(ValidationError):
            split([], SplitSpec())


class TestAugment:
    def test_swap_exchanges_and_negates(self):
        inst = make_instance(label=1, x_kind=AttributeKind.NUMERICAL,
                             y_kind=AttributeKind.BINARY, y=(0, 1, 0))
        sw = augment_swap(inst)
        assert sw.label == -1
        assert np.array_equal(sw.x, inst.y)
        assert np.array_equal(sw.y, inst.x)
        assert sw.x_kind is AttributeKind.BINARY
        assert sw.y_kind is AttributeKind.NUMERICAL
        assert sw.id == inst.id

    def test_zero_label_stays_zero(self):
        assert augment_swap(make_instance(label=0)).label == 0

    def test_involution_up_to_id(self):
        inst = make_instance(label=-1)
        back = augment_swap(augment_swap(inst))
        assert np.array_equal(back.x, inst.x)
        assert np.array_equal(back.y, inst.y)
        assert back.label == inst.label
        assert (back.x_kind, back.y_kind) == (inst.x_kind, inst.y_kind)

    def test_twins_double_and_interleave(self):
        # --augment's training set: each row, then its twin; each label, then -label
        rows = np.arange(70 * 6, dtype=np.uint8).reshape(70, 6)
        twins = rows[:, ::-1]
        out, labels = _with_twins(rows, twins, [1, 0, -1, 1, 1] * 14)
        assert out.shape == (140, 6) and not out.flags.writeable
        assert out[0::2].tobytes() == rows.tobytes()
        assert out[1::2].tobytes() == twins.tobytes()
        assert labels[:6] == [1, -1, 0, 0, -1, 1]

    def test_label_bookkeeping(self):
        # counts (a, b, c) for labels (1, 0, -1) become (a+c, 2b, a+c)
        labels = [1] * 5 + [0] * 3 + [-1] * 2
        _, out = _with_twins(np.zeros((10, 1)), np.ones((10, 1)), labels)
        assert out.count(1) == 7
        assert out.count(0) == 6
        assert out.count(-1) == 7

    def test_empty(self):
        images = np.empty((0, 4, 4), dtype=np.uint8)
        out, labels = _with_twins(images, images.transpose(0, 2, 1), [])
        assert out.shape == (0, 4, 4) and labels == []


@given(
    n=st.integers(min_value=1, max_value=200),
    seed=st.integers(min_value=0, max_value=2**32),
    fracs=st.tuples(
        st.floats(min_value=0.05, max_value=0.85),
        st.floats(min_value=0.05, max_value=0.85),
    ).filter(lambda t: t[0] + t[1] < 0.999),
)
@settings(max_examples=40, deadline=None)
def test_split_partition_property(n, seed, fracs):
    corpus = [make_instance(pid=f"p{i}") for i in range(n)]
    spec = SplitSpec(train_frac=fracs[0], val_frac=fracs[1], seed=seed)
    tr, va, te = split(corpus, spec)
    assert len(tr) == int(np.floor(fracs[0] * n))
    assert len(va) == int(np.floor(fracs[1] * n))
    assert len(tr) + len(va) + len(te) == n
    assert sorted(i.id for part in (tr, va, te) for i in part) == sorted(
        i.id for i in corpus
    )


@given(labels=st.lists(st.sampled_from([1, 0, -1]), min_size=0, max_size=60))
@settings(max_examples=40, deadline=None)
def test_augment_equalizes_direction_labels(labels):
    rows = np.zeros((len(labels), 2))
    out, got = _with_twins(rows, rows, labels)
    assert len(out) == len(got) == 2 * len(labels)
    assert got.count(1) == got.count(-1)


def ref_encode_categories(values):
    """The first-appearance encoding as a dict over every observation."""
    codes = {}
    out = np.empty(len(values), dtype=np.float64)
    for i, v in enumerate(values):
        if v not in codes:
            codes[v] = len(codes)
        out[i] = codes[v]
    return out


@given(
    values=st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, -7.0, 1e300, -1e-300, 5e-324]),
                    min_size=1, max_size=80)
    | st.lists(st.integers(min_value=0, max_value=40).map(float), min_size=1, max_size=300)
    | st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=60),
)
@settings(max_examples=300, deadline=None)
def test_encode_categories_bytes_equal_reference(values):
    values = np.array(values, dtype=np.float64)
    assert _encode_categories(values).tobytes() == ref_encode_categories(values).tobytes()
