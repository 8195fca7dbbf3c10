"""The vectorized float printer gives exactly ``repr`` for every element, and lays rows out as a join would."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benford2._reprs import float_reprs, rows_text
from benford2.solver import solve
from benford2.transition import build_dense


def printed(values):
    """float_reprs' prints of ``values``, one per line."""
    chars, lengths = float_reprs(values)
    keep = np.arange(chars.shape[1] + 1) <= lengths[:, None]
    rows = np.hstack([chars, np.zeros((len(chars), 1), dtype=np.uint8)])
    rows[np.arange(len(rows)), lengths] = ord("\n")
    return rows[keep].tobytes().decode("ascii")


def assert_reprs(values):
    a = np.asarray(values, dtype=np.float64).reshape(-1)
    for start in range(0, a.size, 1 << 12):  # a piece at a time keeps the temporaries small
        piece = a[start : start + (1 << 12)]
        assert printed(piece) == "\n".join(map(repr, piece.tolist())) + "\n"


@pytest.mark.parametrize("k", range(1, 19))
def test_solve_vectors(k):
    assert_reprs(solve(k).probabilities)


@pytest.mark.parametrize("k", range(1, 9))
def test_dense_matrices(k):
    # entries of 1.0, 0.5 and other powers of two go to repr itself
    assert_reprs(build_dense(k))


def test_log_uniform():
    assert_reprs(10.0 ** np.random.default_rng(20260809).uniform(-12, 0, 10**6))


def test_edge_values():
    powers = [10.0**-e for e in range(1, 13)]
    values = [2.0**-e for e in range(1, 41)]
    values += [np.nextafter(v, side) for v in powers for side in (0.0, 1.0)] + powers
    values += [np.finfo(np.float64).tiny, 5e-324, 0.0, 0.1, 0.3, 2 / 3]
    # c = x * 10^p exactly halfway between two candidates: ties go to the even digit
    values += [0.5 + 2.0**-17, 0.5 + 3 * 2.0**-17, 26215 / 2**18, 26217 / 2**18, 1.0, -0.25, np.inf, np.nan]
    assert_reprs(values)


def test_empty():
    chars, lengths = float_reprs(np.array([]))
    assert chars.shape[0] == lengths.shape[0] == 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50))
def test_any_float_in_the_unit_interval(values):
    assert_reprs(values)


# fast-path values beside ones that go to repr itself: a power-of-two mantissa, 1, a subnormal, zero
ROW_VALUES = [0.1, 0.5, 2 / 3, 1.0, 5e-324, 1e-12, 0.0, 0.123456789]


@pytest.mark.parametrize("widths", [(), (3,), (4, 0), (2, 5)], ids=["no-labels", "one", "one-and-empty", "two"])
@pytest.mark.parametrize("skip", [0, 3])
def test_rows_text_is_a_join_of_its_fields(widths, skip):
    n = len(ROW_VALUES)
    rng = np.random.default_rng(len(widths))
    labels = [rng.integers(ord("0"), ord("9") + 1, (n, width), dtype=np.uint8) for width in widths]
    fields = [b',\n  {"', b""]
    for j, label in enumerate(labels):
        fields += [label, f'", "{j}": "'.encode()]
    fields.append(b'": ')
    text = "".join(
        "".join(field.decode() if isinstance(field, bytes) else field[i].tobytes().decode() for field in fields)
        + repr(value)
        + "}"
        for i, value in enumerate(ROW_VALUES)
    )
    assert rows_text(fields, np.array(ROW_VALUES), b"}", skip) == text[skip:]
