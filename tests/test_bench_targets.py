"""The benchmark's layer trace still names code that exists.

bench/spans.py wraps functions by "module:qualname" strings; a rename in
src/ would silently drop a layer from `bench/run.py --trace 1`.
"""

from pathlib import Path

import numpy as np
import pytest

from bentvec import FieldSpec, VectorialFunction, fwht

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    return spans


def test_every_wrap_point_is_defined_on_its_owner(spans):
    for name, target, _ in spans.WRAP_POINTS:
        owner, attr = spans._resolve(target)
        assert attr in vars(owner), f"{name}: {target} does not resolve"


def test_component_counter_reads_a_vectorial_function(spans):
    F = VectorialFunction(FieldSpec.default(4), 2, np.zeros(16, dtype=np.int64))
    assert F.values.shape == F.extra.shape == (16,)
    count = spans._distinct_components()
    assert count((F, 1), {}, None) == {"distinct": 1}
    assert count((F, 1, 0), {}, None) == {}


def test_fwht_counter_reads_the_in_place_result(spans):
    # the counter reads the shape of what fwht returns: its own input
    block = np.ones((1 << 6, 3), dtype=np.int32)
    result = fwht(block)
    assert result is block
    ops = 6 * 192  # six levels over 192 entries
    assert spans._fwht_count((block,), {}, result) == {"ops": ops, "bytes": 2 * ops * 4}
