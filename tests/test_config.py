"""SolverConfig is immutable and checks its values when it is made."""

import dataclasses

import numpy as np
import pytest

from mvinpaint import SolverConfig
from mvinpaint.errors import ConfigError


@pytest.mark.parametrize("field, value", [
    ("k", 0),
    ("k", 1.5),
    ("p", -1),
    ("r", 0),
    ("sigma", 0),
    ("sigma", "x"),
    ("eps", 0),
    ("max_iter", 0),
    ("threads", 0),
    # a bool or an integral float is not an integer
    ("k", True),
    ("threads", True),
    ("p", 2.0),
    ("max_iter", 2.0),
    # a truthy string would switch on the coupled pass
    ("coupled_pass", "no"),
    ("coupled_pass", None),
    ("coupled_pass", 1),
    # a failed conversion or comparison is a ConfigError too
    ("k", float("nan")),
    ("p", float("inf")),
    ("r", "x"),
    ("max_iter", None),
    ("threads", float("nan")),
    ("sigma", None),
    ("eps", None),
])
def test_invalid_value_rejected_when_made(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must"):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.uint64])
def test_numpy_integers_are_stored_as_ints(dtype):
    # the graph build negates r and mixes p with int64 ids, which a uint8 or
    # uint64 would wrap or turn into floats
    cfg = SolverConfig(k=dtype(5), p=dtype(2), r=dtype(4), max_iter=dtype(50), threads=dtype(1))
    values = [getattr(cfg, name) for name in ("k", "p", "r", "max_iter", "threads")]
    assert [type(v) for v in values] == [int] * 5
    assert values == [5, 2, 4, 50, 1]


def test_fields_cannot_be_assigned():
    cfg = SolverConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.eps = 2.0
    assert cfg.eps == SolverConfig().eps
