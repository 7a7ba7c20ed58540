"""SolverConfig is immutable and checks its values when it is made."""

import dataclasses

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


def test_fields_cannot_be_assigned():
    cfg = SolverConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.eps = 2.0
    assert cfg.eps == SolverConfig().eps
