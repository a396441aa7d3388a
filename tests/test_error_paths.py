"""Declared error conditions actually fire."""

import pytest

import examples
from tglab.errors import MissingDegree, NonEffectiveDegree
from tglab.models import build_model
from tglab.qdmcheck import annihilation_check
from tglab.weylops import WeylOp


def test_i_table_rejects_non_nef_pairing():
    fan, d = examples.spec("f3_minus_k")
    model = build_model(fan, d)
    with pytest.raises(NonEffectiveDegree):
        model.i_table(2)


def test_annihilation_missing_degree():
    fan, d = examples.spec("p1_o2")
    model = build_model(fan, d)
    table = model.i_table(2)
    ctx = model.qdm_generators()["ctx"]
    op = WeylOp.partial(ctx, 0, 2)  # needs sources two degrees above targets
    with pytest.raises(MissingDegree):
        annihilation_check(op, table, 2)
