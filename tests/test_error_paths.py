"""Declared error conditions actually fire."""

import pytest

from tglab import corpus
from tglab.errors import (
    BoundTooSmall,
    MissingDegree,
    NonEffectiveDegree,
    StabilizationFailed,
)
from tglab.intlinalg import IntegerMatrix
from tglab.lgfamily import NewtonData, jacobian_quotient_dim
from tglab.models import build_model
from tglab.qdmcheck import annihilation_check
from tglab.semigroups import toric_ideal_binomials
from tglab.toricfan import total_space_fan
from tglab.weylops import WeylOp


def test_toric_ideal_bound_too_small():
    # the only relation has degree two; a degree-one bound cannot stabilize
    B = IntegerMatrix.from_rows([[1, -1, 0], [2, 0, 1]])
    with pytest.raises(BoundTooSmall):
        toric_ideal_binomials(B, 1)


def test_jacobian_stabilization_failure_reports_partial():
    fan, d = corpus.p1_o2()
    total = total_space_fan(fan, d)
    with pytest.raises(StabilizationFailed) as err:
        jacobian_quotient_dim(NewtonData(total, 2), [1, 1, 1])
    history = err.value.partial  # slice history travels with the error, and is named in it
    dims = ", ".join(map(str, history))
    assert len(history) == 2
    assert str(err.value) == f"no stabilization within 2 slices: dimensions {dims}"


def test_i_table_rejects_non_nef_pairing():
    fan, d = corpus.f3_minus_k()
    model = build_model(fan, d)
    with pytest.raises(NonEffectiveDegree):
        model.i_table(2)


def test_annihilation_missing_degree():
    fan, d = corpus.p1_o2()
    model = build_model(fan, d)
    table = model.i_table(2)
    ctx = model.qdm_generators()["ctx"]
    op = WeylOp.partial(ctx, 0, 2)  # needs sources two degrees above targets
    with pytest.raises(MissingDegree):
        annihilation_check(op, table, 2)
