"""Model assembly: basis selection, its error paths, and consistency."""

import pytest

import examples
from tglab.errors import BasisConditionFailed, BasisNotNef
from tglab.intlinalg import IntegerMatrix
from tglab.models import build_model
from tglab.toricfan import anticanonical_consistency_check, class_is_nef, total_space_fan
from tglab.weylops import OpContext, beta_outside_verified_regime, tilde_box


def test_auto_basis_p1p1():
    fan, d = examples.spec("p1p1_o11")
    model = build_model(fan, d)
    assert model.r == 2
    assert abs(model.basis_U.det()) == 1
    # M L = I and the section identities transported to the rebased pair
    assert model.M.mul(model.L).entries == IntegerMatrix.identity(2).entries
    assert all(x == 0 for row in model.Aprime.mul(model.L).entries for x in row)


def test_explicit_basis_p_accepted():
    fan, d = examples.spec("p1p1_o11")
    model = build_model(fan, d, basis_p=[(1, 0, 0, 0), (0, 0, 1, 0)])
    assert model.r == 2
    gens = model.qdm_generators()
    assert len(gens["boxes"]) == 2


def test_basis_p_rejects_non_nef():
    fan, d = examples.spec("p1p1_o11")
    # D1 - D3 is not nef on the product of lines
    with pytest.raises(BasisNotNef):
        build_model(fan, d, basis_p=[(1, 0, 0, 0), (1, 0, -1, 0)])


def test_basis_p_rejects_non_unimodular():
    fan, d = examples.spec("p1p1_o11")
    with pytest.raises(BasisNotNef):
        build_model(fan, d, basis_p=[(1, 0, 0, 0), (2, 0, 0, 0)])


def test_basis_condition_fails_for_f3_without_bundle():
    """The sum of the ray classes of F3 is not nef, so no nef basis can
    absorb it and the moduli construction is correctly refused."""
    fan = examples.hirzebruch(3)
    with pytest.raises(BasisConditionFailed):
        build_model(fan, IntegerMatrix(0, 4, ()))


def test_anticanonical_consistency_holds_when_both_sides_fail():
    # O(5) on the line: the adjoint class O(-3) is not nef, and neither is
    # the total-space anticanonical PL function; the equivalence holds.
    fan, d = examples.p1_ok(5)
    assert class_is_nef(fan, d.row(0))
    coeffs = [1 - d.entries[0][i] for i in range(fan.n_rays)]
    assert not class_is_nef(fan, coeffs)
    assert anticanonical_consistency_check(fan, d, total_space_fan(fan, d))


def test_beta_regime_flag():
    assert not beta_outside_verified_regime([0, 1, -2])
    assert beta_outside_verified_regime(["1/2", 0])


def star_box(ctx, l):
    """lambda-scaled hat box: all variables carry lambda^l (z partial) powers."""
    return tilde_box(ctx, l, ctx.nvars)


def test_tilde_box_zero_bundle_entry_has_no_shift_factor():
    # relation with vanishing bundle coordinate: both sides stay unshifted
    ctx = OpContext.make(3, laurent=True)
    l = (1, -1, 0)
    assert tilde_box(ctx, l, 2) == star_box(ctx, l)


def test_model_kernel_columns_are_relations():
    for fan, d in [examples.spec("p1_o2"), examples.spec("p2_o1"), examples.spec("p1p1_o11")]:
        model = build_model(fan, d)
        for a in range(model.r):
            assert all(x == 0 for x in model.Aprime.mul_vec(model.L.col(a)))
        # basis vectors are nef and the ray-class sum is nonnegative on them
        total = total_space_fan(fan, d)
        assert model.L.cols == model.kernel_ext.cols
