"""Acceptance suite: the thirteen numbered criteria, one test each.

Every check is exact (tolerance = exact equality); the runtime budgets are
asserted with time.monotonic.  Each test prints one pass/fail line (run
with ``pytest -s`` to see them as they happen).

Criterion 5a is expected to FAIL and is left red on purpose: for F3 with
d = (1,1,1,1) the doubled semigroup is provably normal (the degree-one
slice tiles into five unimodular generator simplices), so the demanded
non-normality witness cannot exist.  The companion test c05b shows the
non-normality phenomenon on the equivalent representative d = (0,2,4,0).
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import examples
from tglab.intlinalg import IntegerMatrix, kernel_lattice, section_system
from tglab.lgfamily import NewtonData, classify_parameter
from tglab.models import build_model
from tglab.qdmcheck import annihilation_check, homogeneity_check, quot_landing_check
from tglab.rationalcone import extreme_rays
from tglab.semigroups import (
    DoubledSemigroup,
    gorenstein_shift_check,
    interior_shift_check_ungraded,
    scan_cone_points,
)
from tglab.toricfan import (
    anticanonical_consistency_check,
    class_is_nef,
    extended_kernel,
    nef_cone_anticones,
    nef_cone_pl,
    nef_hform,
    total_space_fan,
    w_set_convexity,
)
from tglab.weylops import (
    WeylOp,
    bounded_ideal_membership,
    duality_morphism,
    fl_match_homogenized,
    psi_twist,
    shift_morphism_factorization,
    theta_restrict,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"

BUNDLE_EXAMPLES = {
    "P1/O(2)": examples.spec("p1_o2"),
    "P2/O(1)": examples.spec("p2_o1"),
    "P1xP1/O(1,1)": examples.spec("p1p1_o11"),
}


def report(number, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:>3}] {status} {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_c01_section_system_identities():
    rng = random.Random(2024)
    start = time.monotonic()
    checked = 0
    while checked < 20:
        s = rng.randint(1, 4)
        t = rng.randint(s + 1, 8)
        A = IntegerMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(t)] for _ in range(s)]
        )
        try:
            system = section_system(A)
        except Exception:
            continue
        assert system.verify()
        checked += 1
    elapsed = time.monotonic() - start
    report(1, checked == 20 and elapsed < 1.0, f"20 random systems in {elapsed:.3f}s")


def test_c02_nef_cone_two_ways():
    start = time.monotonic()
    fans = {
        "P1": examples.fan("p1_o2"),
        "P2": examples.fan("p2"),
        "P1xP1": examples.fan("p1p1_o11"),
        "F0": examples.hirzebruch(0),
        "F1": examples.hirzebruch(1),
        "F3": examples.hirzebruch(3),
    }
    ok = all(
        nef_cone_anticones(fan) == nef_cone_pl(fan) for fan in fans.values()
    )
    elapsed = time.monotonic() - start
    report(2, ok and elapsed < 1.0, f"6 fans in {elapsed:.3f}s")


def test_c03_pullback_and_anticanonical():
    ok = True
    for name, (fan, d) in BUNDLE_EXAMPLES.items():
        total = total_space_fan(fan, d)
        nef_total = extreme_rays(nef_hform(total, extended_kernel(fan, d)))
        ok = ok and nef_total == nef_cone_anticones(fan)
        ok = ok and anticanonical_consistency_check(fan, d, total)
    report(3, ok, "nef pullback identity and anticanonical consistency")


def test_c04_semigroup_certificates():
    for name, (fan, d) in BUNDLE_EXAMPLES.items():
        start = time.monotonic()
        total = total_space_fan(fan, d)
        S = DoubledSemigroup(total.newton_polytope)
        scan = scan_cone_points(S, 6)
        assert scan.witness is None, name
        c = d.rows
        shift = list(S.generators[0])
        for j in range(c):
            shift = [a + b for a, b in zip(shift, S.generators[1 + fan.n_rays + j])]
        assert gorenstein_shift_check(S, shift, 6, scan), name
        Ap = total.ray_matrix()
        shiftp = [0] * Ap.rows
        for j in range(c):
            shiftp = [a + b for a, b in zip(shiftp, Ap.col(fan.n_rays + j))]
        assert interior_shift_check_ungraded(total, S, shiftp, 6, scan), name
        elapsed = time.monotonic() - start
        assert elapsed < 30.0, f"{name} took {elapsed:.1f}s"
    report(4, True, "saturation, Gorenstein shift and interior description, degree 6")


def test_c05a_f3_non_normality_witness_as_specified():
    """Stated criterion: F3 with d=(1,1,1,1) yields a non-normality witness.

    This is left red deliberately.  The semigroup is normal for this
    representative: the degree-one slice of the doubled cone tiles into the
    four fan simplices plus the unimodular gap triangle on rays 1,2,3, so
    every cone lattice point is a nonnegative generator sum.  Exhaustive
    scans to grading 14 (two independent implementations) found no witness.
    The phenomenon the source asserts does occur for other nonnegative
    representatives of the same class; see test_c05b.
    """
    fan, d = examples.spec("f3_minus_k")
    total = total_space_fan(fan, d)
    S = DoubledSemigroup(total.newton_polytope)
    witness = scan_cone_points(S, 6).witness
    saturated = witness is None
    report(
        "5a",
        (not saturated) and witness is not None,
        f"non-normality witness demanded for d=(1,1,1,1); computed saturated={saturated}",
    )


def test_c05b_f3_alternate_representative_witness():
    fan = examples.hirzebruch(3)
    d = IntegerMatrix.from_rows([(0, 2, 4, 0)])
    total = total_space_fan(fan, d)
    S = DoubledSemigroup(total.newton_polytope)
    witness = scan_cone_points(S, 4).witness
    saturated = witness is None
    report(
        "5b",
        (not saturated) and witness is not None,
        f"equivalent representative d=(0,2,4,0): witness {witness}",
    )


def test_c05c_negative_controls_w_set_and_nef():
    ok = not w_set_convexity(total_space_fan(*examples.spec("f3_minus_k")))
    for k in (-1, -3):
        fan_k, d_k = examples.p1_ok(k)
        ok = ok and not w_set_convexity(total_space_fan(fan_k, d_k))
        ok = ok and not class_is_nef(fan_k, d_k.row(0))
    report("5c", ok, "W-set fails for F3/-K and P1/O(k<0); O(k<0) is not nef")


def test_c06_jacobian_dimension_equals_volume():
    start = time.monotonic()
    rng = random.Random(606)
    cases = []
    cases.append(("P1 c=0", examples.fan("p1_o2"), 2))
    cases.append(("P2 c=0", examples.fan("p2"), 3))
    cases.append(("P1/O(2)", total_space_fan(*examples.spec("p1_o2")), 2))
    cases.append(("P1xP1/O(1,1)", total_space_fan(*examples.spec("p1p1_o11")), 4))
    for name, fan, expected in cases:
        B = fan.ray_matrix()
        assert fan.newton_polytope.volume == expected, name
        found = 0
        while found < 5:
            lam = [
                Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(B.cols)
            ]
            verdict = classify_parameter(NewtonData(fan), lam)
            # Each case is a base fan or the total space of a nef bundle, so
            # its member list is complete and no sample may be non-tame.
            assert verdict["verdict"] != "non_tame_suspected", name
            if verdict["verdict"] != "good":
                continue
            assert verdict["evidence"]["jacobian_dim"] == expected, name
            found += 1
    elapsed = time.monotonic() - start
    report(6, elapsed < 60.0, f"4 examples x 5 good parameters in {elapsed:.1f}s")


def test_c07_fl_substitution_matches_hat():
    ok = True
    for name, (fan, d) in BUNDLE_EXAMPLES.items():
        model = build_model(fan, d)
        for a in range(model.r):
            rec = fl_match_homogenized(model.Aprime, model.L.col(a))
            ok = ok and rec["matches"]
    for fan in (examples.fan("p1_o2"), examples.fan("p2")):
        A = fan.ray_matrix()
        basis = kernel_lattice(A)
        for a in range(basis.cols):
            ok = ok and fl_match_homogenized(A, basis.col(a))["matches"]
    report(7, ok, "substituted homogenized boxes equal hat boxes up to z-power unit")


def test_c08_shift_morphism_factorization():
    rng = random.Random(808)
    for name, (fan, d) in BUNDLE_EXAMPLES.items():
        model = build_model(fan, d)
        Bt = model.Adoubleprime
        kernel = kernel_lattice(Bt)
        t1 = Bt.cols
        pairs = 0
        while pairs < 10:
            c2 = tuple(rng.randint(0, 3) for _ in range(t1))
            combo = [rng.randint(-1, 1) for _ in range(kernel.cols)]
            u = tuple(
                sum(combo[a] * kernel.entries[i][a] for a in range(kernel.cols))
                for i in range(t1)
            )
            c1 = tuple(a + b for a, b in zip(c2, u))
            if any(x < 0 for x in c1) or c1 == c2:
                continue
            cert = shift_morphism_factorization(Bt, c1, c2)
            assert cert["identity_holds"], (name, c1, c2)
            pairs += 1
    report(8, True, "10 random factorizations per bundle example")


def test_c09_duality_morphisms():
    ok = duality_morphism(3, 0) == WeylOp.one(duality_morphism(3, 0).ctx)
    for m, c in [(2, 1), (3, 1), (4, 1), (2, 2)]:
        tilde = duality_morphism(m, c)
        hat_factor = WeylOp.one(tilde.ctx)
        for j in range(c):
            hat_factor = hat_factor * WeylOp.partial(tilde.ctx, m + j)
        ok = ok and (psi_twist(m, c) * hat_factor == tilde)
    report(9, ok, "c=0 identity and tilde = hat after the twist, normal ordered")


def test_c10_theta_transform():
    ok = True
    for name, (fan, d) in BUNDLE_EXAMPLES.items():
        model = build_model(fan, d)
        sg = model.star_generators()
        g = model.qdm_generators()
        ch = (model.L, model.M, model.m)
        for a, tbox in enumerate(sg["boxes"]):
            img = theta_restrict(tbox, *ch)
            ok = ok and img == g["boxes"][a]
        for e in sg["eulers"][1:]:
            img = theta_restrict(e, *ch)
            ok = ok and img.is_zero()
    report(10, ok, "every tilde box maps to its Q and the Euler fields die")


def test_c11_annihilation_and_homogeneity():
    start = time.monotonic()
    expectations = {
        "P2 c=0": (*examples.spec("p2"), -3),
        "P1/O(2)": (*examples.spec("p1_o2"), 0),
    }
    for name, (fan, d, slope) in expectations.items():
        model = build_model(fan, d)
        table = model.i_table(9)
        for box in model.qdm_generators()["boxes"]:
            rep = annihilation_check(box, table, 8)
            assert rep["all_zero"], name
        hom = homogeneity_check(table, 8)
        assert hom["all_homogeneous"], name
        for row in hom["rows"]:
            assert row["expected"] == slope * row["degree"][0], (name, row)
    elapsed = time.monotonic() - start
    report(11, elapsed < 10.0, f"B_d = 0 for d <= 8 and degrees match in {elapsed:.1f}s")


def test_c12_kernel_landing():
    fan, d = examples.spec("p1_o2")
    model = build_model(fan, d)
    g = model.qdm_generators()
    ctx = g["ctx"]
    T = WeylOp.zpow(ctx, 1) * WeylOp.var(ctx, 0) * WeylOp.partial(ctx, 0)
    z = WeylOp.zpow(ctx, 1)
    q = WeylOp.var(ctx, 0)
    P = T - q.scale(4) * T - (q * z).scale(2)
    prefixed = T.scale(2) * P  # c_top-hat times P
    cert = bounded_ideal_membership(
        prefixed, [g["boxes"][0], g["euler"]], 2, z_range=(0, 2), lam_range=[(0, 2)]
    )
    assert cert["status"] == "certificate"
    table = model.i_table(7)
    land = quot_landing_check(P, table, 6)
    one = WeylOp.one(ctx)
    land_one = quot_landing_check(one, table, 6)
    report(
        12,
        land["all_land"] and not land_one["all_land"],
        "constructed kernel element lands; P = 1 correctly fails",
    )


def test_c13_deterministic_reports():
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "tglab.cli", *args],
            capture_output=True,
            text=True,
        ).stdout

    ok = True
    for cmd, extra in [
        ("construct", []),
        ("semigroup", ["--degree", "4"]),
        ("gkz", ["--gkz-variant", "qdm"]),
        ("lg", ["--seed", "11"]),
        ("ifun", ["--dmax", "4"]),
    ]:
        a = run(cmd, "--spec", str(SPECS / "p1_o2.json"), "--json", *extra)
        b = run(cmd, "--spec", str(SPECS / "p1_o2.json"), "--json", *extra)
        ok = ok and a == b and a
    report(13, bool(ok), "byte-identical reports across repeated runs")
