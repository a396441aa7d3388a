"""Fans of split-bundle total spaces and their nef cones, two ways.

Walks through the combinatorial layer: validating a fan, building the
total-space fan of a bundle, testing piecewise-linear convexity, and
computing the nef cone both as an intersection of anticones and as the
cone of convex PL functions.
"""

from pathlib import Path

from tglab.cli import load_spec
from tglab.rationalcone import extreme_rays
from tglab.toricfan import (
    anticanonical_consistency_check,
    class_is_nef,
    conv_in_support_check,
    extended_kernel,
    nef_cone_anticones,
    nef_cone_pl,
    nef_hform,
    pl_is_convex,
    total_space_fan,
    validate_fan,
    w_set_convexity,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"


def example(name):
    """The fan and bundle matrix of specs/<name>.json."""
    spec = load_spec(str(SPECS / f"{name}.json"))
    return spec["fan"], spec["bundles"]


print("== the projective plane ==")
p2 = example("p2")[0]
print("rays:", p2.rays)
print("diagnostics:", validate_fan(p2))
print("anticanonical PL function convex:", pl_is_convex(p2, [-1, -1, -1]))

print()
print("== total space of the degree-2 bundle on the line ==")
fan, d = example("p1_o2")
total = total_space_fan(fan, d)
print("total rays:", total.rays)
print("total max cones:", total.max_cones)
print("still smooth:", validate_fan(total).smooth)

print()
print("== nef cones, two independent constructions ==")
for name, f in [("P1xP1", example("p1p1_o11")[0]), ("F3", example("f3_minus_k")[0])]:
    anti = nef_cone_anticones(f)
    pl = nef_cone_pl(f)
    print(f"{name}: anticone rays {anti}, agree with PL: {anti == pl}")

print()
print("== pullback identity and the hull checks ==")
for name, (f, dd) in [
    ("P1/O(2)", example("p1_o2")),
    ("P2/O(1)", example("p2_o1")),
    ("P1xP1/O(1,1)", example("p1p1_o11")),
]:
    # One total fan per bundle; every check reads it.
    tf = total_space_fan(f, dd)
    nef_total = extreme_rays(nef_hform(tf, extended_kernel(f, dd)))
    print(
        f"{name}: nef pullback {nef_total == nef_cone_anticones(f)},",
        f"anticanonical consistency {anticanonical_consistency_check(f, dd, tf)},",
        f"hull in support {conv_in_support_check(f, dd, tf)},",
        f"W-set convex {w_set_convexity(tf)}",
    )

print()
print("== negative controls ==")
fan, d = example("f3_minus_k")
print("F3 with the anticanonical bundle: bundle nef:", class_is_nef(fan, d.row(0)))
print("  W-set convex:", w_set_convexity(total_space_fan(fan, d)))
fan, d = example("p1_o_minus1")
print("P1 with the degree -1 bundle: bundle nef:", class_is_nef(fan, d.row(0)))
print("  W-set convex:", w_set_convexity(total_space_fan(fan, d)))
