"""The I-series: coefficient tables, annihilation by the moduli
generators, homogeneity, and the kernel-landing property."""

from pathlib import Path

from tglab.cli import load_spec
from tglab.models import build_model
from tglab.qdmcheck import annihilation_check, homogeneity_check, quot_landing_check
from tglab.weylops import WeylOp, bounded_ideal_membership

SPECS = Path(__file__).resolve().parent.parent / "specs"


def example(name):
    """The fan and bundle matrix of specs/<name>.json."""
    spec = load_spec(str(SPECS / f"{name}.json"))
    return spec["fan"], spec["bundles"]


print("== the plane ==")
model = build_model(*example("p2"))
table = model.i_table(9)
print("A_1 (inverse cube of p + z):", table[(1,)])
box = model.qdm_generators()["boxes"][0]
rep = annihilation_check(box, table, 8)
print("all residues vanish through degree 8:", rep["all_zero"])
hom = homogeneity_check(table, 8)
print("weights -3d:", [r["expected"] for r in hom["rows"][:5]])

print()
print("== the degree-2 bundle on the line ==")
fan, d = example("p1_o2")
model = build_model(fan, d)
table = model.i_table(9)
print("A_1:", table[(1,)])
g = model.qdm_generators()
rep = annihilation_check(g["boxes"][0], table, 8)
hom = homogeneity_check(table, 8)
print("residues vanish:", rep["all_zero"], "| weights all zero:",
      all(r["expected"] == 0 for r in hom["rows"]))

print()
print("== kernel landing ==")
ctx = g["ctx"]
T = WeylOp.zpow(ctx, 1) * WeylOp.var(ctx, 0) * WeylOp.partial(ctx, 0)
z = WeylOp.zpow(ctx, 1)
q = WeylOp.var(ctx, 0)
P = T - q.scale(4) * T - (q * z).scale(2)
print("candidate operator:", P)
cert = bounded_ideal_membership(
    T.scale(2) * P, [g["boxes"][0], g["euler"]], 2, z_range=(0, 2), lam_range=[(0, 2)]
)
print("top-class multiple sits in the ideal:", cert["status"])
land = quot_landing_check(P, table, 6)
print("all residues land in the multiplication kernel:", land["all_land"])
land_one = quot_landing_check(WeylOp.one(ctx), table, 6)
print("the identity operator correctly fails:", not land_one["all_land"])
