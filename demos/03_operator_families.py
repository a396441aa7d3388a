"""The operator families: box and Euler generators in their plain,
homogenized, hat and nu-shifted forms, the substitution that connects
them, and the torus coordinate change onto the Kaehler moduli space."""

from pathlib import Path

from tglab.cli import load_spec
from tglab.models import build_model
from tglab.weylops import (
    OpContext,
    WeylOp,
    duality_morphism,
    fl_match_homogenized,
    fl_substitution,
    gkz_generators,
    homogenized_box,
    psi_twist,
    shift_morphism_factorization,
    theta_restrict,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"


def example(name):
    """The fan and bundle matrix of specs/<name>.json."""
    spec = load_spec(str(SPECS / f"{name}.json"))
    return spec["fan"], spec["bundles"]


fan, d = example("p1_o2")
model = build_model(fan, d)

print("== plain generators for the total-space matrix ==")
g = gkz_generators(model.Aprime, [0, 0], kernel_basis=model.L)
print("box:", g["boxes"][0])
for k, e in enumerate(g["eulers"]):
    print(f"euler {k+1}:", e)

print()
print("== homogenized box and its z-side image ==")
hctx = OpContext.make(4, names=("l0", "l1", "l2", "l3"))
hbox = homogenized_box(hctx, tuple(model.L.col(0)))
print("homogenized box:", hbox)
image, clearing = fl_substitution(hbox)
print("after lambda_0 -> z^2 d/dz, partial_0 -> 1/z:", image)
print("match record:", fl_match_homogenized(model.Aprime, model.L.col(0)))

print()
print("== shift morphisms factor through boxes ==")
cert = shift_morphism_factorization(model.Adoubleprime, (0, 1, 1, 0), (0, 0, 0, 2))
print("relation:", cert["relation"], "identity holds:", cert["identity_holds"])

print()
print("== duality morphisms ==")
print("c = 0 twisted morphism:", duality_morphism(3, 0))
print("one bundle factor:", duality_morphism(2, 1))
print("twist followed by the hat morphism equals it:",
      psi_twist(2, 1) * WeylOp.partial(duality_morphism(2, 1).ctx, 2)
      == duality_morphism(2, 1))

print()
print("== the torus coordinate change lands on the moduli generators ==")
sg = model.star_generators()
qg = model.qdm_generators()
print("nu-shifted box:", sg["boxes"][0])
img = theta_restrict(sg["boxes"][0], model.L, model.M, model.m)
print("image in q:", img)
print("equals the moduli generator:", img == qg["boxes"][0])
print("moduli Euler operator:", qg["euler"])
