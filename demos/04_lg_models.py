"""Laurent-polynomial families: moduli restriction with its sign twist,
Jacobian quotient dimensions, and the good/bad parameter classifier."""

from fractions import Fraction

from tglab import corpus
from tglab.lgfamily import (
    NewtonData,
    build_family,
    classify_parameter,
    jacobian_quotient_dim,
    restrict_to_km,
)
from tglab.models import build_model
from tglab.toricfan import total_space_fan


def show(poly, names):
    """A family as sorted terms, e.g. - y1^-1 q1 + y2 - y1 y2^2."""
    terms = []
    for e, c in sorted(poly.items()):
        factors = [] if abs(c) == 1 else [str(abs(c))]
        factors += [v if a == 1 else f"{v}^{a}" for v, a in zip(names, e) if a]
        terms.append(("- " if c < 0 else "+ ") + (" ".join(factors) or "1"))
    return " ".join(terms).removeprefix("+ ")


fan, d = corpus.p1_o2()
model = build_model(fan, d)
B = model.Aprime
newton = NewtonData(model.total)

ys = [f"y{k + 1}" for k in range(B.rows)]
print("== the family and its moduli restriction ==")
fam = build_family(B)
print("abstract family in y and the coefficients l:",
      show(fam, ys + [f"l{i + 1}" for i in range(B.cols)]))
km = restrict_to_km(B, model.M, model.m)
print("restricted over q (bundle monomial enters with +):",
      show(km, ys + [f"q{a + 1}" for a in range(model.M.rows)]))

print()
print("== Jacobian quotient dimensions ==")
vol = model.total.newton_polytope.volume
print("normalized volume of the Newton polytope:", vol)
for lam in ([1, 1, 1], [2, Fraction(1, 3), 5]):
    res = jacobian_quotient_dim(newton, lam)
    print(f"dimension at {lam}: {res['dim']} (slices {res['slices']})")

print()
print("== parameter classification ==")
for lam in ([1, 1, 1], [1, 1, -2]):
    verdict = classify_parameter(newton, lam)
    print(f"lambda = {lam}: {verdict['verdict']}")
    if "bad_face_witness" in verdict["evidence"]:
        print("   witness:", verdict["evidence"]["bad_face_witness"])

print()
print("== a two-parameter example ==")
fan, d = corpus.p1p1_o11()
total = total_space_fan(fan, d)
res = jacobian_quotient_dim(NewtonData(total), [1, 2, 1, 1, 3])
print("dimension:", res["dim"], "volume:", total.newton_polytope.volume)
