"""Command line front end.

``tglab <command> --spec <file> [flags]`` reads a JSON problem
specification, runs the requested family of checks and prints a
human-readable summary (default) or a machine report (``--json``).

Exit codes: 0 when every executed mathematical check passes, 1 when a
mathematical check fails (the report carries the witness), 2 for input or
usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections import namedtuple
from fractions import Fraction

from tglab import errors
from tglab.errors import InputError, ParseError
from tglab.intlinalg import IntegerMatrix
from tglab.lgfamily import NewtonData, build_family, classify_parameter, restrict_to_km
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
    Fan,
    adjoint_coefficients,
    anticanonical_consistency_check,
    class_is_nef,
    conv_in_support_check,
    nef_cone_anticones,
    nef_cone_pl,
    total_space_fan,
    w_set_convexity,
)
from tglab.weylops import (
    beta_outside_verified_regime,
    fl_hat_generators,
    fl_match_homogenized,
    gkz_generators,
    homogenized_generators,
)

SCHEMA = 1


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_rows(rows) -> bool:
    return isinstance(rows, list) and all(
        isinstance(row, list) and all(_is_int(x) for x in row) for row in rows
    )


# The fields of a spec and of its fan; load_spec refuses any other key, so a
# misspelt one cannot be silently ignored.
SPEC_KEYS = ("fan", "bundles", "basis_p")
FAN_KEYS = ("rays", "max_cones")


def load_spec(path: str) -> dict:
    """The mathematical input of the spec: the fan, the bundle matrix (one
    row per bundle, one column per ray) and basis_p."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read spec: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    if not isinstance(raw, dict) or "fan" not in raw:
        raise ParseError("spec must be an object with a 'fan' field")
    unknown = [key for key in raw if key not in SPEC_KEYS]
    if unknown:
        raise ParseError(f"unknown spec field {unknown[0]!r}; known: {', '.join(SPEC_KEYS)}")
    fan_data = raw["fan"]
    try:
        rays, cones = fan_data["rays"], fan_data["max_cones"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad fan data: {exc}")
    unknown = [key for key in fan_data if key not in FAN_KEYS]
    if unknown:
        raise ParseError(f"unknown fan field {unknown[0]!r}; known: {', '.join(FAN_KEYS)}")
    if not _is_int_rows(rays):
        raise ParseError("rays must be a list of integer lists")
    if not _is_int_rows(cones):
        raise ParseError("max_cones must be a list of integer lists")
    fan = Fan.make(rays, [[i - 1 for i in c] for c in cones])
    bundles = raw.get("bundles", [])
    if not _is_int_rows(bundles):
        raise ParseError("bundles must be a list of integer lists")
    if any(len(row) != fan.n_rays for row in bundles):
        raise ParseError(f"bundle rows must have one entry per ray ({fan.n_rays})")
    basis_p = raw.get("basis_p")
    if basis_p is not None and not (
        _is_int_rows(basis_p) and len({len(row) for row in basis_p}) <= 1
    ):
        raise ParseError("basis_p must be null or a list of integer rows of one length")
    d = IntegerMatrix(len(bundles), fan.n_rays, tuple(tuple(row) for row in bundles))
    return {"fan": fan, "bundles": d, "basis_p": basis_p}


# The one table of settings: each flag besides --spec and --json, which every
# command reads, with the command that reads it, its argparse kwargs, its
# default and its range (None where it has none).  A maximum is the largest
# round value at which the slowest spec in specs/ finishes, with the other
# flags at their defaults; above it a search can run for minutes.
Flag = namedtuple("Flag", "command kwargs default range")
FLAGS = {
    "--degree": Flag("semigroup", dict(type=int, help="degree bound of the scan"), 6, (0, 30)),
    "--gkz-variant": Flag("gkz", dict(choices=["plain", "homog", "hat", "star", "qdm"],
                                      help="operator system"), "plain", None),
    "--beta": Flag("gkz", dict(help="parameters, comma-separated integers (default zeros)"),
                   None, None),
    "--seed": Flag("lg", dict(type=int, help="seed of the parameter samples"), 0, None),
    "--samples": Flag("lg", dict(type=int, help="number of samples"), 3, (1, 300)),
    "--dmax": Flag("ifun", dict(type=int, help="largest degree of the I-series"), 8, (0, 150)),
}


def _check_flags(args):
    """Refuse a flag that the command does not read and a value outside its
    range, then give every flag that was not given its default."""
    for flag, f in FLAGS.items():
        dest = flag[2:].replace("-", "_")
        value = getattr(args, dest)
        if value is None:
            setattr(args, dest, f.default)
        elif f.command != args.command:
            raise ParseError(f"{args.command} does not read {flag}; only {f.command} does")
        elif f.range and value < f.range[0]:
            raise ParseError(f"{flag} must be at least {f.range[0]}, got {value}")
        elif f.range and value > f.range[1]:
            raise ParseError(f"{flag} must be at most {f.range[1]}, got {value}")


def cmd_validate(spec, args) -> dict:
    fan, d = spec["fan"], spec["bundles"]
    diag = fan.diagnostics
    out = {
        "fan": {
            "is_fan": diag.is_fan,
            "smooth": diag.smooth,
            "complete": diag.complete,
            "simplicial": diag.simplicial,
        }
    }
    # The nef tests need a complete fan; an incomplete one reports null.
    nef_rows = adjoint_nef = None
    if diag.complete:
        nef_rows = [class_is_nef(fan, row) for row in d.entries]
        adjoint_nef = class_is_nef(fan, adjoint_coefficients(fan, d))
    out["bundle_nef"] = nef_rows
    out["adjoint_class_nef"] = adjoint_nef
    ok = diag.is_fan and diag.smooth and diag.complete and all(nef_rows)
    if ok:
        total = total_space_fan(fan, d)
        out["total_fan"] = {
            "rays": [list(r) for r in total.rays],
            "max_cones": [[i + 1 for i in c] for c in total.max_cones],
            # total_space_fan refuses a cone whose determinant is not +-1.
            "smooth": True,
        }
    out["passed"] = bool(ok and out["adjoint_class_nef"])
    return out


def cmd_construct(spec, args) -> dict:
    fan, d = spec["fan"], spec["bundles"]
    model = build_model(fan, d, basis_p=spec["basis_p"])
    nef = nef_cone_anticones(fan)
    pl = nef_cone_pl(fan)
    out = {
        "A": model.A.to_lists(),
        "A_prime": model.Aprime.to_lists(),
        "A_double_prime": model.Adoubleprime.to_lists(),
        "kernel_basis": model.L.to_lists(),
        "section_C": model.C.to_lists(),
        "section_M": model.M.to_lists(),
        "section_D": model.C.mul(model.Aprime).transpose().to_lists(),
        # Pointed cones are equal exactly when their extreme rays are.
        "nef_cone_rays": [list(g) for g in nef],
        "nef_cones_agree": nef == pl,
        # The total fan's nef cone, in the extended relation lattice, is the base's.
        "nef_pullback_identity": extreme_rays(model.nef) == nef,
        "anticanonical_consistency": anticanonical_consistency_check(fan, d, model.total),
        "w_set_convex": w_set_convexity(model.total),
        "conv_in_support": conv_in_support_check(fan, d, model.total),
    }
    out["passed"] = bool(
        out["nef_cones_agree"]
        and out["nef_pullback_identity"]
        and out["anticanonical_consistency"]
    )
    return out


def cmd_semigroup(spec, args) -> dict:
    fan, d = spec["fan"], spec["bundles"]
    bound = args.degree
    total = total_space_fan(fan, d)
    Btot = total.ray_matrix()
    S = DoubledSemigroup(total.newton_polytope)
    # One box scan gives the saturation witness, the interior points and
    # the points of the interior-shift test.
    scan = scan_cone_points(S, bound)
    witness = scan.witness
    saturated = witness is None
    out = {
        "degree_bound": bound,
        "normalized_volume": total.newton_polytope.volume,
        "saturated_up_to_bound": saturated,
        "witness": list(witness) if witness else None,
    }
    if saturated:
        # shiftp sums the bundle rays, the last c columns of A'; the graded
        # shift adds the apex (1, 0) and the c generators (1, bundle ray).
        shiftp = [sum(row[fan.n_rays:]) for row in Btot.entries]
        out["gorenstein_shift"] = gorenstein_shift_check(S, [1 + d.rows] + shiftp, bound, scan)
        out["interior_shift"] = interior_shift_check_ungraded(total, S, shiftp, bound, scan)
        out["passed"] = bool(out["gorenstein_shift"] and out["interior_shift"])
    else:
        out["passed"] = False
    return out


def _gkz_beta(text, length):
    """The --beta list for a variant with `length` parameters; zeros by default."""
    if not text:
        return [0] * length
    try:
        beta = [int(b) for b in text.split(",")]
    except ValueError:
        raise ParseError(f"--beta must be comma-separated integers, got {text!r}")
    if len(beta) != length:
        raise ParseError(f"--beta needs {length} entries for this variant, got {len(beta)}")
    return beta


def cmd_gkz(spec, args) -> dict:
    fan, d = spec["fan"], spec["bundles"]
    variant = args.gkz_variant
    # A' has one row per coordinate of the total space; the homogenized,
    # hat and star systems carry one more parameter, beta_0, and qdm none.
    n = fan.dim + d.rows
    beta = _gkz_beta(args.beta, {"plain": n, "qdm": 0}.get(variant, n + 1))
    model = build_model(fan, d, basis_p=spec["basis_p"])
    out = {"variant": variant}
    if variant == "plain":
        g = gkz_generators(model.Aprime, beta, kernel_basis=model.L)
        ops = g["boxes"] + g["eulers"]
    elif variant == "homog":
        g = homogenized_generators(model.Adoubleprime, beta, kernel_basis=model.L)
        ops = g["boxes"] + g["eulers"]
    elif variant == "hat":
        g = fl_hat_generators(model.Aprime, beta, kernel_basis=model.L)
        ops = g["boxes"] + [g["ehat"]] + g["eulers"]
        out["fl_matches"] = [
            fl_match_homogenized(model.Aprime, model.L.col(a)) | {"relation": list(model.L.col(a))}
            for a in range(model.r)
        ]
    elif variant == "star":
        g = model.star_generators(beta)
        ops = g["boxes"] + g["eulers"]
    elif variant == "qdm":
        g = model.qdm_generators()
        ops = g["boxes"] + [g["euler"]]
    out["beta"] = beta
    out["parameter_outside_verified_regime"] = beta_outside_verified_regime(beta)
    out["operators"] = [op.to_records() for op in ops]
    out["passed"] = True
    if "fl_matches" in out:
        out["passed"] = all(r["matches"] for r in out["fl_matches"])
    return out


def cmd_lg(spec, args) -> dict:
    fan, d = spec["fan"], spec["bundles"]
    model = build_model(fan, d, basis_p=spec["basis_p"])
    B = model.Aprime
    fam = build_family(B)
    km = restrict_to_km(B, model.M, model.m)
    rng = random.Random(args.seed)
    # Everything that does not depend on lambda is computed once, here.
    newton = NewtonData(model.total)
    vol = newton.polytope.volume
    samples = []
    good = 0
    for _ in range(args.samples):
        lam = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(B.cols)]
        verdict = classify_parameter(newton, lam)
        row = {
            "lambda": [str(x) for x in lam],
            "verdict": verdict["verdict"],
            "volume": verdict["evidence"]["volume"],
        }
        if "jacobian_dim" in verdict["evidence"]:
            row["jacobian_dim"] = verdict["evidence"]["jacobian_dim"]
        if verdict["verdict"] == "good":
            good += 1
        samples.append(row)
    out = {
        "family_monomials": sorted(str(k) for k in fam),
        "km_family_monomials": sorted([list(e), str(v)] for e, v in km.items()),
        "normalized_volume": vol,
        "samples": samples,
        "passed": good == len(samples),
    }
    return out


def cmd_ifun(spec, args) -> dict:
    fan, d = spec["fan"], spec["bundles"]
    model = build_model(fan, d, basis_p=spec["basis_p"])
    dmax = args.dmax
    table = model.i_table(dmax + 1)
    g = model.qdm_generators()
    rows = []
    all_zero = True
    for a, box in enumerate(g["boxes"]):
        rep = annihilation_check(box, table, dmax)
        landing = quot_landing_check(box, table, dmax)
        for brow, lrow in zip(rep["rows"], landing["rows"]):
            rows.append(
                {
                    "degree": list(brow["degree"]),
                    "relation": list(model.L.col(a)),
                    "B_d_is_zero": brow["is_zero"],
                    "c_top_landing": lrow["lands"],
                }
            )
        all_zero = all_zero and rep["all_zero"]
    hom = homogeneity_check(table, dmax)
    out = {
        "dmax": dmax,
        "rows": rows,
        "homogeneity": hom["all_homogeneous"],
        "passed": bool(all_zero and hom["all_homogeneous"]),
    }
    return out


COMMANDS = {
    "validate": cmd_validate,
    "construct": cmd_construct,
    "semigroup": cmd_semigroup,
    "gkz": cmd_gkz,
    "lg": cmd_lg,
    "ifun": cmd_ifun,
}


def human_lines(report: dict, prefix=""):
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            yield f"{prefix}{key}:"
            yield from human_lines(value, prefix + "  ")
        elif isinstance(value, list) and len(value) > 6:
            yield f"{prefix}{key}: [{len(value)} entries]"
        else:
            yield f"{prefix}{key}: {value}"


def _write(lines):
    """Print the lines to stdout.  A reader that has closed the pipe
    (``tglab ... | head -1``) ends the output without a traceback."""
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull, so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    ranges = ", ".join(f"{flag} {f.range[0]}..{f.range[1]}" for flag, f in FLAGS.items() if f.range)
    parser = argparse.ArgumentParser(
        prog="tglab",
        description=__doc__,
        epilog=f"A flag given to a command it does not belong to exits 2, and so does a "
        f"value outside its range: {ranges}.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--spec", required=True, help="path to the JSON problem spec")
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    groups = {}
    for flag, f in FLAGS.items():
        if f.command not in groups:
            groups[f.command] = parser.add_argument_group(f"{f.command} flags")
        kwargs = dict(f.kwargs)
        if f.default is not None:
            kwargs["help"] += f" (default {f.default})"
        groups[f.command].add_argument(flag, **kwargs)
    args = parser.parse_args(argv)

    try:
        _check_flags(args)
        spec = load_spec(args.spec)
        result = COMMANDS[args.command](spec, args)
    except InputError as exc:
        print(f"tglab: {exc}", file=sys.stderr)
        return 2
    except errors.TglabError as exc:
        report = {
            "schema": SCHEMA,
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "passed": False,
        }
        _write([json.dumps(report, sort_keys=True, indent=2) if args.json
                else f"{type(exc).__name__}: {exc}"])
        return 1

    report = {"schema": SCHEMA, "command": args.command, "results": result}
    if args.json:
        _write([json.dumps(report, sort_keys=True, indent=2, default=str)])
    else:
        _write(human_lines(report))
    return 0 if result.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())
