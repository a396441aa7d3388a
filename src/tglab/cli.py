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
from fractions import Fraction

from tglab import errors
from tglab.errors import InputError, ParseError
from tglab.intlinalg import IntegerMatrix
from tglab.lgfamily import NewtonData, build_family, classify_parameter, restrict_to_km
from tglab.models import build_model
from tglab.polytopes import normalized_volume
from tglab.qdmcheck import annihilation_check, homogeneity_check, quot_landing_check
from tglab.rationalcone import RationalCone
from tglab.semigroups import (
    doubled_semigroup,
    gorenstein_shift_check,
    interior_shift_check_ungraded,
    scan_cone_points,
)
from tglab.toricfan import (
    Fan,
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


# The fields of a spec and of its fan, and its options with their defaults;
# load_spec refuses any other key, so a misspelt one cannot be silently ignored.
SPEC_KEYS = ("fan", "bundles", "basis_p", "options")
FAN_KEYS = ("rays", "max_cones")
OPTIONS = {"degree_bound": 6, "dmax": 8, "seed": 0, "stabilization_window": 3}


def load_spec(path: str) -> dict:
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
    bundle_rows = [tuple(row) for row in bundles]
    if any(len(row) != fan.n_rays for row in bundle_rows):
        raise ParseError(f"bundle rows must have one entry per ray ({fan.n_rays})")
    opts = raw.get("options", {})
    if not isinstance(opts, dict) or not all(_is_int(v) for v in opts.values()):
        raise ParseError("options must be an object with integer values")
    unknown = [key for key in opts if key not in OPTIONS]
    if unknown:
        raise ParseError(f"unknown option {unknown[0]!r}; known: {', '.join(OPTIONS)}")
    basis_p = raw.get("basis_p")
    if basis_p is not None and not (
        _is_int_rows(basis_p) and len({len(row) for row in basis_p}) <= 1
    ):
        raise ParseError("basis_p must be null or a list of integer rows of one length")
    spec = {
        "fan": fan,
        "bundles": bundle_rows,
        "basis_p": basis_p,
        **{key: opts.get(key, default) for key, default in OPTIONS.items()},
    }
    return spec


# The range of each setting.  A maximum is the largest round value at which
# the slowest spec in specs/ finishes, with the other settings at their
# defaults; above it a search can run for minutes.
MINIMUM = {"degree_bound": 0, "dmax": 0, "stabilization_window": 1, "samples": 1, "cutoff": 1}
MAXIMUM = {
    "degree_bound": 30, "dmax": 150, "stabilization_window": 12, "samples": 300, "cutoff": 12
}


# The flags of each command, besides --spec and --json, which every command
# reads.  A flag given to another command exits 2; spec options are shared.
FLAGS = {
    "semigroup": {"--degree": dict(type=int, help="degree bound of the scan")},
    "gkz": {
        "--gkz-variant": dict(choices=["plain", "homog", "hat", "star", "qdm"],
                              help="operator system (default plain)"),
        "--beta": dict(help="parameters, comma-separated integers"),
    },
    "lg": {
        "--seed": dict(type=int, help="seed of the parameter samples"),
        "--samples": dict(type=int, help="number of samples (default 3)"),
        "--cutoff": dict(type=int, help="slice cutoff for the Jacobian dimension sweep"),
    },
    "ifun": {"--dmax": dict(type=int, help="largest degree of the I-series")},
}


def _check_flags(args):
    """Refuse a flag that the command does not read."""
    for cmd, flags in FLAGS.items():
        for flag in flags:
            if cmd != args.command and getattr(args, flag[2:].replace("-", "_")) is not None:
                raise ParseError(f"{args.command} does not read {flag}; only {cmd} does")


def _apply_flags(spec, args):
    """Let the command-line flags override the spec options, then refuse any
    setting outside its range."""
    flags = {"degree_bound": args.degree, "dmax": args.dmax, "seed": args.seed}
    spec.update({k: v for k, v in flags.items() if v is not None})
    spec.update(samples=3 if args.samples is None else args.samples, cutoff=args.cutoff)
    for key, low in MINIMUM.items():
        if spec[key] is not None and spec[key] < low:
            raise ParseError(f"{key} must be at least {low}, got {spec[key]}")
        if spec[key] is not None and spec[key] > MAXIMUM[key]:
            raise ParseError(f"{key} must be at most {MAXIMUM[key]}, got {spec[key]}")


def bundle_matrix(spec) -> IntegerMatrix:
    fan = spec["fan"]
    if not spec["bundles"]:
        return IntegerMatrix(0, fan.n_rays, ())
    return IntegerMatrix.from_rows(spec["bundles"])


def cmd_validate(spec, args) -> dict:
    fan = spec["fan"]
    d = bundle_matrix(spec)
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
        coeffs = [
            1 - sum(d.entries[j][i] for j in range(d.rows)) for i in range(fan.n_rays)
        ]
        adjoint_nef = class_is_nef(fan, coeffs)
    out["bundle_nef"] = nef_rows
    out["adjoint_class_nef"] = adjoint_nef
    ok = diag.is_fan and diag.smooth and diag.complete and all(nef_rows)
    if ok:
        # A nef row with a negative entry differs from a nonnegative one by
        # div(chi^m), which shears the rays (a_i, d_i) by a unimodular map.
        total = total_space_fan(fan, d, allow_negative=True)
        out["total_fan"] = {
            "rays": [list(r) for r in total.rays],
            "max_cones": [[i + 1 for i in c] for c in total.max_cones],
            "smooth": total.diagnostics.smooth,
        }
    out["passed"] = bool(ok and out["adjoint_class_nef"])
    return out


def cmd_construct(spec, args) -> dict:
    fan = spec["fan"]
    d = bundle_matrix(spec)
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
        "nef_cone_rays": [list(g) for g in nef.generators],
        "nef_cones_agree": nef.equals(pl),
        # The total fan's nef cone, in the extended relation lattice, is the base's.
        "nef_pullback_identity": RationalCone.from_hform(model.nef).equals(nef),
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
    fan = spec["fan"]
    d = bundle_matrix(spec)
    bound = spec["degree_bound"]
    total = total_space_fan(fan, d, allow_negative=True)
    Btot = total.ray_matrix()
    vol = normalized_volume(
        [tuple(0 for _ in range(Btot.rows))] + [Btot.col(i) for i in range(Btot.cols)]
    )
    S = doubled_semigroup(Btot)
    # One box scan gives the saturation witness, the interior points and
    # the points of the interior-shift test.
    scan = scan_cone_points(S, bound)
    witness = scan.witness
    saturated = witness is None
    out = {
        "degree_bound": bound,
        "normalized_volume": vol,
        "saturated_up_to_bound": saturated,
        "witness": list(witness) if witness else None,
    }
    if saturated:
        c = d.rows
        shift = list(S.gen(0))
        for j in range(c):
            gen = S.gen(1 + fan.n_rays + j)
            shift = [a + b for a, b in zip(shift, gen)]
        out["gorenstein_shift"] = gorenstein_shift_check(S, shift, bound, scan)
        shiftp = [0] * Btot.rows
        for j in range(c):
            col = Btot.col(fan.n_rays + j)
            shiftp = [a + b for a, b in zip(shiftp, col)]
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
    fan = spec["fan"]
    d = bundle_matrix(spec)
    variant = args.gkz_variant or "plain"
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
    else:
        raise ParseError(f"unknown gkz variant {variant!r}")
    out["beta"] = beta
    out["parameter_outside_verified_regime"] = beta_outside_verified_regime(beta)
    out["operators"] = [op.to_records() for op in ops]
    out["passed"] = True
    if "fl_matches" in out:
        out["passed"] = all(r["matches"] for r in out["fl_matches"])
    return out


def cmd_lg(spec, args) -> dict:
    fan = spec["fan"]
    d = bundle_matrix(spec)
    model = build_model(fan, d, basis_p=spec["basis_p"])
    B = model.Aprime
    fam = build_family(B)
    km = restrict_to_km(B, model.M, model.m)
    rng = random.Random(spec["seed"])
    window = spec["stabilization_window"]
    # Everything that does not depend on lambda is computed once, here.
    newton = NewtonData(model.total, spec["cutoff"])
    if window > newton.cutoff:
        raise InputError(
            f"stabilization_window must be at most the cutoff, {newton.cutoff}, got {window}"
        )
    vol = newton.volume
    samples = []
    good = 0
    for _ in range(spec["samples"]):
        lam = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(B.cols)]
        verdict = classify_parameter(newton, lam, stabilization_window=window)
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
    fan = spec["fan"]
    d = bundle_matrix(spec)
    model = build_model(fan, d, basis_p=spec["basis_p"])
    dmax = spec["dmax"]
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
    ranges = ", ".join(f"{k} {MINIMUM[k]}..{MAXIMUM[k]}" for k in MINIMUM)
    parser = argparse.ArgumentParser(
        prog="tglab",
        description=__doc__,
        epilog=f"A flag given to a command it does not belong to exits 2, and so does a "
        f"setting outside its range: {ranges}.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--spec", required=True, help="path to the JSON problem spec")
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    for cmd, flags in FLAGS.items():
        group = parser.add_argument_group(f"{cmd} flags")
        for flag, kwargs in flags.items():
            group.add_argument(flag, **kwargs)
    args = parser.parse_args(argv)

    try:
        _check_flags(args)
        spec = load_spec(args.spec)
        _apply_flags(spec, args)
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
