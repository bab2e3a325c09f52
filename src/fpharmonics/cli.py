"""Batch command-line front-end.

Every subcommand builds a plain report dict, prints a human-readable
summary, and optionally writes the report as JSON.
Reports are deterministic functions of the flags (seeded RNGs, no
timestamps), so identical invocations produce byte-identical files.
A failed check exits 1; a usage or input error (ValueError, OSError) 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from .charsums import gauss_sum, mixed_sum, weil_product_sum
from .counting import (TOL, Coloring, MarginReport, T, census_quadruples,
                       check_gvn_bounds, phased_character_example)
from .field import MultChar, cached_field
from .harmonic import (Signal, add_invert, add_transform, convolve, norm_qm,
                       norm_u2_plus, norm_u2_times, norm_u3_plus,
                       random_signal, signal_load)
from .qm import (QMSystem, TrigPoly, baby_count, bohr_set, box_fraction,
                 check_bohr_density, counting_lemma_check)
from .ramsey import (PairColoring, dependent_random_choice, extremal_coloring,
                     find_rich_color)
from .regularity import (build_atoms, decomposable_unit_signal,
                         kvn_energy_increment, project, quad_decompose)
from .search import fp_coloring_scan, interval_backtrack, interval_sweep

REPORT_SCHEMA_VERSION = 1


# -- report plumbing ---------------------------------------------------------

def _flatten(obj, prefix=""):
    """Flatten a nested report into (key, value) rows for the stdout summary."""
    rows = []
    if isinstance(obj, dict):
        for k in obj:
            rows.extend(_flatten(obj[k], f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], obj))
    return rows


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def emit(report: dict, args) -> None:
    report = {"schema": REPORT_SCHEMA_VERSION, **_jsonable(report)}
    for key, value in _flatten(report):
        print(f"{key:40s} {value}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


def _rng(args) -> np.random.Generator:
    if args.seed < 0:
        raise ValueError(f"--seed {args.seed}: need a seed >= 0")
    return np.random.default_rng(args.seed)


# -- checked identities, shared by verify and the subcommands ----------------
# each claim is named by the verify key it guards

def _signal(infile, ctx, make) -> Signal:
    """The signal in the --in file, or make() when there is none."""
    return signal_load(infile, ctx) if infile else make()


def _count_example(ctx) -> tuple:
    """(T, expected, |T - expected|) on the phased character example."""
    f1, f2, f3, f4, expected = phased_character_example(ctx)
    value = T(f1, f2, f3, f4)
    err = abs(value - expected)
    MarginReport.check("count_example_err", int(not err < TOL), 0,
                       err=err, T=value, expected=expected)
    return value, expected, err


def _roundtrip_err(f: Signal) -> float:
    """max |add_invert(add_transform(f)) - f|."""
    err = float(np.max(np.abs(add_invert(f.ctx, add_transform(f)).values - f.values)))
    MarginReport.check("roundtrip_err", int(not err < 1e-10), 0, err=err)
    return err


def _norm_chain(f: Signal) -> tuple:
    """(u2+, u3+, QM, L1) of f, the first three as NormResults."""
    chain = (norm_u2_plus(f), norm_u3_plus(f), norm_qm(f), f.lp_norm(1))
    values = [n.value for n in chain[:3]] + [chain[3]]
    ok = all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    MarginReport.check("norm_chain", int(not ok), 0, values=values)
    return chain


# -- subcommands -------------------------------------------------------------

def cmd_norms(args):
    ctx = cached_field(args.p)
    f = _signal(args.infile, ctx, lambda: random_signal(ctx, _rng(args), unit_l2=True))
    u2p, u3p, qm, l1 = _norm_chain(f)
    return {
        "p": args.p,
        "u2_plus": u2p._asdict(),
        "u2_times": norm_u2_times(f)._asdict(),
        "u3_plus": u3p._asdict(),
        "qm": qm._asdict(),
        "l1": l1,
        "chain_ok": True,
    }


def cmd_transform(args):
    ctx, rng = cached_field(args.p), _rng(args)
    f = _signal(args.infile, ctx, lambda: random_signal(ctx, rng))
    roundtrip = _roundtrip_err(f)
    spec = add_transform(f)
    parseval = abs(float(np.sum(np.abs(spec) ** 2)) - f.lp_norm(2) ** 2)
    g = random_signal(ctx, rng)
    conv_err = float(np.max(np.abs(
        add_transform(convolve(f, g)) - spec * add_transform(g))))
    MarginReport.check("parseval_err", parseval, 0.0)
    MarginReport.check("convolution_err", conv_err, 0.0)
    return {
        "p": args.p,
        "roundtrip_max_err": roundtrip,
        "parseval_err": parseval,
        "convolution_err": conv_err,
        "spectrum": spec if args.infile else None,
    }


def cmd_count(args):
    value, expected, err = _count_example(cached_field(args.p))
    return {"p": args.p, "T": value, "expected": expected, "abs_error": err}


def cmd_census(args):
    ctx = cached_field(args.p)
    if args.coloring:
        with open(args.coloring) as fh:
            data = json.load(fh)
        # exact ints only: JSON floats and bools would be truncated to colors
        assign = data.get("assign") if isinstance(data, dict) else None
        if not (isinstance(assign, list)
                and all(type(c) is int and 0 <= c < args.p for c in assign)):
            raise ValueError('a coloring file needs "assign": a list of integer '
                             f'colors 0 <= c < p = {args.p}')
        r = data.get("r", max(assign, default=-1) + 1)
        if type(r) is not int:
            raise ValueError(f'"r" must be an integer, got {r!r}')
    else:
        if args.r < 1:
            raise ValueError(f"--r {args.r}: need at least one color")
        assign = _rng(args).integers(0, args.r, size=args.p)
        r = args.r
    census = census_quadruples(ctx, Coloring(args.p, r, assign))
    return census.to_json()


def cmd_scan(args):
    ctx = cached_field(args.p)
    return fp_coloring_scan(ctx, args.r, mode=args.mode, count=args.count,
                            rng=_rng(args))


def cmd_bohr(args):
    ctx = cached_field(args.p)
    psi = QMSystem.random(ctx, args.d, _rng(args))
    frac, floor = box_fraction(psi, args.eps)
    dens, dens_floor = check_bohr_density(psi, args.eps)
    return {
        "p": args.p, "d": args.d, "eps": args.eps,
        "dims": psi.to_json()["dims"],
        "bohr_size": int(dens * args.p), "bohr_density": dens,
        "density_floor": dens_floor, "box_fraction": frac, "box_floor": floor,
    }


def cmd_equidist(args):
    ctx = cached_field(args.p)
    rng = _rng(args)
    psi = QMSystem.random(ctx, args.d, rng)
    F = TrigPoly.random(args.d, rng, n_terms=3, max_freq=1)
    lhs, rhs, margin = baby_count(psi, F)
    return {"p": args.p, "d": args.d, "lhs": lhs, "rhs": rhs,
            "margin": margin}


def cmd_countlemma(args):
    ctx = cached_field(args.p)
    rng = _rng(args)
    psi = QMSystem.random(ctx, args.d, rng)
    F = TrigPoly.random(args.d, rng, n_terms=3, max_freq=1)
    S = bohr_set(psi, args.eps)
    rep = counting_lemma_check(psi, F, S, args.eps)
    return rep.to_json()


def cmd_decompose(args):
    ctx = cached_field(args.p)
    f = _signal(args.infile, ctx, lambda: decomposable_unit_signal(ctx, _rng(args)))
    dec = quad_decompose(f, args.eps)
    report = dec.to_json()
    report["p"] = args.p
    report["n_terms"] = len(dec.lambdas)
    report["coefficient_mass"] = dec.coefficient_mass()
    return report


def cmd_kvn(args):
    ctx = cached_field(args.p)
    if args.r > args.p:
        raise ValueError(f"--r {args.r}: one signal per color class, at most p")
    rng = _rng(args)
    fs = [random_signal(ctx, rng, kind="bounded") for _ in range(args.r)]
    psi0 = QMSystem(ctx, [])
    res = kvn_energy_increment(fs, psi0, args.delta, args.R)
    return {
        "p": args.p, "r": args.r, "delta": args.delta, "R": args.R,
        "iterations": res.iterations,
        "final_d": res.psi.d,
        "dims": res.psi.to_json()["dims"],
        "energy_trace": res.energy_trace,
    }


def cmd_ramsey(args):
    if args.coloring:
        with open(args.coloring) as fh:
            col = PairColoring.from_json(json.load(fh))
    else:
        col = extremal_coloring(args.r)
    i, value = find_rich_color(col, mode=args.mode)
    return {
        "classes": col.r, "group": list(col.group.factors),
        "mode": args.mode, "rich_color": i,
        "lambda": value,
    }


def cmd_drc(args):
    rng = _rng(args)
    nx, ny = int(rng.integers(4, 20)), int(rng.integers(4, 20))
    wx = rng.integers(1, 5, size=nx)
    wy = rng.integers(1, 5, size=ny)
    nu_x = {i: Fraction(int(w), int(wx.sum())) for i, w in enumerate(wx)}
    nu_y = {j: Fraction(int(w), int(wy.sum())) for j, w in enumerate(wy)}
    A = {(i, j) for i in range(nx) for j in range(ny) if rng.random() < 0.5}
    if not A:
        A = {(0, 0)}
    eta = Fraction(int(rng.integers(1, 9)), 16)
    res = dependent_random_choice(nu_x, nu_y, A, eta)
    return {
        "x_size": nx, "y_size": ny, "eta": eta, "alpha": res.alpha,
        "x_prime": sorted(res.x_prime), "x_prime_measure": res.x_prime_measure,
        "bad_inside": res.bad_measure_inside,
    }


def cmd_charsum(args):
    ctx = cached_field(args.p)
    rng = _rng(args)
    a = int(rng.integers(1, args.p))
    b = int(rng.integers(0, args.p))
    g = gauss_sum(ctx, a, b)
    chis = [MultChar(int(rng.integers(0, args.p - 1))) for _ in range(3)]
    if all(c.is_principal() for c in chis):
        chis[0] = MultChar(1)
    shifts = list(rng.choice(args.p, size=3, replace=False))
    w, bound = weil_product_sum(ctx, chis, [int(s) for s in shifts])
    rep = mixed_sum(ctx, a, b, chis[0], chis[1], int(rng.integers(1, args.p)))
    return {
        "p": args.p,
        "gauss": {"a": a, "b": b, "value": g, "modulus": abs(g)},
        "weil": {"ks": [c.k for c in chis], "shifts": [int(s) for s in shifts],
                 "value": w, "abs": abs(w), "bound": bound},
        "mixed": rep.to_json(),
    }


def cmd_search(args):
    if args.sweep:
        sw = interval_sweep(args.r, args.N, distinct=args.distinct,
                            budget=args.budget)
        return {
            "sweep_to": args.N, "r": args.r, "distinct": args.distinct,
            "last_sat": sw["last_sat"],
            "statuses": [res.status for res in sw["results"]],
            "nodes": sum(res.nodes for res in sw["results"]),
        }
    res = interval_backtrack(args.N, args.r, distinct=args.distinct,
                             budget=args.budget)
    return res.to_json()


def cmd_verify(args):
    """Compact cross-module property sweep at one prime; any failure exits 1."""
    ctx = cached_field(args.p)
    rng = _rng(args)
    f = random_signal(ctx, rng, unit_l2=True)
    # the norm chain refuses p > MAX_GRID_PRIME, so it runs before the O(p^2) count example
    u2p, u3p, qm, l1 = _norm_chain(f)
    checks = {"count_example_err": _count_example(ctx)[2], "roundtrip_err": _roundtrip_err(f),
              "norm_chain": [u2p.value, u3p.value, qm.value, l1]}

    gs = [random_signal(ctx, rng, unit_l2=True) for _ in range(3)]
    checks["gvn_u2plus_slack"] = check_gvn_bounds(gs[0], gs[1], gs[2], gs[0],
                                                  which="u2plus").slack

    psi = QMSystem.random(ctx, 1, rng)
    F = TrigPoly.random(1, rng, n_terms=2, max_freq=1)
    lhs, rhs, margin = baby_count(psi, F)
    checks["baby_margin"] = margin
    S = bohr_set(psi, 0.5)
    checks["countlemma_ok"] = counting_lemma_check(psi, F, S, 0.5).ok()

    # at small p the quadratic phases have cross-correlations ~ 1/sqrt(p),
    # so the decomposition threshold must sit above amp/sqrt(p)
    eps_dec = 0.8 if args.p < 41 else 0.5
    g = decomposable_unit_signal(ctx, rng)
    dec = quad_decompose(g, eps_dec)
    checks["decompose_residual"] = dec.residual_u3
    atoms = build_atoms(psi, 2)
    pf = project(atoms, f)
    err = checks["projection_idempotent_err"] = float(
        np.max(np.abs(project(atoms, pf).values - pf.values)))
    MarginReport.check("projection_idempotent_err", int(not err < TOL), 0, err=err)

    col = extremal_coloring(2)
    i, value = find_rich_color(col, mode="oracle")
    checks["ramsey_rich_color"] = i
    checks["ramsey_lambda"] = value
    MarginReport.check("ramsey_rich_color", i, 0)
    MarginReport.check("ramsey_lambda", abs(value - Fraction(1, 16)), 0, color=i)

    checks["p"] = args.p
    checks["seed"] = args.seed
    checks["all_passed"] = True
    return checks


# -- argument parsing --------------------------------------------------------

# Flags shared by several subcommands: (type, default).  A subcommand
# accepts only the flags its cmd_* reads, plus --out.
COMMON_FLAGS = {"p": (int, 13), "r": (int, 2), "d": (int, 1),
                "eps": (float, 0.5), "seed": (int, 0)}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared: parsing keeps no
    state on it, since every action stores an immutable default or value
    into a fresh namespace (no append or count actions)."""
    parser = argparse.ArgumentParser(
        prog="fpharmonics",
        description="Finite-field harmonic analysis batch tool")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, *flags, **defaults):
        sp = sub.add_parser(name)
        for flag in flags:
            kind, default = COMMON_FLAGS[flag]
            sp.add_argument(f"--{flag}", type=kind,
                            default=defaults.get(flag, default))
        sp.add_argument("--out", type=str, default=None)
        sp.set_defaults(func=func)
        return sp

    command("norms", cmd_norms, "p", "seed").add_argument(
        "--in", dest="infile", default=None)
    command("transform", cmd_transform, "p", "seed").add_argument(
        "--in", dest="infile", default=None)
    command("count", cmd_count, "p")
    command("census", cmd_census, "p", "r", "seed").add_argument(
        "--coloring", default=None)

    sp = command("scan", cmd_scan, "p", "r", "seed", p=5)
    sp.add_argument("--mode", choices=("exhaustive", "random"),
                    default="exhaustive")
    sp.add_argument("--count", type=int, default=1000)

    command("bohr", cmd_bohr, "p", "d", "eps", "seed")
    command("equidist", cmd_equidist, "p", "d", "seed")
    command("countlemma", cmd_countlemma, "p", "d", "eps", "seed", p=31)
    command("decompose", cmd_decompose, "p", "eps", "seed", p=61).add_argument(
        "--in", dest="infile", default=None)

    sp = command("kvn", cmd_kvn, "p", "r", "seed", p=61)
    sp.add_argument("--delta", type=float, default=0.3)
    sp.add_argument("--R", type=int, default=32)

    sp = command("ramsey", cmd_ramsey, "r")
    sp.add_argument("--coloring", default=None)
    sp.add_argument("--mode", choices=("oracle", "constructive"),
                    default="oracle")

    command("drc", cmd_drc, "seed")
    command("charsum", cmd_charsum, "p", "seed", p=31)

    sp = command("search", cmd_search, "r")
    sp.add_argument("--N", type=int, default=20)
    sp.add_argument("--distinct", action="store_true")
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--sweep", action="store_true")

    command("verify", cmd_verify, "p", "seed")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        emit(args.func(args), args)
    except AssertionError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
