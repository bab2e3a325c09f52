"""The benchmark's workloads: seeded job lists, the calls into the package,
and the check of every answer against an independent oracle.

A job is a small JSON-able spec. `materialize` turns it into numpy
inputs outside any timed span, `KINDS[kind].run` makes the package
calls that are being measured, and `KINDS[kind].check` raises
`CheckFailed` when the answer disagrees with its oracle. `attempt` runs
a job and `judge` checks its answer, each turning any exception into a
failure reason, so one bad answer never stops a run. Only `attempt` is
timed.

Package functions are always reached as module attributes
(`counting.T`, never a bare `T`), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import traceback
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import fpharmonics.charsums as charsums
import fpharmonics.cli as cli
import fpharmonics.counting as counting
import fpharmonics.field as field
import fpharmonics.harmonic as harmonic
import fpharmonics.qm as qm
import fpharmonics.ramsey as ramsey
import fpharmonics.regularity as regularity
import fpharmonics.search as search

import oracles

TOL = 1e-9
N_CYCLES = 200  # cycles in a job list; a run that outlasts them starts over
GVN_KINDS = ("u2plus", "u2times", "gvn3", "gvnQM")
TRIPLE_KINDS = ("sum", "product", "shkredov")


class CheckFailed(AssertionError):
    """A package answer disagreed with its oracle."""


def expect(cond, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def close(a, b, what: str, tol: float = TOL) -> None:
    expect(abs(a - b) <= tol, f"{what}: {a} vs {b}")


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def _bounded(rng, p: int) -> np.ndarray:
    """A signal with |f| <= 1: uniform modulus, uniform phase."""
    return rng.uniform(0.0, 1.0, p) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, p))


def _dims(rng, p: int, d: int, full_orbit: bool = False) -> list:
    """A random QM-system: a_i in [1, p), k_i in [1, p-1), so |Gx| >= 2.
    With full_orbit every k_i is a unit mod p-1, so |H| = p^2 (p-1) and
    the cost of enumerating H is the same for every draw."""
    ks = [k for k in range(1, p - 1) if not full_orbit or math.gcd(k, p - 1) == 1]
    return [(int(rng.integers(1, p)), int(rng.choice(ks))) for _ in range(d)]


def _terms(rng, d: int) -> dict:
    """Three distinct frequency triples in {-1, 0, 1}^d, complex gaussian
    coefficients scaled to total mass 1.5 (the TrigPoly.random family)."""
    terms: dict = {}
    while len(terms) < 3:
        key = tuple(tuple(int(v) for v in rng.integers(-1, 2, d)) for _ in range(3))
        terms[key] = complex(rng.standard_normal(), rng.standard_normal())
    scale = 1.5 / sum(abs(c) for c in terms.values())
    return {k: c * scale for k, c in terms.items()}


def _system(job, x):
    ctx = field.cached_field(job["p"])
    return ctx, qm.QMSystem(ctx, x["dims"])


# == spectral: harmonic, counting, charsums =====================================

def gen_audit(job, rng):
    p = job["p"]
    g = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    return {"fs": [_bounded(rng, p) for _ in range(4)],
            "g": g / np.sqrt(np.mean(np.abs(g) ** 2))}


def run_audit(job, x):
    ctx = field.cached_field(job["p"])
    f1, f2, f3, f4 = (harmonic.Signal(ctx, v) for v in x["fs"])
    g = harmonic.Signal(ctx, x["g"])
    return {
        "T": counting.T(f1, f2, f3, f4),
        "T_one": counting.T(f1, f2, f3, harmonic.ones(ctx)),
        "spectral": counting.T_spectral_sums(f1, f2, f3),
        "reports": [counting.check_gvn_bounds(f1, f2, f3, f4, w) for w in GVN_KINDS],
        "chain": [harmonic.norm_u2_plus(f1).value, harmonic.norm_u3_plus(f1).value,
                  harmonic.norm_qm(f1).value, f1.lp_norm(1)],
        "dsup": counting.differencing_sup(g),
        "u3_g": harmonic.norm_u3_plus(g).value,
    }


def check_audit(job, x, res):
    close(res["T"], oracles.quadruple_average(*x["fs"]), "T vs row-sum oracle")
    close(res["T_one"], res["spectral"], "T(f1,f2,f3,1) vs T_spectral_sums")
    for rep in res["reports"]:
        expect(rep.ok(), f"{rep.name}: lhs {rep.lhs} > rhs {rep.rhs}")
    chain = res["chain"]
    for lo, hi in zip(chain, chain[1:]):
        expect(lo <= hi + 1e-12, f"norm chain u2+ <= u3+ <= QM <= L1 broken: {chain}")
    expect(res["dsup"] <= res["u3_g"] ** 2 + TOL,
           f"differencing_sup {res['dsup']} > ||g||_u3+^2 {res['u3_g'] ** 2}")


def gen_census(job, rng):
    return {"coloring": rng.integers(0, job["r"], job["p"])}


def run_census(job, x):
    ctx = field.cached_field(job["p"])
    col = x["coloring"]
    cls0 = [int(v) for v in np.nonzero(col == 0)[0]]
    return {"census": counting.census_quadruples(ctx, counting.Coloring(job["p"], job["r"], col)),
            "triples": {k: counting.census_triples(ctx, cls0, k) for k in TRIPLE_KINDS}}


def _count_by_T(p: int, slots) -> int:
    """p^2 T(slots) on 0/1 signals, which must be an integer count."""
    value = p * p * counting.T(*slots).real
    expect(abs(value - round(value)) < 1e-6, f"p^2 T = {value} is not an integer")
    return int(round(value))


def check_census(job, x, res):
    p, col = job["p"], x["coloring"]
    ctx = field.cached_field(p)
    one = harmonic.ones(ctx)
    census = res["census"]
    expect(census.total == sum(census.per_color), "census total != sum of colours")
    for i in range(job["r"]):
        ind = harmonic.indicator(ctx, np.nonzero(col == i)[0])
        expect(census.per_color[i] == _count_by_T(p, (ind,) * 4),
               f"colour {i}: census {census.per_color[i]} != p^2 T")
    a = harmonic.indicator(ctx, np.nonzero(col == 0)[0])
    slots = {"sum": (a, a, a, one), "product": (a, a, one, a), "shkredov": (a, one, a, a)}
    for kind, args in slots.items():
        expect(res["triples"][kind] == _count_by_T(p, args),
               f"census_triples {kind}: {res['triples'][kind]} != p^2 T")


def run_u3box(job, x):
    ctx = field.cached_field(job["p"])
    return charsums.u3_box_sum(ctx, field.MultChar(job["k1"]), field.MultChar(job["k2"]),
                               job["h"])


def check_u3box(job, x, res):
    p, h = job["p"], job["h"]
    F = oracles.mult_char(p, job["k1"]) * np.roll(oracles.mult_char(p, job["k2"]), -h)
    close(res, oracles.u3_norm8(F), "u3_box_sum vs Gowers identity")


# == structure: qm, regularity, cli =================================================

def gen_qm(job, rng):
    return {"dims": _dims(rng, job["p"], job["d"], full_orbit=job["kind"] == "equidist"),
            "terms": _terms(rng, job["d"])}


def run_countlemma(job, x):
    ctx, psi = _system(job, x)
    eps = Fraction(job["eps"])
    S = qm.bohr_set(psi, eps)
    return {"S": S, "report": qm.counting_lemma_check(psi, qm.TrigPoly(job["d"], x["terms"]),
                                                      S, eps)}


def check_countlemma(job, x, res):
    p = job["p"]
    expect(res["S"] == oracles.bohr_set(p, x["dims"], Fraction(job["eps"])),
           "Bohr set differs from the integer oracle")
    rep = res["report"]
    expect(rep.ok(), f"counting lemma margin {rep.lhs} over budget {rep.rhs}")
    fpsi = oracles.compose(p, x["dims"], x["terms"])
    ind = np.zeros(p)
    ind[res["S"]] = 1.0
    close(rep.details["T"], oracles.quadruple_average(fpsi, ind, fpsi, fpsi),
          "T(F o Psi, 1_S, F o Psi, F o Psi) vs oracle")
    close(rep.lhs, abs(rep.details["T"] - rep.details["mu_S"] * rep.details["I"]),
          "margin vs |T - mu(S) I|")


def run_bohr(job, x):
    ctx, psi = _system(job, x)
    eps = Fraction(job["eps"])
    return {"B": qm.bohr_set(psi, eps), "box": qm.box_fraction(psi, eps),
            "density": qm.check_bohr_density(psi, eps)}


def check_bohr(job, x, res):
    p, d, eps = job["p"], job["d"], Fraction(job["eps"])
    expect(res["B"] == oracles.bohr_set(p, x["dims"], eps),
           "Bohr set differs from the integer oracle")
    frac, floor = res["box"]
    expect(frac == oracles.box_fraction(p, x["dims"], eps), "box fraction differs from oracle")
    expect(floor == eps ** (3 * d) and frac >= floor, f"box fraction {frac} < eps^3d")
    mu, bound = res["density"]
    expect(mu == Fraction(len(res["B"]), p), "Bohr density != |B|/p")
    expect(bound == Fraction(1, 8) * (eps / 4) ** (3 * d), "density floor mismatch")


def run_equidist(job, x):
    ctx, psi = _system(job, x)
    return qm.baby_count(psi, qm.TrigPoly(job["d"], x["terms"]))


def check_equidist(job, x, res):
    lhs, rhs, margin = res
    p = job["p"]
    close(lhs, np.mean(oracles.compose(p, x["dims"], x["terms"])), "E_x F(Psi(x)) vs oracle")
    close(rhs, oracles.lattice_sum(p, x["dims"], x["terms"]), "lattice sum vs oracle")
    close(margin, abs(lhs - rhs), "margin != |lhs - rhs|")


def gen_dual(job, rng):
    return {"dims": [(int(rng.integers(1, job["p"])), job["k"])], "terms": _terms(rng, 1)}


def run_dual(job, x):
    ctx, psi = _system(job, x)
    F = qm.TrigPoly(1, x["terms"])
    return {"I": qm.counting_integral_I(psi, F, cross_check=False),
            "direct": qm.counting_integral_direct(psi, F)}


def check_dual(job, x, res):
    close(res["I"], res["direct"], "counting_integral_I vs its H^2 oracle")


def gen_kvn(job, rng):
    p = job["p"]
    if job["fixture"]:
        t = np.arange(p, dtype=np.int64)
        return {"fs": [oracles.mult_char(p, 1), np.exp(2j * np.pi * (t * t % p) / p)]}
    return {"fs": [_bounded(rng, p) for _ in range(2)]}


def run_kvn(job, x):
    ctx = field.cached_field(job["p"])
    fs = [harmonic.Signal(ctx, v) for v in x["fs"]]
    return regularity.kvn_energy_increment(fs, qm.QMSystem(ctx, []), job["delta"], job["R"])


def check_kvn(job, x, res):
    p, delta = job["p"], job["delta"]
    budget = math.ceil(4 * len(x["fs"]) / delta**2)
    expect(res.iterations <= budget, f"{res.iterations} iterations > budget {budget}")
    expect(res.psi.d == 2 * res.iterations, "each iteration must add two dimensions")
    trace = res.energy_trace
    expect(len(trace) == res.iterations + 1, "energy trace length")
    expect(all(b >= a - TOL for a, b in zip(trace, trace[1:])), f"energy decreased: {trace}")
    keys = oracles.atom_keys(p, res.psi.dims, job["R"])
    expect(list(res.atoms.keys) == keys, "atoms differ from the interval oracle")
    energy = sum(float(np.mean(np.abs(oracles.project(keys, f)) ** 2)) for f in x["fs"])
    close(trace[-1], energy, "final energy vs oracle projections")


def gen_decompose(job, rng):
    p = job["p"]
    r, s = (int(v) for v in rng.integers(0, p, 2))
    noise = rng.standard_normal(p) + 1j * rng.standard_normal(p)
    noise /= np.sqrt(np.mean(np.abs(noise) ** 2))
    f = 0.85 * np.exp(2j * np.pi * rng.uniform()) * oracles.quad_phase(p, r, s) + 0.15 * noise
    return {"f": f / np.sqrt(np.mean(np.abs(f) ** 2)), "phase": (r, s)}


def run_decompose(job, x):
    ctx = field.cached_field(job["p"])
    return regularity.quad_decompose(harmonic.Signal(ctx, x["f"]), job["eps"])


def check_decompose(job, x, res):
    p, eps, f = job["p"], job["eps"], x["f"]
    expect(x["phase"] in res.lambdas, f"dominant phase {x['phase']} not retained")
    structured = np.zeros(p, dtype=np.complex128)
    for (r, s), lam in res.lambdas.items():
        phi = oracles.quad_phase(p, r, s)
        close(lam, oracles.inner(f, phi), f"lambda at {(r, s)} vs <f, phi>")
        expect(abs(lam) >= eps / 2 - TOL, f"kept |lambda| {abs(lam)} < eps/2")
        structured += lam * phi
    close(float(np.max(np.abs(structured + res.residual.values - f))), 0.0,
          "f != sum lambda phi + residual")
    expect(res.residual_u3 <= eps + TOL, f"residual u3+ {res.residual_u3} > eps")


def gen_atoms(job, rng):
    p = job["p"]
    return {"dims": _dims(rng, p, job["d"]),
            "f": rng.standard_normal(p) + 1j * rng.standard_normal(p)}


ATOM_SCALES = (2, 8, 32)


def run_atoms(job, x):
    ctx, psi = _system(job, x)
    atoms = [regularity.build_atoms(psi, R) for R in ATOM_SCALES]
    once = regularity.project(atoms[1], harmonic.Signal(ctx, x["f"]))
    return {"atoms": atoms, "once": once.values,
            "twice": regularity.project(atoms[1], once).values,
            "refines": [regularity.refines(atoms[1], atoms[0]),
                        regularity.refines(atoms[2], atoms[1])]}


def check_atoms(job, x, res):
    p = job["p"]
    for R, atoms in zip(ATOM_SCALES, res["atoms"]):
        expect(list(atoms.keys) == oracles.atom_keys(p, x["dims"], R),
               f"atoms at R={R} differ from the interval oracle")
        expect(sorted(int(v) for xs in atoms.groups.values() for v in xs) == list(range(p)),
               f"atoms at R={R} do not partition F_p")
    keys = oracles.atom_keys(p, x["dims"], ATOM_SCALES[1])
    close(float(np.max(np.abs(res["once"] - oracles.project(keys, x["f"])))), 0.0,
          "projection vs oracle")
    close(float(np.max(np.abs(res["twice"] - res["once"]))), 0.0, "projection not idempotent")
    expect(all(res["refines"]), f"finer atoms must refine coarser ones: {res['refines']}")


def run_cli(job, x):
    argv = [job["command"], "--p", str(job["p"]), "--d", str(job["d"]),
            "--seed", str(job["seed"]), "--out", x["out"]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    report = None
    if code == 0:
        with open(x["out"]) as fh:
            report = json.load(fh)
    return {"code": code, "report": report, "stdout": buf.getvalue()}


def check_cli(job, x, res):
    expect(res["code"] == 0, f"exit code {res['code']}")
    rep = res["report"]
    expect(rep["schema"] == 1, "report schema")
    expect(res["stdout"].strip(), "nothing printed")
    p = job["p"]
    if job["command"] == "bohr":
        dims = [(d["a"], d["k"]) for d in rep["dims"]]
        size = len(oracles.bohr_set(p, dims, Fraction(rep["eps"]).limit_denominator()))
        expect(rep["bohr_size"] == size, f"bohr_size {rep['bohr_size']} != oracle {size}")
        expect(Fraction(*rep["bohr_density"]) == Fraction(size, p), "bohr_density")
        expect(Fraction(*rep["box_fraction"]) >= Fraction(*rep["box_floor"]),
               "box fraction below eps^3d")
    elif job["command"] == "equidist":
        close(rep["margin"], abs(complex(*rep["lhs"]) - complex(*rep["rhs"])),
              "margin != |lhs - rhs|")
    else:
        expect(rep["name"] == "counting_lemma", "countlemma report name")
        expect(rep["slack"] >= -TOL and abs(rep["slack"] - (rep["rhs"] - rep["lhs"])) <= TOL,
               f"counting lemma slack {rep['slack']}")


# == combinatorial: search, ramsey ==================================================

def run_backtrack(job, x):
    return search.interval_backtrack(job["N"], 2, distinct=True)


def _certificate_ok(res, r: int, distinct: bool) -> None:
    cert = res.coloring
    expect(cert is not None and len(cert) == res.N, "missing certificate")
    expect(set(cert) <= set(range(r)), "colour out of range")
    expect(search.check_interval_coloring(cert, distinct) == [],
           "check_interval_coloring rejects the certificate")
    expect(oracles.interval_violations(cert, distinct) == 0,
           "certificate has a monochromatic pattern")


def check_backtrack(job, x, res):
    expect(res.status == "sat", f"N={job['N']} returned {res.status}; 251 is known sat")
    _certificate_ok(res, 2, True)


SWEEP_TO, SWEEP_LAST_SAT = 44, 38


def run_sweep(job, x):
    return search.interval_sweep(2, SWEEP_TO)


def check_sweep(job, x, res):
    expect(res["last_sat"] == SWEEP_LAST_SAT, f"last_sat {res['last_sat']} != 38")
    for N, one in enumerate(res["results"], 1):
        expect(one.status == ("sat" if N <= SWEEP_LAST_SAT else "unsat"),
               f"N={N}: {one.status}")
        if one.status == "sat":
            _certificate_ok(one, 2, False)


def run_frontier(job, x):
    return search.interval_backtrack(job["N"], 3, distinct=True, budget=job["budget"])


def check_frontier(job, x, res):
    expect(res.status in ("sat", "budget"), f"unexpected status {res.status}")
    if res.status == "sat":
        _certificate_ok(res, 3, True)
    else:
        expect(res.nodes == job["budget"] + 1 and res.coloring is None,
               "budget stop must report budget + 1 nodes and no certificate")


def run_scan(job, x):
    return search.fp_coloring_scan(field.cached_field(job["p"]), 2)


def check_scan(job, x, res):
    p = job["p"]
    expect(res["scanned"] == 2**p, "exhaustive scan must cover 2^p colourings")
    best = res["min_coloring"]
    census = counting.census_quadruples(field.cached_field(p), counting.Coloring(p, 2, best))
    expect(census.total == res["min"], f"scan min {res['min']} != census {census.total}")
    expect(oracles.quadruple_count(best) == res["min"], "scan min vs oracle count")
    expect(1 <= res["min"] <= res["mean"], "min must lie in [1, mean]")


def gen_lambda(job, rng):
    group = ramsey.FiniteGroup(tuple(job["factors"]))
    elems = group.elements()
    T = [elems[i] for i in sorted(rng.choice(len(elems), job["size"], replace=False))]
    diffs = sorted({group.sub(a, b) for a in T for b in T})
    A = {(t, u) for t in T for u in diffs if rng.random() < job["density"]}
    return {"group": group, "T": T, "A": A}


def run_lambda(job, x):
    g, T, A = x["group"], x["T"], x["A"]
    return {"tables": ramsey.lambda_T(g, T, A, method="tables"),
            "direct": ramsey.lambda_T(g, T, A, method="direct")}


def check_lambda(job, x, res):
    n5 = len(x["T"]) ** 5
    expect(res["tables"] == res["direct"],
           f"lambda_T tables {res['tables']} != direct {res['direct']}")
    expect((res["tables"] * n5).denominator == 1 and 0 <= res["tables"] <= 1,
           "lambda_T must be a count over |T|^5")


def run_rich(job, x):
    col = ramsey.extremal_coloring(job["r"])
    return {"col": col, "oracle": ramsey.find_rich_color(col, mode="oracle"),
            "constructive": ramsey.find_rich_color(col, mode="constructive")}


def check_rich(job, x, res):
    r, col = job["r"], res["col"]
    n = 2**r
    expect(sum(len(c) for c in col.classes) == n * n and not col.uncolored(),
           "extremal classes must partition G x G")
    expect(res["oracle"] == (0, Fraction(1, 4**r)),
           f"oracle pick {res['oracle']} != (0, 4^-r)")
    expect(res["constructive"][1] >= ramsey.eps_r(col.r) ** 2, "constructive pick below eps_r^2")
    expect(res["constructive"] == res["oracle"], "only class 0 has a positive Lambda")


def gen_drc(job, rng):
    nx, ny = (int(v) for v in rng.integers(4, 21, 2))
    wx, wy = rng.integers(1, 6, nx), rng.integers(1, 6, ny)
    A = {(i, j) for i in range(nx) for j in range(ny) if rng.random() < 0.5} or {(0, 0)}
    return {"nu_x": {i: Fraction(int(w), int(wx.sum())) for i, w in enumerate(wx)},
            "nu_y": {j: Fraction(int(w), int(wy.sum())) for j, w in enumerate(wy)},
            "A": A, "eta": Fraction(int(rng.integers(1, 9)), 16)}


def run_drc(job, x):
    return ramsey.dependent_random_choice(x["nu_x"], x["nu_y"], x["A"], x["eta"])


def check_drc(job, x, res):
    alpha, x_prime, measure, bad, bad_inside = oracles.drc_conclusions(
        x["nu_x"], x["nu_y"], x["A"], x["eta"], res.witness_y)
    expect(res.alpha == alpha, "alpha")
    expect(res.x_prime == x_prime, "X' must be the neighbourhood of the witness")
    expect(res.x_prime_measure == measure and 2 * measure >= alpha, "nu_x(X') >= alpha/2")
    expect(set(res.bad_pairs) == bad, "bad pairs differ from the oracle")
    expect(res.bad_measure_inside == bad_inside
           and bad_inside <= x["eta"] * measure * measure, "bad mass inside X'^2")


# == prime_sweep: field and counting on cold contexts ================================

def gen_prime(job, rng):
    p = job["p"]
    return {"gs": [_bounded(rng, p) for _ in range(3)], "coloring": rng.integers(0, 2, p)}


def run_prime(job, x):
    p = job["p"]
    ctx = field.cached_field(p)
    f1, f2, f3, f4, exact = counting.phased_character_example(ctx)
    g1, g2, g3 = (harmonic.Signal(ctx, v) for v in x["gs"])
    col = x["coloring"]
    return {"phased": counting.T(f1, f2, f3, f4), "exact": exact,
            "T_one": counting.T(g1, g2, g3, harmonic.ones(ctx)),
            "spectral": counting.T_spectral_sums(g1, g2, g3),
            "census": counting.census_quadruples(ctx, counting.Coloring(p, 2, col)),
            "triples": counting.census_triples(ctx, [int(v) for v in np.nonzero(col == 0)[0]])}


def check_prime(job, x, res):
    p, col = job["p"], x["coloring"]
    expect(res["exact"] == ((p - 1) ** 2 + 1) / p**2, "phased example: wrong exact value")
    close(res["phased"], res["exact"], "T on the phased-character family")
    close(res["T_one"], res["spectral"], "T(g1,g2,g3,1) vs T_spectral_sums")
    ctx = field.cached_field(p)
    inds = [harmonic.indicator(ctx, np.nonzero(col == i)[0]) for i in range(2)]
    census = res["census"]
    expect(census.total == sum(_count_by_T(p, (ind,) * 4) for ind in inds),
           f"census {census.total} != p^2 sum_i T(1_Ci, ...)")
    a = inds[0]
    expect(res["triples"] == _count_by_T(p, (a, harmonic.ones(ctx), a, a)),
           "census_triples (shkredov) != p^2 T(1_A, 1, 1_A, 1_A)")


# == registry ========================================================================

@dataclass(frozen=True)
class Kind:
    run: Callable
    check: Callable
    gen: Callable | None = None


KINDS = {
    "audit": Kind(run_audit, check_audit, gen_audit),
    "census": Kind(run_census, check_census, gen_census),
    "u3box": Kind(run_u3box, check_u3box),
    "countlemma": Kind(run_countlemma, check_countlemma, gen_qm),
    "bohr": Kind(run_bohr, check_bohr, gen_qm),
    "equidist": Kind(run_equidist, check_equidist, gen_qm),
    "dual": Kind(run_dual, check_dual, gen_dual),
    "kvn": Kind(run_kvn, check_kvn, gen_kvn),
    "decompose": Kind(run_decompose, check_decompose, gen_decompose),
    "atoms": Kind(run_atoms, check_atoms, gen_atoms),
    "cli": Kind(run_cli, check_cli),
    "backtrack": Kind(run_backtrack, check_backtrack),
    "sweep": Kind(run_sweep, check_sweep),
    "frontier": Kind(run_frontier, check_frontier),
    "scan": Kind(run_scan, check_scan),
    "lambda": Kind(run_lambda, check_lambda, gen_lambda),
    "rich": Kind(run_rich, check_rich),
    "drc": Kind(run_drc, check_drc, gen_drc),
    "prime": Kind(run_prime, check_prime, gen_prime),
}


def materialize(job: dict, scratch: str) -> dict:
    """The job's numpy inputs, derived from its seed; never timed."""
    gen = KINDS[job["kind"]].gen
    inputs = gen(job, np.random.default_rng(job["seed"])) if gen else {}
    if job["kind"] == "cli":
        inputs["out"] = os.path.join(scratch, f"cli-{os.getpid()}.json")
    return inputs


def judge(job: dict, inputs: dict, result) -> str | None:
    """None when the answer passes its check, else why it failed."""
    try:
        KINDS[job["kind"]].check(job, inputs, result)
    except Exception as exc:  # a failed job is counted, never fatal
        return f"{type(exc).__name__}: {exc}"
    return None


def attempt(job: dict, inputs: dict):
    """Run one job, unchecked: (result, None), or (None, why it raised)."""
    try:
        return KINDS[job["kind"]].run(job, inputs), None
    except Exception as exc:  # a failed job is counted, never fatal
        return None, "".join(traceback.format_exception_only(type(exc), exc)).strip()


def counts(job: dict, inputs: dict, result) -> dict:
    """Work counters read off a job's result, outside any span."""
    kind, out = job["kind"], {}
    runs = {"backtrack": [result], "frontier": [result]}.get(kind, [])
    if kind == "sweep":
        runs = result["results"]
    if runs:
        out["search.nodes"] = sum(r.nodes for r in runs)
        out["search.solved_N"] = sum(r.N for r in runs if r.status == "sat")
    if kind == "scan":
        out["search.colorings"] = result["scanned"]
    if kind == "kvn":
        out["regularity.kvn.iterations"] = result.iterations
    if kind in ("equidist", "countlemma", "dual"):
        # |H| points averaged over by baby_count, |H|^2 by the H^2 oracle,
        # each only when the package's own budget lets it enumerate them
        size = qm.enumerate_H(qm.QMSystem(field.cached_field(job["p"]), inputs["dims"])).size
        if kind == "equidist":
            out["qm.H_points"] = size if size <= qm.H_ENUM_BUDGET else 0
        else:
            out["qm.H_points"] = size**2 if size**2 <= qm.H_SQUARED_BUDGET else 0
    return out


# == workloads ========================================================================

# audit primes 23..107: their costs rise in steps of 1.1-1.5x, finer than
# the 1.5-1.7x swing of a shared host's speed
SPECTRAL_AUDIT_PRIMES = (23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 97, 101, 107)


def _spectral_cycle(k, rng):
    # by cost: census x4 (under a millisecond) < audits at 23..61 < u3box31 <
    # audits at 97, 101, 107 < u3box61. The p50 (rank 10 of 19) falls among
    # the audits at 37..53 and the p90 (rank 17.1) among those at 97..107.
    # A host that switches between a fast and a slow speed makes each job
    # type's times bimodal; a quantile inside the group of one job type
    # snaps from one mode to the other, while one among evenly spaced job
    # costs moves smoothly with the share of time spent in each.
    order = [("audit", p) for p in SPECTRAL_AUDIT_PRIMES[::2]]
    order += [("census", 31), ("u3box", 61), ("census", 61)]
    order += [("audit", p) for p in SPECTRAL_AUDIT_PRIMES[1::2]]
    order += [("census", 101), ("u3box", 31), ("census", 61)]
    jobs = []
    for kind, p in order:
        job = {"kind": kind, "p": p, "seed": _seed(rng)}
        if kind == "census":
            job["r"] = int(rng.integers(2, 5))
        elif kind == "u3box":
            job.update(k1=int(rng.integers(1, p - 1)), k2=int(rng.integers(0, p - 1)),
                       h=int(rng.integers(1, p)))
        jobs.append(job)
    return jobs


# dual-integral systems with |H|^2 fixed per prime: k fixes |Gx| = (p-1)/gcd(k, p-1)
DUAL_SYSTEMS = ((7, (1, 5)), (11, (2, 4, 6, 8)), (13, (3, 9)))


def _structure_cycle(k, rng):
    jobs = []

    def add(kind, **params):
        jobs.append({"kind": kind, **params, "seed": _seed(rng)})

    # sizes (p, d) alternate with the cycle index, not the seed, so every
    # run has the same mix of job costs; the seed draws the systems
    for i, p in enumerate((31, 61, 101)):
        d = 1 + (k + i) % 2
        add("countlemma", p=p, d=d, eps=str(Fraction(3, 10) if k % 2 else Fraction(1, 2)))
        add("bohr", p=p, d=3 - d, eps=str(Fraction(1, 2) if k % 2 else Fraction(3, 10)))
        add("equidist", p=p, d=d)
        add("atoms", p=p, d=3 - d)
    add("equidist", p=101, d=3 - d)
    for p, ks in DUAL_SYSTEMS:
        add("dual", p=p, k=int(rng.choice(ks)))
    add("kvn", p=61, fixture=True, delta=0.3, R=32)
    add("kvn", p=31, fixture=False, delta=0.3, R=32)
    for p in (61, 101):
        add("decompose", p=p, eps=0.5)
    for j, command in enumerate(("bohr", "equidist", "countlemma")):
        # countlemma at p=31 would cross-check I(F) over |H|^2 ~ 10^6 points
        # whenever the CLI draws k = 0; p=61 keeps every cli job small
        p = 61 if command == "countlemma" else (31, 61)[(k + j) % 2]
        add("cli", command=command, p=p, d=1 + (k + j) % 2)
    return jobs


LAMBDA_GROUPS = (((31,), 31), ((5, 6), 30), ((29,), 24))


def _combinatorial_cycle(k, rng):
    jobs = []

    def add(kind, **params):
        jobs.append({"kind": kind, **params, "seed": _seed(rng)})

    for i in range(3):
        add("backtrack", N=int(rng.integers(150, 252)))
        factors, size = LAMBDA_GROUPS[i]
        add("lambda", factors=list(factors), size=size,
            density=round(float(rng.uniform(0.2, 0.6)), 3))
        add("rich", r=2 + i)
        add("drc")
    # the p50 (rank 10 of 20) falls inside this group: one job type, but a
    # pure-Python one, whose times swing far less with host speed than the
    # small numpy calls of spectral's audits (see _spectral_cycle)
    for _ in range(3):
        add("sweep")
    add("frontier", N=int(rng.integers(100, 301)), budget=50_000)
    add("frontier", N=int(rng.integers(100, 301)), budget=50_000)
    add("scan", p=11)
    add("scan", p=13)
    add("drc")
    order = rng.permutation(len(jobs))
    return [jobs[i] for i in order]


def _primes(lo: int, hi: int) -> list:
    return [n for n in range(lo, hi + 1) if all(n % q for q in range(2, math.isqrt(n) + 1))]


# 72 primes spread evenly over [300, 1100]: 8 hot ones recur three times in
# every cycle; the 64 cold ones alternate in halves between cycles, so over
# two cycles 72 > 64 (the cached_field LRU size) distinct primes are asked for.
_ALL = _primes(300, 1100)
PRIME_POOL = [_ALL[round(i * (len(_ALL) - 1) / 71)] for i in range(72)]
HOT_PRIMES = PRIME_POOL[4::9]
COLD_PRIMES = [q for q in PRIME_POOL if q not in HOT_PRIMES]


def _prime_sweep_cycle(k, rng):
    primes = HOT_PRIMES * 3 + COLD_PRIMES[k % 2::2]
    return [{"kind": "prime", "p": int(p), "seed": _seed(rng)}
            for p in rng.permutation(primes)]


@dataclass(frozen=True)
class Workload:
    cycle: Callable            # (cycle index, rng) -> list of job specs
    setup_primes: tuple        # contexts and grids built before the first job


# why each workload exists is in BENCHMARK.json and perfbench/README.md
WORKLOADS = {
    "spectral": Workload(_spectral_cycle, SPECTRAL_AUDIT_PRIMES),
    "structure": Workload(_structure_cycle, (7, 11, 13, 31, 61, 101)),
    "combinatorial": Workload(_combinatorial_cycle, (11, 13)),
    "prime_sweep": Workload(_prime_sweep_cycle, ()),
}
WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}


def job_list(workload: str, seed: int, cycles: int = N_CYCLES) -> list:
    """The workload's job list: a pure function of (workload, seed)."""
    rng = np.random.default_rng([seed, WORKLOAD_IDS[workload]])
    return [WORKLOADS[workload].cycle(k, rng) for k in range(cycles)]


def job_list_sha256(cycles: list) -> str:
    blob = json.dumps(cycles, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def setup(workload: str) -> None:
    """Build the workload's fixed contexts and their lazy p x p grids."""
    for p in WORKLOADS[workload].setup_primes:
        ctx = field.cached_field(p)
        ctx.grid("add")
        ctx.grid("mul")
