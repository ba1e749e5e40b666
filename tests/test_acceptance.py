"""Acceptance suite: every criterion at its stated (exact) tolerance, one
printed pass/fail line per criterion.

Run with:  pytest tests/test_acceptance.py -v -s

Two legs are implemented faithfully to their literal statements and are
expected to fail (strict xfail), because the literal statements are false;
the analysis lives in each test and the corrected versions pass alongside:

* criterion 5, m = 8 meet counts: a plane whose coordinate ratio is real or
  pure imaginary meets an antipodal pair {j, j + m/2} of zeta-planes, so
  "at most one" fails for even m (at most one antipodal phase class holds).
* criterion 5, phase constancy over span coefficients: the direction of
  y(u)/x(u) flips to its antipode when the span coefficients a, b have
  opposite signs; only the squared phase is constant across a plane.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from rotref.cyclo import CycNum
from rotref.groups import (
    catalog_group,
    classify,
    fixed_space,
    realified_gmpn_group,
)
from rotref.arrangements import (
    PhaseValue,
    isotropy_arrangement,
    phase_ratio,
    reflection_arrangement,
    sample_rational_plane,
)
from rotref.cli import main
from rotref.verify import (
    catalog_arrangement,
    compute_threshold,
    verify_dichotomy,
    verify_lemma_AG,
    verify_lemma_plane,
    verify_rotation_group,
    verify_theorem,
)

# frozen regression values, first computed by this artifact
EXPECTED_M0_PLANES = 721
EXPECTED_M0_TOTAL = 2101
EXPECTED_H4_PLANES = 722
EXPECTED_H4_TOTAL = 2103

CATALOG_REGRESSION = {
    "A4": (120, 10),
    "B4": (384, 16),
    "D4": (192, 12),
    "F4": (1152, 24),
    "H4": (14400, 60),
    "A3": (24, 6),
    "B3": (48, 9),
    "H3": (120, 15),
}

ORACLE_LABELS = (
    ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "F4", "H3", "H4"]
    + [f"I2({k})" for k in range(2, 13)]
    + ["A3xA1", "B3xA1", "H3xA1"]
)


def _line(tag, status, detail=""):
    print(f"ACCEPTANCE {tag}: {status}" + (f" -- {detail}" if detail else ""))


# -- criterion 1 --------------------------------------------------------------

def test_criterion_1_lemma_ag_reproduction():
    failures = []
    for m in range(2, 13):
        rep = verify_lemma_AG(m)
        if not rep.passed:
            failures.append(m)
    status = "PASS" if not failures else f"FAIL at m={failures}"
    _line("1 lemma-AG m=2..12", "PASS" if not failures else "FAIL", status)
    assert not failures


# -- criterion 2 --------------------------------------------------------------

def test_criterion_2_rotation_group():
    failures = []
    for m in range(2, 13):
        rep = verify_rotation_group(m)
        if not (rep.passed and rep.certificate["no_reflections"]):
            failures.append(m)
    _line("2 rotation m=2..12", "PASS" if not failures else "FAIL")
    assert not failures


# -- criterion 3 --------------------------------------------------------------

def test_criterion_3_oracle_equivalence():
    mismatches = []
    for label in ORACLE_LABELS:
        grp = catalog_group(label)
        grp.ensure_elements()
        refl = catalog_arrangement(label)
        iso = isotropy_arrangement(grp)
        if {u.key for u in refl.subspaces} != {u.key for u in iso.subspaces}:
            mismatches.append(label)
    _line(
        "3 oracle equivalence",
        "PASS" if not mismatches else "FAIL",
        f"{len(ORACLE_LABELS)} catalog groups, H4 included",
    )
    assert not mismatches


# -- criterion 4 --------------------------------------------------------------

def test_criterion_4_catalog_regression():
    bad = []
    for label, (order, nrefl) in CATALOG_REGRESSION.items():
        g = catalog_group(label)
        g.ensure_elements()
        refl = sum(1 for e in g.elements if classify(e).tag == "reflection")
        if (g.order, refl) != (order, nrefl):
            bad.append((label, g.order, refl))
    for k in range(2, 13):
        g = catalog_group(f"I2({k})")
        g.ensure_elements()
        refl = sum(1 for e in g.elements if classify(e).tag == "reflection")
        if (g.order, refl) != (2 * k, k):
            bad.append((f"I2({k})", g.order, refl))
    for m in range(1, 9):
        if realified_gmpn_group(m).order != 2 * m * m:
            bad.append((f"G({m},1,2)", realified_gmpn_group(m).order))
    _line("4 catalog regression", "PASS" if not bad else f"FAIL {bad}")
    assert not bad


# -- criterion 5 --------------------------------------------------------------

def test_criterion_5_meet_count_m3():
    rep = verify_lemma_plane(3, 1000, 0)
    _line("5 meet-count m=3", rep.verdict.upper(), str(rep.certificate["histogram"]))
    assert rep.passed


def test_criterion_5_meet_count_m5():
    rep = verify_lemma_plane(5, 1000, 0)
    _line("5 meet-count m=5", rep.verdict.upper(), str(rep.certificate["histogram"]))
    assert rep.passed


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the at-most-one bound is false for even m: samples with a real or "
        "pure-imaginary coordinate ratio meet the antipodal pair {j, j+4}; "
        "the corrected one-phase-class bound holds (see decisions ledger)"
    ),
)
def test_criterion_5_meet_count_m8():
    rep = verify_lemma_plane(8, 1000, 0)
    detail = str(rep.certificate["histogram"])
    if not rep.passed:
        detail += (
            "; corrected antipodal-pair bound holds: "
            f"{rep.certificate['corrected_bound']['holds']}"
        )
        _line("5 meet-count m=8 (literal)", "FAIL (expected; defect in source claim)", detail)
    else:  # pragma: no cover
        _line("5 meet-count m=8 (literal)", "PASS", detail)
    assert rep.passed


def test_criterion_5_meet_count_m8_corrected_bound():
    rep = verify_lemma_plane(8, 1000, 0)
    ok = rep.certificate["corrected_bound"]["holds"]
    hist = rep.certificate["histogram"]
    _line("5 meet-count m=8 (corrected)", "PASS" if ok else "FAIL", str(hist))
    assert ok
    assert max(int(k) for k in hist) <= 2


def _phase_draws(m, planes, draws, seed):
    """Yield per-plane phase values at `draws` random span coefficients."""
    import math

    L = math.lcm(4, m)
    rng = random.Random(seed)
    for _ in range(planes):
        p = sample_rational_plane(rng, L)
        v, w = p.basis
        values = []
        for _ in range(draws):
            a = Fraction(rng.randint(1, 10), rng.randint(1, 10)) * rng.choice([1, -1])
            b = Fraction(rng.randint(1, 10), rng.randint(1, 10)) * rng.choice([1, -1])
            u = [
                CycNum.rational(L, a) * x + CycNum.rational(L, b) * y
                for x, y in zip(v, w)
            ]
            values.append(phase_ratio(u, m))
        yield values


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the direction of y(u)/x(u) on a plane is constant only up to sign: "
        "span coefficients of opposite sign give the antipodal phase, so "
        "exact phase equality across 100 draws fails (see decisions ledger)"
    ),
)
def test_criterion_5_phase_constancy_literal():
    for m in (3, 5, 8):
        for values in _phase_draws(m, planes=30, draws=100, seed=0):
            base = values[0]
            for pv in values[1:]:
                if not pv.same_phase(base):
                    _line(
                        "5 phase-constancy (literal)",
                        "FAIL (expected; defect in source claim)",
                        f"antipodal flip at m={m}; squared phase is constant",
                    )
                    assert False
    _line("5 phase-constancy (literal)", "PASS")  # pragma: no cover


def test_criterion_5_phase_constancy_squared():
    # the corrected exact invariant: the squared phase is constant on the
    # whole plane, equivalently phases agree up to antipody
    for m in (3, 5, 8):
        for values in _phase_draws(m, planes=100, draws=20, seed=0):
            base = PhaseValue(values[0].ratio * values[0].ratio)
            for pv in values[1:]:
                sq = PhaseValue(pv.ratio * pv.ratio)
                assert sq.same_phase(base)
    _line("5 phase-constancy (squared)", "PASS", "m in {3,5,8}, 100 planes x 20 draws")


def test_criterion_5_phase_constancy_positive_coefficients():
    # on each open quadrant of a plane (fixed signs of a, b) the phase is
    # exactly constant; positive draws certify the one-sided claim
    import math

    for m in (3, 5, 8):
        L = math.lcm(4, m)
        rng = random.Random(1)
        for _ in range(100):
            p = sample_rational_plane(rng, L)
            v, w = p.basis
            base = None
            for _ in range(20):
                a = Fraction(rng.randint(1, 10), rng.randint(1, 10))
                b = Fraction(rng.randint(1, 10), rng.randint(1, 10))
                u = [
                    CycNum.rational(L, a) * x + CycNum.rational(L, b) * y
                    for x, y in zip(v, w)
                ]
                pv = phase_ratio(u, m)
                if base is None:
                    base = pv
                else:
                    assert pv.same_phase(base)
    _line("5 phase-constancy (fixed signs)", "PASS")


# -- criterion 6 --------------------------------------------------------------

def test_criterion_6_structural_dichotomy():
    failures = []
    for p in range(2, 9):
        for q in range(2, 9):
            rep = verify_dichotomy(p, q)
            if not rep.passed:
                failures.append((p, q))
    _line("6 dichotomy 2<=p,q<=8", "PASS" if not failures else f"FAIL {failures}",
          "49 groups")
    assert not failures


# -- criterion 7 --------------------------------------------------------------

def test_criterion_7_threshold_regression():
    res = compute_threshold()
    ok = (
        res.m0_planes == EXPECTED_M0_PLANES
        and res.m0_total == EXPECTED_M0_TOTAL
        and res.per_group["H4"]["planes"] == EXPECTED_H4_PLANES
        and res.per_group["H4"]["total"] == EXPECTED_H4_TOTAL
        and res.m0_planes <= res.m0_total
    )
    dominant = max(res.per_group, key=lambda k: res.per_group[k]["planes"])
    _line(
        "7 threshold regression",
        "PASS" if ok and dominant == "H4" else "FAIL",
        f"m0_planes={res.m0_planes} m0_total={res.m0_total} dominant={dominant}",
    )
    assert ok and dominant == "H4"


def test_criterion_7_theorem_at_m0(tmp_path):
    m0 = compute_threshold().m0_planes
    path = tmp_path / "theorem_m0.json"
    code = main(["theorem", "--m", str(m0), "--json", str(path)])
    data = json.loads(path.read_text())
    cert = data["reports"][0]["certificate"]
    ok = (
        code == 0
        and cert["part_i_direct"]["pass"]
        and cert["part_ii_counting"]["applicable"]
        and cert["part_iii_structural"]["pass"]
    )
    _line("7 theorem m=m0", "PASS" if ok else "FAIL", f"m0={m0}, exit={code}")
    assert ok


def test_criterion_7_theorem_m3(tmp_path):
    path = tmp_path / "theorem_m3.json"
    code = main(["theorem", "--m", "3", "--json", str(path)])
    data = json.loads(path.read_text())
    cert = data["reports"][0]["certificate"]
    ok = (
        code == 0
        and cert["part_i_direct"]["pass"]
        and not cert["part_ii_counting"]["applicable"]
        and cert["part_ii_counting"]["note"] == "not applicable, m < m0_planes"
        and cert["part_iii_structural"]["pass"]
    )
    _line("7 theorem m=3", "PASS" if ok else "FAIL", f"exit={code}")
    assert ok


# -- criterion 8 --------------------------------------------------------------

def test_criterion_8_in_process_determinism(fresh_caches):
    def reports():
        return [
            verify_lemma_AG(5),
            verify_rotation_group(5),
            verify_lemma_plane(5, 200, 0),
            verify_dichotomy(3, 5),
            verify_theorem(3),
        ]

    blobs_a = [json.dumps(r.to_json_dict(), sort_keys=True) for r in reports()]
    # the second pass rebuilds every cached group and arrangement
    fresh_caches()
    blobs_b = [json.dumps(r.to_json_dict(), sort_keys=True) for r in reports()]
    ok = blobs_a == blobs_b
    _line("8 determinism (in-process, rebuilt arrangements)", "PASS" if ok else "FAIL")
    assert ok


def test_criterion_8_fresh_process_determinism(tmp_path):
    args = ["lemma-plane", "--m", "5", "--samples", "100", "--seed", "1"]
    blobs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "rotref.cli", *args, "--json", str(path)],
            capture_output=True,
            text=True,
            check=True,
        )
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1]
    _line("8 determinism (fresh processes)", "PASS" if ok else "FAIL")
    assert ok
