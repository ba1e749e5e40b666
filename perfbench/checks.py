"""Expected outputs of the benchmark's rotref commands.

Every pin comes from the theory, not from a recorded run:

* the flats of a product reflection arrangement are the products of the
  factors' flats, and by Steinberg's theorem the isotropy arrangement of a
  reflection group is its lattice of flats (the whole space left out);
* the realified wreath group G(m,1,2) has order 2m^2 and 3m - 2 elements
  that fix a plane (its complex reflections), and every other nonidentity
  element fixes only the origin;
* the big-factor counts are the classical ones, with H4 at 722 planes and
  2103 members, which give m0 = 721 (planes) and 2101 (total).

`check(args, exit_code, text)` returns a list of problems; empty means the
output is right.
"""

from __future__ import annotations

import json

# flats of the irreducible factors by dimension, the whole space included
FACTOR_FLATS = {
    "A1": {1: 1, 0: 1},
    "A3": {3: 1, 2: 6, 1: 7, 0: 1},
    "B3": {3: 1, 2: 9, 1: 13, 0: 1},
    "H3": {3: 1, 2: 15, 1: 31, 0: 1},
}

# (planes, members) of the eleven big-factor degree-4 reflection arrangements
THRESHOLD_PER_GROUP = {
    "A3x1": (7, 14), "A3xA1": (13, 29), "A4": (25, 51),
    "B3x1": (13, 23), "B3xA1": (22, 47), "B4": (58, 115),
    "D4": (34, 71), "F4": (122, 267), "H3x1": (31, 47),
    "H3xA1": (46, 95), "H4": (722, 2103),
}
M0_PLANES, M0_TOTAL = 721, 2101
H4_DIMS = {0: 1, 1: 1320, 2: 722, 3: 60}


def factor_flats(label: str) -> dict:
    if label.startswith("I2("):
        return {2: 1, 1: int(label[3:-1]), 0: 1}
    return FACTOR_FLATS[label]


def product_dims(label: str) -> dict:
    """Member counts by dimension of the arrangement of a product label such
    as ``H3xA1`` or ``I2(5)xI2(8)``."""
    dims = {0: 1}
    for factor in label.split("x"):
        flats = factor_flats(factor)
        out: dict[int, int] = {}
        for d1, n1 in dims.items():
            for d2, n2 in flats.items():
                out[d1 + d2] = out.get(d1 + d2, 0) + n1 * n2
        dims = out
    del dims[max(dims)]  # the whole space is no member
    return dims


def parse_args(args) -> tuple[list, dict]:
    """Split a command's arguments into positionals and ``--name value``
    options."""
    positional, options = [], {}
    it = iter(args)
    for a in it:
        if a.startswith("--"):
            options[a[2:]] = next(it)
        else:
            positional.append(a)
    return positional, options


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _report(problems, payload, claim_id):
    reports = payload.get("reports", [])
    _expect(problems, "report count", len(reports), 1)
    if len(reports) != 1:
        return None
    rep = reports[0]
    _expect(problems, "claim_id", rep.get("claim_id"), claim_id)
    return rep


def _member_dims(payload) -> dict:
    dims: dict[int, int] = {}
    for s in payload["subspaces"]:
        d = len(s["basis"])
        dims[d] = dims.get(d, 0) + 1
    return dims


def _check_threshold(problems, code, payload, pos, opts):
    _expect(problems, "exit code", code, 0)
    rep = _report(problems, payload, "threshold")
    if rep is None:
        return
    _expect(problems, "verdict", rep["verdict"], "pass")
    cert = rep["certificate"]
    _expect(problems, "m0_planes", cert.get("m0_planes"), M0_PLANES)
    _expect(problems, "m0_total", cert.get("m0_total"), M0_TOTAL)
    per_group = {
        k: (v["planes"], v["total"]) for k, v in cert.get("per_group", {}).items()
    }
    _expect(problems, "per_group", per_group, THRESHOLD_PER_GROUP)


def _check_arrangement(problems, code, payload, pos, opts):
    _expect(problems, "exit code", code, 0)
    label = pos[2]
    want = H4_DIMS if label == "H4" else product_dims(label)
    _expect(problems, "group", payload.get("group"), label)
    _expect(problems, "method", payload.get("method"), opts.get("method"))
    _expect(problems, "member dims", _member_dims(payload), want)
    _expect(problems, "provenance count",
            len(payload["provenance"]), len(payload["subspaces"]))


def _check_lemma_ag(problems, code, payload, pos, opts):
    m = int(opts["m"])
    _expect(problems, "exit code", code, 0)
    rep = _report(problems, payload, "lemma-AG")
    if rep is None:
        return
    cert = rep["certificate"]
    _expect(problems, "verdict", rep["verdict"], "pass")
    _expect(problems, "member dims", cert["member_dim_counts"], {"0": 1, "2": m + 2})
    _expect(problems, "planes match", cert["planes_match_equations"], True)
    _expect(problems, "pairwise trivial", cert["pairwise_intersections_trivial"], True)


def _check_rotation(problems, code, payload, pos, opts):
    m = int(opts["m"])
    _expect(problems, "exit code", code, 0)
    rep = _report(problems, payload, "rotation")
    if rep is None:
        return
    cert = rep["certificate"]
    _expect(problems, "verdict", rep["verdict"], "pass")
    _expect(problems, "order", cert["order"], 2 * m * m)
    _expect(problems, "fix codims", cert["fix_codim_histogram"],
            {"2": 3 * m - 2, "4": 2 * m * m - 3 * m + 1})
    _expect(problems, "no reflections", cert["no_reflections"], True)


def _check_dichotomy(problems, code, payload, pos, opts):
    p, q = int(opts["p"]), int(opts["q"])
    _expect(problems, "exit code", code, 0)
    rep = _report(problems, payload, "dichotomy")
    if rep is None:
        return
    cert = rep["certificate"]
    _expect(problems, "verdict", rep["verdict"], "pass")
    _expect(problems, "plane count", cert["plane_count"],
            product_dims(f"I2({p})xI2({q})")[2])
    _expect(problems, "classification", cert["classification"],
            {"V1": 1, "V2": 1, "meets-both": p * q})


def _check_lemma_plane(problems, code, payload, pos, opts):
    """The literal at-most-one claim fails for even m when a sampled plane
    meets an antipodal pair, so exit 1 is right exactly when witnesses are
    listed and the corrected bound holds."""
    m, samples = int(opts["m"]), int(opts["samples"])
    rep = _report(problems, payload, "lemma-plane")
    if rep is None:
        return
    cert = rep["certificate"]
    hist = {int(k): v for k, v in cert["histogram"].items()}
    _expect(problems, "sample total", sum(hist.values()), samples)
    _expect(problems, "seed", cert["seed"], int(opts["seed"]))
    _expect(problems, "corrected bound holds", cert["corrected_bound"]["holds"], True)
    witnessed = "witnesses" in cert
    if m % 2 == 1:
        _expect(problems, "witnesses at odd m", witnessed, False)
    _expect(problems, "witnesses iff a count of 2", witnessed, max(hist) == 2)
    _expect(problems, "largest meet count <= 2", max(hist) <= 2, True)
    _expect(problems, "verdict", rep["verdict"], "fail" if witnessed else "pass")
    _expect(problems, "exit code", code, 1 if witnessed else 0)


CHECKS = {
    "threshold": _check_threshold,
    "arrangement": _check_arrangement,
    "lemma-ag": _check_lemma_ag,
    "rotation": _check_rotation,
    "dichotomy": _check_dichotomy,
    "lemma-plane": _check_lemma_plane,
}


def check(args, exit_code, text) -> list:
    """Problems with one command's output: `args` are the command's
    arguments without ``--json`` and ``--jobs``, `text` its JSON report."""
    pos, opts = parse_args(args)
    problems: list[str] = []
    if text is None:
        return [f"no JSON report (exit code {exit_code})"]
    try:
        payload = json.loads(text)
        CHECKS[pos[0]](problems, exit_code, payload, pos, opts)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems
