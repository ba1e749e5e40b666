"""Command-line interface: verification subcommands with JSON certificates.

Exit status: 0 when every verdict passes, 1 when any verdict fails (only
lemma-plane and theorem print a witness; --json holds every certificate),
2 for usage or configuration errors.

The --json report file is canonical: keys sorted, runtime omitted, so reruns
produce byte-identical output.  Every command runs on one thread; --jobs N is
still accepted (N >= 1) so that existing scripts keep working, and changes
nothing.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from rotref.arrangements import (
    arrangement_to_json,
    isotropy_arrangement,
    reflection_arrangement,
)
from rotref.groups import (
    ClosureCapExceeded,
    IRREDUCIBLE_LABELS,
    catalog_group,
    enumerate_degree4_catalog,
    generated_by_reflections,
    group_from_json,
    group_to_json,
    parse_label,
)
from rotref.verify import (
    survey_containments,
    verify_dichotomy,
    verify_lemma_AG,
    verify_lemma_plane,
    verify_rotation_group,
    verify_theorem,
    verify_threshold,
)

USAGE_ERROR = 2

# the claim subcommands and their verifiers, each called by its name in this
# module, so that a wrapper installed over that name sees the call
_CLAIMS = {
    "lemma-ag": lambda args: verify_lemma_AG(args.m),
    "rotation": lambda args: verify_rotation_group(args.m),
    "lemma-plane": lambda args: verify_lemma_plane(args.m, args.samples, args.seed),
    "dichotomy": lambda args: verify_dichotomy(args.p, args.q),
    "threshold": lambda args: verify_threshold(),
    "theorem": lambda args: verify_theorem(args.m),
}


def _dump_json(path: str, payload: dict):
    Path(path).write_text(_canonical_json(payload), encoding="utf-8")


def _canonical_json(payload) -> str:
    """The text of json.dumps(payload, sort_keys=True, indent=2) + "\n".

    CPython's C encoder takes no indent, so json.dumps would run the
    pure-Python one; this writer builds the same text from dicts with str or
    int keys, lists, tuples, strings, ints, booleans and None, and raises
    TypeError on anything else."""
    out = []
    _write_json(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(obj, nl: str, out: list):
    """Append the text of obj, whose first line is already indented and
    whose later lines start with nl, to out."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        inner = nl + "  "
        if not obj:
            out.append("[]")
        elif all(type(v) is str for v in obj):
            out.append("[" + inner + ("," + inner).join(map(_quote, obj)) + nl + "]")
        elif all(type(v) is int for v in obj):
            out.append("[" + inner + ("," + inner).join(map(str, obj)) + nl + "]")
        else:
            sep = "["
            for v in obj:
                out.append(sep + inner)
                sep = ","
                _write_json(v, inner, out)
            out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{"
        for k, v in sorted(obj.items()):
            if type(k) is int:
                k = str(k)
            elif not isinstance(k, str):
                raise TypeError(f"JSON keys must be str or int, not {type(k).__name__}")
            out.append(sep + inner + _quote(k) + ": ")
            sep = ","
            _write_json(v, inner, out)
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit_report(rep, json_path) -> int:
    """Print a claim's report, its summary lines first and the detail of a
    failure last, and write its canonical JSON file if asked; returns the
    process exit code."""
    cert = rep.certificate
    if rep.claim_id == "threshold":
        for label, row in sorted(cert["per_group"].items()):
            print(f"  {label:8s} planes={row['planes']:4d} total={row['total']:5d}")
        print(f"  m0_planes={cert['m0_planes']}  m0_total={cert['m0_total']}")
    if rep.claim_id == "theorem":
        print(f"part (i)   direct non-containment: "
              f"{'pass' if cert['part_i_direct']['pass'] else 'FAIL'} "
              f"({cert['part_i_direct']['checked_groups']} groups)")
        pii = cert["part_ii_counting"]
        print(f"part (ii)  counting certificate:   "
              f"{'applicable: ' + pii['inequality'] if pii['applicable'] else 'not applicable, m < m0_planes'}")
        piii = cert["part_iii_structural"]
        print(f"part (iii) structural certificate: "
              f"{'pass' if piii['pass'] else 'FAIL'}")
    for line in rep.human_lines():
        print(line)
    if json_path:
        _dump_json(json_path, {"reports": [rep.to_json_dict()]})
    if rep.passed:
        return 0
    _print_failure_detail(rep)
    return 1


def _print_failure_detail(rep):
    cert = rep.certificate
    if rep.claim_id == "lemma-plane" and "witnesses" in cert:
        print("falsification witnesses (literal at-most-one claim):")
        for w in cert["witnesses"]:
            print(f"  met zeta-plane indices {w['met_indices']}")
        corrected = cert["corrected_bound"]
        print(
            "corrected bound (one antipodal phase class): "
            + ("holds" if corrected["holds"] else "FAILS")
        )
    if rep.claim_id == "theorem":
        found = cert["part_i_direct"].get("containments_found")
        if found:
            print(f"containment found in standard position(s): {found}")
            print("the non-containment statement concerns sufficiently large m;")
            print("see the threshold subcommand for the explicit bound")


def _group_from_ref(ref: str):
    p = Path(ref)
    if p.suffix == ".json" or p.is_file():
        try:
            data = json.loads(p.read_text(encoding="utf-8"))
        except RecursionError:
            raise ValueError(f"{ref}: JSON nested too deeply") from None
        return group_from_json(data)
    return catalog_group(parse_label(ref))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, so every main() call shares it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", metavar="PATH", help="write a canonical JSON report")
    common.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="accepted for compatibility and ignored: every command runs on one thread",
    )

    top = argparse.ArgumentParser(
        prog="rotref",
        description=(
            "exact verification that the realified wreath rotation groups "
            "G(m,1,2) have subspace arrangements contained in no degree-4 "
            "real reflection arrangement (for m large; the explicit "
            "threshold is computed)"
        ),
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lemma-ag", parents=[common],
                       help="verify the m+2-plane arrangement description")
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("rotation", parents=[common],
                       help="verify the group is a rotation group without reflections")
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("lemma-plane", parents=[common],
                       help="sampled plane meet-count bound")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("dichotomy", parents=[common],
                       help="block-plane dichotomy for I2(p) x I2(q)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    sub.add_parser("threshold", parents=[common],
                   help="explicit largeness thresholds from the big-factor catalog")

    p = sub.add_parser("theorem", parents=[common],
                       help="the three-part non-containment certificate")
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("catalog", parents=[common], help="catalog utilities")
    p.add_argument("action", choices=["list"])
    p.add_argument("--k-max", type=int, default=8, dest="k_max")
    p.add_argument("--orders", action="store_true",
                   help="also enumerate group orders (computes closures)")

    p = sub.add_parser("group", parents=[common], help="group utilities")
    p.add_argument("action", choices=["show"])
    p.add_argument("ref", help="catalog label or JSON group file")

    p = sub.add_parser("arrangement", parents=[common], help="arrangement utilities")
    p.add_argument("action", choices=["compute"])
    p.add_argument("ref", help="catalog label or JSON group file")
    p.add_argument("--method", choices=["auto", "isotropy", "reflection"],
                   default="auto")

    p = sub.add_parser(
        "survey", parents=[common],
        help="exploratory: list standard-position containments per m (unverified)",
    )
    p.add_argument("--m-min", type=int, default=2, dest="m_min")
    p.add_argument("--m-max", type=int, default=8, dest="m_max")
    p.add_argument("--k-max", type=int, default=8, dest="k_max")
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        return _dispatch(args)
    except (ValueError, ClosureCapExceeded, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _dispatch(args) -> int:
    cmd = args.command
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, not {args.jobs}")

    claim = _CLAIMS.get(cmd)
    if claim is not None:
        return _emit_report(claim(args), args.json)

    if cmd == "catalog":
        groups = enumerate_degree4_catalog(args.k_max)
        print("irreducible factors:", " ".join(IRREDUCIBLE_LABELS), "I2(k)")
        print(f"degree-4 catalog with k <= {args.k_max} ({len(groups)} entries):")
        rows = []
        for g in groups:
            entry = parse_label(g.name)
            row = {
                "label": g.name,
                "conductor": g.conductor,
                "big_factor": entry.has_big_factor,
            }
            if args.orders:
                g.ensure_elements()
                row["order"] = g.order
            rows.append(row)
            flag = "*" if row["big_factor"] else " "
            order = f" order={row['order']}" if args.orders else ""
            print(f"  {flag} {row['label']:16s} L={row['conductor']:3d}{order}")
        print("(* = contains an irreducible factor of degree 3 or 4)")
        if args.json:
            _dump_json(args.json, {"catalog": rows})
        return 0

    if cmd == "group":
        grp = _group_from_ref(args.ref)
        hist = Counter(c.tag for c in grp.element_classes())
        print(f"name: {grp.name}")
        print(f"ambient dimension: {grp.ambient_dim}, conductor: {grp.conductor}")
        print(f"order: {grp.order}, generators: {len(grp.generators)}")
        print(f"element classes: {dict(sorted(hist.items()))}")
        if args.json:
            payload = group_to_json(grp)
            payload["order"] = grp.order
            payload["element_classes"] = dict(sorted(hist.items()))
            _dump_json(args.json, payload)
        return 0

    if cmd == "arrangement":
        grp = _group_from_ref(args.ref)
        method = args.method
        if method == "auto":
            method = "reflection" if generated_by_reflections(grp) else "isotropy"
        arr = (
            reflection_arrangement(grp)
            if method == "reflection"
            else isotropy_arrangement(grp)
        )
        print(f"group: {grp.name}, method: {method}")
        print(f"members by dimension: {dict(sorted(arr.dim_counts().items()))}")
        print(f"total members: {arr.size}")
        if args.json:
            payload = arrangement_to_json(arr)
            payload["group"] = grp.name
            payload["method"] = method
            _dump_json(args.json, payload)
        return 0

    if cmd == "survey":
        print("exploratory survey (standard positions only; not a verification)")
        rows = survey_containments(args.m_min, args.m_max, args.k_max)
        for row in rows:
            listing = ", ".join(row["contained_in"]) if row["contained_in"] else "none"
            print(f"  m={row['m']:2d}: contained in {listing}")
        if args.json:
            _dump_json(args.json, {"survey": rows})
        return 0

    raise ValueError(f"unknown command {cmd!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
