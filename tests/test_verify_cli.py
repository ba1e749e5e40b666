import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotref import cli, groups, verify
from rotref.arrangements import arrangement_contains, zeta_plane
from rotref.cli import main
from rotref.cyclo import euler_phi
from rotref.verify import (
    verify_dichotomy,
    verify_lemma_AG,
    verify_lemma_plane,
    verify_rotation_group,
)
from test_byte_pins import CLI_JSON_SHA256


# -- verification operations -----------------------------------------------

def test_lemma_ag_small_m():
    for m, planes in [(2, 4), (3, 5), (10, 12)]:
        rep = verify_lemma_AG(m)
        assert rep.passed
        assert rep.certificate["expected_plane_count"] == planes
        assert rep.certificate["planes_match_equations"]
        assert rep.certificate["pairwise_intersections_trivial"]


def test_lemma_ag_m1_degenerate_reports_truth():
    # with m = 1 the diagonal subgroup is trivial and the only member is the
    # swap plane, so the m+2 description cannot match
    rep = verify_lemma_AG(1)
    assert rep.verdict == "fail"
    assert "degenerate_note" in rep.certificate
    assert rep.certificate["member_dim_counts"] == {"2": 1}


def test_rotation_reports():
    for m in (2, 4, 7):
        rep = verify_rotation_group(m)
        assert rep.passed
        assert rep.certificate["no_reflections"]
        assert rep.certificate["nonidentity_scanned"] == 2 * m * m - 1
        hist = rep.certificate["fix_codim_histogram"]
        assert set(hist) <= {"2", "4"}


def test_rotation_rejects_m1():
    with pytest.raises(ValueError):
        verify_rotation_group(1)


@pytest.mark.parametrize("m", [5, 11, 12])
def test_wreath_checks_compute_few_kernels(monkeypatch, fresh_caches, m):
    # of the 2m^2 elements of G(m,1,2), only the 3m - 1 with eigenvalue 1
    # (the identity included) fix more than the origin; a full rank of
    # g - I mod p settles all the others with no kernel
    kernel = groups.kernel
    calls = []

    def counting(mat):
        calls.append(mat)
        return kernel(mat)

    monkeypatch.setattr(groups, "kernel", counting)
    assert verify_lemma_AG(m).passed
    assert len(calls) <= 3 * m - 1
    calls.clear()
    assert verify_rotation_group(m).passed
    assert len(calls) <= 3 * m - 1


def test_lemma_plane_odd_m_passes():
    rep = verify_lemma_plane(5, 300, 0)
    assert rep.passed
    assert set(rep.certificate["histogram"]) <= {"0", "1"}


def test_lemma_plane_m2_small_sample_passes():
    rep = verify_lemma_plane(2, 10, 1)
    assert rep.passed


def test_lemma_plane_even_m_fails_with_witness():
    # the literal at-most-one bound is false for even m: planes with a real
    # or pure-imaginary coordinate ratio meet an antipodal pair
    rep = verify_lemma_plane(8, 400, 0)
    assert rep.verdict == "fail"
    assert rep.certificate["witnesses"]
    met = rep.certificate["witnesses"][0]["met_indices"]
    assert len(met) == 2 and (met[1] - met[0]) % 8 == 4
    assert rep.certificate["corrected_bound"]["holds"]


def test_dichotomy_reports():
    for p, q in [(2, 2), (3, 5), (8, 8)]:
        rep = verify_dichotomy(p, q)
        assert rep.passed
        cls = rep.certificate["classification"]
        assert cls.get("V1") == 1 and cls.get("V2") == 1
        assert "violation" not in " ".join(cls)


def _keys(obj):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield k
            yield from _keys(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _keys(v)


def test_theorem_part_iii_is_a_proof_with_no_sampled_check(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("verify_dichotomy", "verify_lemma_plane",
                 "structural_dichotomy_check", "sample_rational_plane"):
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    rep = verify.verify_theorem(5)
    assert calls == []
    part_iii = rep.certificate["part_iii_structural"]
    assert not [k for k in _keys(part_iii) if "sampled" in k]
    assert part_iii["route"].count("Lemma") == 2 and part_iii["pass"]
    source = rep.certificate["part_i_direct"]["arrangement_source"]
    assert "reflection_arrangement" in source["catalog"]


def test_theorem_part_i_reads_only_the_big_factor_groups(monkeypatch):
    # part (iii) proves every group without a factor of degree 3 or 4, so
    # part (i) builds and reads the eleven big-factor arrangements only; at
    # m = 20 the four groups over Q(zeta_20) contain cos(2 pi/20) in their
    # field and take the computed route, the other seven the field one
    touched = []

    def counting(fn):
        def wrapped(label, *args, **kwargs):
            touched.append(label)
            return fn(label, *args, **kwargs)
        return wrapped

    for name in ("catalog_arrangement", "catalog_group"):
        monkeypatch.setattr(verify, name, counting(getattr(verify, name)))
    for m in (2, 5, 20):
        part_i = verify.verify_theorem(m).certificate["part_i_direct"]
        assert part_i["checked_groups"] == 11
        assert [w["group"] for w in part_i["witnesses"]] == list(groups.BIG_FACTOR_LABELS)
    assert touched and set(touched) <= set(groups.BIG_FACTOR_LABELS)
    routes = {w["group"]: w["justification"] for w in part_i["witnesses"]}
    computed = {g for g, r in routes.items() if r == "computed-arrangement"}
    assert computed == {"H4", "A4", "H3xA1", "H3x1"}
    assert set(routes.values()) == {"computed-arrangement", "field-obstruction"}


def test_theorem_field_route_agrees_with_the_computed_arrangements():
    # the big-factor groups have conductor 4 or 20, so the field test lets
    # part (i) compute arrangements only at the m listed here, at most 20
    conductors = {groups.catalog_group(g).conductor for g in groups.BIG_FACTOR_LABELS}
    passes = {N: [m for m in range(1, 10001) if verify._real_cos_in_field(m, N)]
              for N in conductors}
    assert passes == {4: [1, 2, 3, 4, 6], 20: [1, 2, 3, 4, 5, 6, 10, 20]}
    # wherever the field obstruction decides, the computed arrangements
    # agree: y = zeta_m x is a wreath plane and no flat of the group, both
    # compared at conductor lcm(4, m, N)
    decided = 0
    for label in groups.BIG_FACTOR_LABELS:
        N = groups.catalog_group(label).conductor
        big = verify.catalog_arrangement(label)
        for m in [*range(2, 13), 20]:
            if verify._real_cos_in_field(m, N):
                continue
            decided += 1
            small = verify.wreath_arrangement(m)
            ok, w = arrangement_contains(big, small)
            assert not ok and w is not None, (label, m)
            L = math.lcm(4, m, N)
            plane = zeta_plane(L, m, 1).key
            assert plane in {u.embed(L).key for u in small.subspaces}, (label, m)
            assert plane not in {u.embed(L).key for u in big.subspaces}, (label, m)
    assert decided == 7 * 8 + 4 * 5


def test_survey_finds_no_small_factor_container():
    # the computation that part (iii) replaced, kept as an oracle for its
    # proof in standard position: of the 45 groups with I2(k), k <= 6, only
    # the big-factor B4, D4 and F4 contain the wreath arrangement, at m = 4
    rows = verify.survey_containments(3, 6, 6)
    assert {r["m"]: sorted(r["contained_in"]) for r in rows} == {
        3: [], 4: ["B4", "D4", "F4"], 5: [], 6: []
    }
    small = [g for g in groups.enumerate_degree4_catalog(6)
             if g.name not in groups.BIG_FACTOR_LABELS]
    assert len(small) == 34 and "I2(6)xI2(6)" in [g.name for g in small]


def test_report_json_shape():
    rep = verify_lemma_AG(4)
    d = rep.to_json_dict()
    assert set(d) == {"claim_id", "parameters", "verdict", "certificate"}
    json.dumps(d)  # serializable


# -- CLI -----------------------------------------------------------------------

def test_cli_lemma_ag_pass(capsys):
    assert main(["lemma-ag", "--m", "4"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] lemma-AG" in out


def test_cli_lemma_ag_m1_fails(capsys):
    assert main(["lemma-ag", "--m", "1"]) == 1


def test_cli_rotation(capsys):
    assert main(["rotation", "--m", "3"]) == 0


def test_cli_lemma_plane_even_m_exit_code(capsys):
    assert main(["lemma-plane", "--m", "8", "--samples", "300", "--seed", "0"]) == 1
    out = capsys.readouterr().out
    assert "falsification witnesses" in out
    assert "corrected bound" in out


def test_cli_dichotomy(capsys):
    assert main(["dichotomy", "--p", "3", "--q", "4"]) == 0


def test_cli_json_report_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["lemma-plane", "--m", "5", "--samples", "50", "--seed", "3",
                 "--json", str(p1)]) == 0
    assert main(["lemma-plane", "--m", "5", "--samples", "50", "--seed", "3",
                 "--json", str(p2), "--jobs", "4"]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert data["reports"][0]["claim_id"] == "lemma-plane"
    assert "runtime_ms" not in data["reports"][0]


def test_cli_catalog_list(capsys):
    assert main(["catalog", "list", "--k-max", "3"]) == 0
    out = capsys.readouterr().out
    assert "I2(2)xI2(3)" in out and "H4" in out


def test_cli_group_show_label(capsys):
    assert main(["group", "show", "I2(6)"]) == 0
    out = capsys.readouterr().out
    assert "order: 12" in out


def test_cli_group_show_file(tmp_path, capsys):
    path = tmp_path / "grp.json"
    assert main(["group", "show", "B2", "--json", str(path)]) == 0
    capsys.readouterr()
    assert main(["group", "show", str(path)]) == 0
    out = capsys.readouterr().out
    assert "order: 8" in out


def test_cli_arrangement_compute(tmp_path, capsys):
    path = tmp_path / "arr.json"
    assert main(["arrangement", "compute", "I2(4)", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["ambient"] == 2
    assert len(data["subspaces"]) == 5  # 4 lines + origin
    assert data["method"] == "reflection"


def test_cli_arrangement_isotropy_method(capsys):
    assert main(["arrangement", "compute", "A1x1", "--method", "isotropy"]) == 0
    out = capsys.readouterr().out
    assert "method: isotropy" in out


def test_cli_survey(capsys):
    assert main(["survey", "--m-min", "2", "--m-max", "3", "--k-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "m= 2" in out and "m= 3" in out


def _drop_generators(d):
    del d["generators"]
    return d


def _zero_denominator(d):
    d["generators"][0]["entries"][0]["coeffs"][0] = "1/0"
    return d


def _set_generator(key, value):
    def corrupt(d):
        d["generators"][0][key] = value
        return d
    return corrupt


def _set_entry(key, value):
    def corrupt(d):
        d["generators"][0]["entries"][0][key] = value
        return d
    return corrupt


def _sign_group(ambient=1, rows=1, cols=1):
    # {+1, -1} on Q^1, with a boolean for one integer field: True == 1, so
    # only the JSON type tells it apart from the valid file
    def corrupt(d):
        minus_one = {"conductor": 4, "coeffs": ["-1/1", "0/1"]}
        gen = {"rows": rows, "cols": cols, "entries": [minus_one]}
        return dict(d, ambient=ambient, generators=[gen])
    return corrupt


@pytest.mark.parametrize(
    "corrupt",
    [
        _drop_generators,
        lambda d: dict(d, generators=5),
        lambda d: [d],
        _zero_denominator,
        lambda d: dict(d, generators=[5]),
        lambda d: dict(d, generators=[{"rows": 2, "cols": 2}]),
        lambda d: dict(d, ambient=3),
        lambda d: dict(d, ambient=-1, generators=[]),
        lambda d: dict(d, generators=[{"rows": 0, "cols": 0, "entries": []}]),
        lambda d: dict(d, conductor=4.7),
        lambda d: dict(d, ambient=2.9),
        lambda d: dict(d, conductor=4.0),
        _sign_group(ambient=True),
        lambda d: dict(d, conductor="4"),
        _set_generator("rows", 2.5),
        _sign_group(cols=True),
        _set_entry("conductor", 4.0),
        _set_entry("coeffs", [1.0, "0/1"]),
        _set_entry("coeffs", [1, 0]),
        _set_entry("coeffs", [" 1", "0/1"]),
        _set_entry("coeffs", ["1.5", "0/1"]),
        _set_entry("coeffs", ["1e5", "0/1"]),
        _set_entry("coeffs", ["\u0661/1", "0/1"]),
        _set_entry("coeffs", ["1_0/3", "0/1"]),
        _set_entry("coeffs", ["+1/2", "0/1"]),
        lambda d: dict(d, name=5),
    ],
    ids=[
        "no-generators",
        "generators-not-a-list",
        "top-level-list",
        "zero-denominator",
        "generator-not-an-object",
        "generator-without-entries",
        "ambient-mismatch",
        "ambient-negative",
        "generator-0x0",
        "conductor-float",
        "ambient-float",
        "conductor-integral-float",
        "ambient-bool",
        "conductor-string",
        "rows-float",
        "cols-bool",
        "entry-conductor-float",
        "coefficient-float",
        "coefficients-integers",
        "coefficient-padded",
        "coefficient-decimal",
        "coefficient-exponent",
        "coefficient-arabic-indic-digit",
        "coefficient-underscore",
        "coefficient-plus-sign",
        "name-integer",
    ],
)
def test_cli_malformed_group_file_exits_2(tmp_path, capsys, corrupt):
    path = tmp_path / "grp.json"
    assert main(["group", "show", "B2", "--json", str(path)]) == 0
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    capsys.readouterr()
    assert main(["group", "show", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# -- canonical JSON writer ------------------------------------------------------

_json_text = st.one_of(
    st.text(max_size=6),
    st.text(alphabet='"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u20ac\U0001f600a', max_size=6),
)
_json_payloads = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _json_text),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(_json_text, max_size=4),
        st.lists(st.integers(), max_size=4),
        st.dictionaries(_json_text, inner, max_size=4),
        st.dictionaries(st.integers(), inner, max_size=4),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_json_payloads)
def test_canonical_json_matches_json_dumps(payload):
    assert cli._canonical_json(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "payload", [1.5, {"a": [1, 2.0]}, {1.5: 1}, {True: 1}, {None: 1}, {"a": {1, 2}}, b"x"]
)
def test_canonical_json_rejects_other_types(payload):
    with pytest.raises(TypeError):
        cli._canonical_json(payload)


# -- wire-format fuzz: hypothesis corruptions of the B2 group file ----------
#
# B2's file has conductor 4, ambient 2 and two 2x2 generators whose entries
# carry phi(4) = 2 coefficients.  Each corruption is a (path, value) edit of
# it that no valid group file has.

def _entry(L=4):
    return {"conductor": L, "coeffs": ["1/1"] + ["0/1"] * (euler_phi(L) - 1)}


_GEN = st.integers(0, 1)
_ENTRY = st.integers(0, 3)
_NOT_AN_INT = st.one_of(
    st.floats(), st.text(max_size=4), st.booleans(), st.none(),
    st.lists(st.integers(), max_size=2),
)


# strings that Fraction reads as a number but that are not "p/q" or "p" in
# ASCII digits with an optional leading "-"
_LOOSE_NUMBER = st.one_of(
    st.builds("{}.{}".format, st.integers(-9, 9), st.integers(0, 9)),
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-3, 3)),
    st.builds("+{}/{}".format, st.integers(0, 9), st.integers(1, 9)),
    st.builds("{}{}{}".format, st.sampled_from(["", " ", "\t"]),
              st.sampled_from(["1", "-1/2", "0"]), st.sampled_from(["", " ", "\n"])
              ).filter(lambda s: s != s.strip()),
    st.sampled_from(["1_0/3", "1/1_0", "\u0661/1", "1/\u0663", "\uff11"]),
)


def _bad_int(cap):
    return st.one_of(_NOT_AN_INT, st.integers(max_value=0), st.integers(min_value=cap + 1))


def _edit(value, *keys):
    """(path, value): keys are JSON keys, or strategies for list indices."""
    path = st.tuples(*(k if isinstance(k, st.SearchStrategy) else st.just(k) for k in keys))
    return st.tuples(path, value)


_WIRE_CORRUPTIONS = st.one_of(
    # wrong coefficient count
    _edit(st.integers(0, 6).filter(lambda n: n != 2).map(lambda n: ["1/1"] * n),
          "generators", _GEN, "entries", _ENTRY, "coeffs"),
    # zero or negative denominator
    _edit(st.builds("{}/{}".format, st.integers(-9, 9), st.integers(max_value=0)),
          "generators", _GEN, "entries", _ENTRY, "coeffs", st.integers(0, 1)),
    # a coefficient written as a loose number
    _edit(_LOOSE_NUMBER, "generators", _GEN, "entries", _ENTRY, "coeffs", st.integers(0, 1)),
    # non-square generator
    _edit(st.tuples(st.integers(1, 4), st.integers(1, 4)).filter(lambda rc: rc[0] != rc[1]).map(
              lambda rc: {"rows": rc[0], "cols": rc[1], "entries": [_entry()] * (rc[0] * rc[1])}),
          "generators", _GEN),
    # ragged generator: the entry count is not rows * cols
    _edit(st.integers(0, 8).filter(lambda n: n != 4).map(lambda n: [_entry()] * n),
          "generators", _GEN, "entries"),
    # mixed conductors: one entry of another conductor, or a generator over
    # a conductor that does not divide the group's
    _edit(st.sampled_from([1, 2, 3, 5, 8, 12]).map(_entry),
          "generators", _GEN, "entries", _ENTRY),
    _edit(st.sampled_from([3, 5, 8, 12]).map(
              lambda L: {"rows": 2, "cols": 2, "entries": [_entry(L)] * 4}),
          "generators", _GEN),
    # ambient or conductor out of range or not an integer
    _edit(_bad_int(groups.AMBIENT_CAP), "ambient"),
    _edit(_bad_int(verify.CONDUCTOR_CAP), "conductor"),
    _edit(_bad_int(verify.CONDUCTOR_CAP), "generators", _GEN, "entries", _ENTRY, "conductor"),
)


@pytest.fixture(scope="module")
def b2_group_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "grp.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["group", "show", "B2", "--json", str(path)]) == 0
    return path, json.loads(path.read_text())


@settings(max_examples=80, deadline=2000)
@given(edit=_WIRE_CORRUPTIONS)
def test_cli_group_file_fuzz_exits_2(b2_group_file, edit):
    path, valid = b2_group_file
    keys, value = edit
    data = copy.deepcopy(valid)
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["group", "show", str(path)])
    assert code == 2, out.getvalue()
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_cli_usage_errors(capsys):
    assert main(["group", "show", "E8"]) == 2
    assert main(["lemma-ag", "--m", "0"]) == 2
    assert main(["rotation", "--m", "1"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["lemma-ag"])  # missing required --m
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["theorem", "--m", "5", "--k-max", "8"])  # catalog list and survey only
    assert exc.value.code == 2


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_rejects_jobs_below_one(jobs, capsys):
    assert main(["lemma-ag", "--m", "3", "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "args",
    [["lemma-ag", "--m", "1000"], ["rotation", "--m", "101"], ["rotation", "--m", "100000"]],
)
def test_cli_rejects_wreath_group_above_cap_at_once(args):
    # 2m^2 exceeds the closure cap, which is known before any closure; at
    # m = 100000 the conductor cap refuses the generators before any is built
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "rotref.cli", *args],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_cli_survey_out_of_range(capsys):
    assert main(["survey", "--m-min", "2", "--m-max", "40"]) == 2


@pytest.mark.parametrize(
    "args", [["threshold"], ["theorem", "--m", "20"]], ids=["threshold", "theorem-m20"]
)
def test_cli_jobs_writes_the_same_bytes(args, tmp_path, fresh_caches):
    # --jobs is accepted and changes nothing: the --jobs 2 run, which
    # rebuilds every group and arrangement, writes the same bytes as the
    # --jobs 1 run
    blobs = []
    for jobs in ("1", "2"):
        fresh_caches()
        path = tmp_path / f"jobs-{jobs}.json"
        assert main([*args, "--jobs", jobs, "--json", str(path)]) == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_cli_theorem_builds_the_wreath_arrangement_once(monkeypatch, fresh_caches):
    # part (i) reads the G(20,1,2) arrangement for four groups; one build
    # serves them all, whatever --jobs says
    build = verify.isotropy_arrangement
    calls = []

    def counted(group):
        calls.append(group.name)
        return build(group)

    monkeypatch.setattr(verify, "isotropy_arrangement", counted)
    assert main(["theorem", "--m", "20", "--jobs", "2"]) == 0
    assert len(calls) == 1


def test_cli_builds_its_parser_once():
    assert cli._parser() is cli._parser()


def test_cli_parser_keeps_nothing_between_calls(tmp_path, capsys):
    # one parser serves every call: an option given once does not stick, and
    # a call that argparse refuses leaves the next one working
    path = tmp_path / "arr.json"
    args = ["arrangement", "compute", "A1xA1x1x1", "--json", str(path)]
    assert main([*args, "--method", "isotropy"]) == 0
    assert json.loads(path.read_text())["method"] == "isotropy"
    with pytest.raises(SystemExit) as exc:
        main([*args, "--method", "orbit"])
    assert exc.value.code == 2
    assert main(args) == 0
    assert json.loads(path.read_text())["method"] == "reflection"


def test_rotation_and_lemma_ag_share_one_group(monkeypatch, fresh_caches, tmp_path, capsys):
    # both checks read G(7,1,2) from one cached group: one residue search,
    # and both reports keep their pinned bytes
    init = groups._Elements.__init__
    built = []

    def counted(self, group):
        built.append(group.name)
        init(self, group)

    monkeypatch.setattr(groups._Elements, "__init__", counted)
    for args in ("rotation --m 7", "lemma-ag --m 7"):
        path = tmp_path / "report.json"
        code = main(args.split() + ["--json", str(path)])
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert (code, digest) == CLI_JSON_SHA256[args]
    assert built == ["G(7,1,2)r"]
    assert groups.realified_gmpn_group(7) is groups.realified_gmpn_group(7)


@pytest.mark.parametrize("m, error", [(101, groups.ClosureCapExceeded), (1001, ValueError)])
def test_refused_wreath_group_is_not_cached(fresh_caches, m, error):
    # above the closure cap (2m^2 > 20000) or the conductor cap
    with pytest.raises(error):
        groups.realified_gmpn_group(m)
    assert groups._WREATH_CACHE == {}


def _run_cli(args, cwd=None, timeout=30):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run(
        [sys.executable, "-m", "rotref.cli", *args],
        env=env, capture_output=True, text=True, timeout=timeout, cwd=cwd,
    )


def test_cli_theorem_huge_m_ends_at_once():
    # the field test for cos(2 pi/m) is integer arithmetic on m, with no
    # cyclotomic polynomial of degree phi(m)
    proc = _run_cli(["theorem", "--m", "100000000"], timeout=20)
    assert proc.returncode == 0, proc.stderr


def test_cli_lemma_plane_rejects_huge_conductor_at_once():
    # conductor 20000 would take minutes to tabulate; the cap is checked first
    proc = _run_cli(["lemma-plane", "--m", "20000", "--samples", "1"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["dichotomy", "--p", "3000", "--q", "3"],
        ["dichotomy", "--p", "250", "--q", "249"],
        ["group", "show", "I2(5001)"],
        ["arrangement", "compute", "I2(3001)xA1xA1"],
        ["catalog", "list", "--k-max", "2000"],
        ["catalog", "list", "--k-max", "17"],
    ],
    ids=["dichotomy-3000", "dichotomy-250-249", "group-show", "arrangement",
         "catalog-2000", "catalog-17"],
)
def test_cli_catalog_label_above_the_conductor_cap_exits_2(args):
    # all but catalog-17 would build tables for a conductor far above the
    # cap and run past the timeout; the cap is checked before any is built
    proc = _run_cli(args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_cli_dichotomy_at_the_conductor_cap_exits_2_at_once():
    # I2(1000)xI2(1000) has more flats than the lattice cap, which the
    # reflection lattice reaches after the generators' kernels at conductor
    # 1000; the timeout holds those field kernels to their nonzero terms
    proc = _run_cli(["dichotomy", "--p", "1000", "--q", "1000"], timeout=20)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [["group", "show"], ["arrangement", "compute"]])
@pytest.mark.parametrize(
    "ref",
    ["x".join(["A1"] * 20), "x".join(["A1"] * 40), "H4xA1", "I2(\u0663)", ""],
    ids=["A1-20", "A1-40", "H4xA1", "arabic-indic-digit", "empty"],
)
def test_cli_hostile_label_exits_2_at_once(command, ref, capsys):
    # each label is refused before any group is built: a degree above 4, a
    # non-ASCII digit, an empty factor (not the current directory)
    t0 = time.perf_counter()
    assert main([*command, ref]) == 2
    assert time.perf_counter() - t0 < 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_cli_ref_is_read_as_a_file_only_when_it_is_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "A1").mkdir()
    assert main(["group", "show", "A1"]) == 0
    assert main(["group", "show", ""]) == 2
    assert capsys.readouterr().err == "error: unknown catalog factor '' in ''\n"


# --p and --q either refused (below 2, or a conductor lcm(4, p, q) above the
# cap) or at most 12; an accepted conductor near the cap takes many seconds
_DICHOTOMY_REFUSED = st.one_of(
    st.integers(max_value=1), st.sampled_from([251, 499, 997]), st.integers(min_value=1001)
)


@settings(max_examples=30, deadline=None)
@given(p=st.one_of(_DICHOTOMY_REFUSED, st.integers(2, 12)),
       q=st.one_of(_DICHOTOMY_REFUSED, st.integers(2, 12)))
def test_cli_dichotomy_fuzz(p, q):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["dichotomy", f"--p={p}", f"--q={q}"])
    if 2 <= p <= 12 and 2 <= q <= 12:
        assert code == 0, err.getvalue()
    else:
        assert code == 2, out.getvalue()
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_lemma_plane_runs_at_the_conductor_cap():
    assert verify.CONDUCTOR_CAP == 1000
    assert verify_lemma_plane(1000, 1, 0).certificate["samples"] == 1
    with pytest.raises(ValueError):
        verify_lemma_plane(251, 1, 0)  # conductor lcm(4, 251) = 1004


def _group_file(path, *generators, n=2):
    """A JSON group over conductor 4 with n x n rational generators, each
    given by its entries in row order."""
    def entry(v):
        return {"conductor": 4, "coeffs": [str(v), "0"]}

    path.write_text(json.dumps({
        "name": "hostile", "ambient": n, "conductor": 4,
        "generators": [
            {"rows": n, "cols": n, "entries": [entry(v) for v in entries]}
            for entries in generators
        ],
    }))
    return path


_P4 = groups._mod_image(4).p


@pytest.mark.parametrize(
    "generators",
    [
        [(1 + _P4, 0, 0, 1)],
        [(f"1/{_P4}", 0, 0, 1)],
        [(2, 0, 0, 1)],
        # a reflection of order 2 whose denominator p divides: the closure
        # and the flat search both work mod p and refuse it
        [(-1, 0, f"-1/{_P4}", 1)],
        # two integer reflections whose product has integer trace and
        # infinite order, with entries that grow with every exact power
        [(-1, 10**60, 0, 1), (1, 0, 10**60, -1)],
    ],
    ids=["trivial-mod-p", "denominator-divisible-by-p", "infinite-order-at-cap",
         "reflection-with-denominator-p", "two-reflections-of-infinite-product"],
)
@pytest.mark.parametrize(
    "command",
    [
        ["group", "show"],
        ["arrangement", "compute", "--method", "isotropy"],
        ["arrangement", "compute", "--method", "reflection"],
    ],
    ids=["group-show", "arrangement-isotropy", "arrangement-reflection"],
)
def test_cli_hostile_group_exits_2(generators, command, tmp_path):
    path = _group_file(tmp_path / "group.json", *generators)
    args = command[:2] + [str(path)] + command[2:]
    proc = _run_cli(args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def _diag(*values):
    return tuple(v if i == j else 0 for i, v in enumerate(values) for j in range(4))


_PROJECTION = _diag(1, 1, 0, 0)  # onto span(e0, e1)


@pytest.mark.parametrize(
    "generators, index",
    [
        ([_diag(0, 1, 1, 1)], 0),
        ([_diag(0, 0, 0, 0)], 0),
        ([tuple(int(k == 1) for k in range(16))], 0),  # nilpotent E01
        ([_PROJECTION], 0),
        ([_diag(-1, 1, 1, 1), _PROJECTION], 1),
    ],
    ids=["diag-0111", "zero", "nilpotent-E01", "projection", "reflection-and-projection"],
)
@pytest.mark.parametrize(
    "command",
    [
        ["group", "show"],
        ["arrangement", "compute", "--method", "isotropy"],
        ["arrangement", "compute", "--method", "reflection"],
    ],
    ids=["group-show", "arrangement-isotropy", "arrangement-reflection"],
)
def test_cli_singular_generator_exits_2(generators, index, command, tmp_path, capsys):
    # the mod-p closure would close these finite semigroups as if they
    # were groups; the group file is refused before any closure
    path = _group_file(tmp_path / "group.json", *generators, n=4)
    assert main(command[:2] + [str(path)] + command[2:]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: generator {index} is not invertible\n"


def test_group_file_check_falls_back_to_the_exact_kernel(tmp_path, capsys):
    # diag(p, 1) is singular mod p but invertible: the exact kernel lets it
    # through, and its infinite order is refused instead
    path = _group_file(tmp_path / "group.json", (_P4, 0, 0, 1))
    with pytest.raises(groups.ClosureCapExceeded, match="infinite order"):
        groups.group_from_json(json.loads(path.read_text()))
    assert main(["group", "show", str(path)]) == 2
    assert "not invertible" not in capsys.readouterr().err
    # an empty generator list is still the trivial group
    empty = _group_file(tmp_path / "empty.json")
    assert main(["group", "show", str(empty)]) == 0
    assert "order: 1, generators: 0" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["group", "show"], ["arrangement", "compute"]])
@pytest.mark.parametrize(
    "text",
    [
        "[" * 100000 + "]" * 100000,
        '{"name": "deep", "ambient": 2, "conductor": 4, "generators": [{"rows": 2, '
        '"cols": 2, "entries": [{"conductor": 4, "coeffs": '
        + "[" * 100000 + "]" * 100000 + "}]}]}",
    ],
    ids=["deep-file", "deep-coeffs"],
)
def test_cli_deeply_nested_group_file_exits_2(command, text, tmp_path, capsys):
    # json.loads raises RecursionError on deep nesting, which json.dumps
    # cannot write, so the text is written directly
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert main([*command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _entry_conductor_60060(d):
    d["generators"][0]["entries"][0] = {"conductor": 60060, "coeffs": ["1"]}
    return d


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda d: dict(d, conductor=60060),
        _entry_conductor_60060,
        lambda d: dict(d, ambient=30000, generators=[]),
    ],
    ids=["conductor-60060", "entry-conductor-60060", "ambient-30000"],
)
def test_cli_group_above_a_cap_exits_2_at_once(corrupt, tmp_path):
    # tables for conductor 60060 or a 30000 x 30000 identity would take
    # minutes or exhaust memory; the caps are checked before either is built
    path = _group_file(tmp_path / "group.json", (1, 0, 0, -1))
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    proc = _run_cli(["group", "show", str(path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
