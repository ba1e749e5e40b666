import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rotref import groups, verify
from rotref.cli import main
from rotref.verify import (
    verify_dichotomy,
    verify_lemma_AG,
    verify_lemma_plane,
    verify_rotation_group,
)


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
def test_wreath_checks_compute_few_kernels(monkeypatch, m):
    # of the 2m^2 elements of G(m,1,2), only the 3m - 1 with eigenvalue 1
    # (the identity included) fix more than the origin; a full rank of
    # g - I mod p settles all the others with no kernel
    kernel = groups.kernel
    calls = []

    def counting(mat):
        calls.append(mat)
        return kernel(mat)

    monkeypatch.setattr(groups, "kernel", counting)
    monkeypatch.setattr(verify, "_WREATH_ARR_CACHE", {})
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


def test_report_json_shape():
    rep = verify_lemma_AG(4)
    d = rep.to_json_dict()
    assert set(d) == {"claim_id", "parameters", "verdict", "certificate"}
    d2 = rep.to_json_dict(include_runtime=True)
    assert "runtime_ms" in d2
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


def test_cli_usage_errors(capsys):
    assert main(["group", "show", "E8"]) == 2
    assert main(["lemma-ag", "--m", "0"]) == 2
    assert main(["rotation", "--m", "1"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["lemma-ag"])  # missing required --m
    assert exc.value.code == 2


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_rejects_jobs_below_one(jobs, capsys):
    assert main(["lemma-ag", "--m", "3", "--jobs", jobs]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("args", [["lemma-ag", "--m", "1000"], ["rotation", "--m", "101"]])
def test_cli_rejects_wreath_group_above_cap_at_once(args):
    # 2m^2 exceeds the closure cap, which is known before any closure
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "rotref.cli", *args],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_cli_survey_out_of_range(capsys):
    assert main(["survey", "--m-min", "2", "--m-max", "40"]) == 2


def test_cli_threshold_honours_jobs(tmp_path, monkeypatch):
    # the --jobs 2 run builds every arrangement anew on worker threads and
    # must write the same bytes as the --jobs 1 run
    compute = verify.compute_threshold
    seen = []

    def recording(jobs=1):
        seen.append(jobs)
        return compute(jobs=jobs)

    monkeypatch.setattr(verify, "compute_threshold", recording)
    blobs = []
    for jobs in (1, 2):
        monkeypatch.setattr(verify, "_THRESHOLD_CACHE", [])
        if jobs > 1:
            monkeypatch.setattr(verify, "_CATALOG_ARR_CACHE", {})
        path = tmp_path / f"threshold-{jobs}.json"
        assert main(["threshold", "--jobs", str(jobs), "--json", str(path)]) == 0
        blobs.append(path.read_bytes())
    assert seen == [1, 2]
    assert blobs[0] == blobs[1]


def _run_cli(args, cwd=None):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run(
        [sys.executable, "-m", "rotref.cli", *args],
        env=env, capture_output=True, text=True, timeout=30, cwd=cwd,
    )


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


def test_lemma_plane_runs_at_the_conductor_cap():
    assert verify.CONDUCTOR_CAP == 1000
    assert verify_lemma_plane(1000, 1, 0).certificate["samples"] == 1
    with pytest.raises(ValueError):
        verify_lemma_plane(251, 1, 0)  # conductor lcm(4, 251) = 1004


def _diag_group_file(path, a, b):
    """A JSON group over conductor 4 with the one generator diag(a, b)."""
    def entry(v):
        return {"conductor": 4, "coeffs": [str(v), "0"]}

    path.write_text(json.dumps({
        "name": "hostile", "ambient": 2, "conductor": 4,
        "generators": [{"rows": 2, "cols": 2, "entries": [
            entry(a), entry(0), entry(0), entry(b),
        ]}],
    }))
    return path


_P4 = groups._mod_image(4).p


@pytest.mark.parametrize(
    "a, b",
    [(1 + _P4, 1), (f"1/{_P4}", 1), (2, 1)],
    ids=["trivial-mod-p", "denominator-divisible-by-p", "infinite-order-at-cap"],
)
@pytest.mark.parametrize(
    "command",
    [["group", "show"], ["arrangement", "compute", "--method", "isotropy"]],
    ids=["group-show", "arrangement-isotropy"],
)
def test_cli_hostile_group_exits_2(a, b, command, tmp_path):
    path = _diag_group_file(tmp_path / "group.json", a, b)
    args = command[:2] + [str(path)] + command[2:]
    proc = _run_cli(args)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


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
    path = _diag_group_file(tmp_path / "group.json", 1, -1)
    path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
    proc = _run_cli(["group", "show", str(path)])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
