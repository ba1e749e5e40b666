"""Self-tests of the benchmark harness:  python3 -m pytest perfbench"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_subtracts_direct_child_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def kernel():
        clock.t += 2.0

    traced_kernel = tracer.span("linalg.kernel", kernel)

    def fixed_space():
        clock.t += 1.0
        traced_kernel()
        clock.t += 0.5
        traced_kernel()

    tracer.span("groups.fixed_space", fixed_space)()
    assert tracer.calls["groups.fixed_space"] == 1
    assert tracer.calls["linalg.kernel"] == 2
    assert tracer.self_s["groups.fixed_space"] == 1.5
    assert tracer.self_s["linalg.kernel"] == 4.0
    assert tracer.layer_self_s("groups") == 1.5
    assert tracer.layer_self_s("linalg") == 4.0


def test_failed_call_still_closes_its_span():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)

    def boom():
        clock.t += 3.0
        raise ValueError("x")

    outer_calls = []

    def outer():
        try:
            tracer.span("linalg.kernel", boom)()
        except ValueError:
            outer_calls.append(1)

    tracer.span("verify.v", outer)()
    assert tracer.stack == []
    assert tracer.self_s["linalg.kernel"] == 3.0
    assert tracer.self_s["verify.v"] == 0.0


INSTALL_PROBE = r"""
import json, sys, inspect
import rotref, rotref.cli
import tracing
tracer = tracing.Tracer()
replaced = tracing.install(tracer)
import rotref.linalg as la, rotref.groups as gr, rotref.arrangements as ar
import rotref.verify as ve, rotref.cli as cl
# every name a rotref module looks up now leads to the wrapper
left = [f"{name}.{attr}" for name, mod in sys.modules.items()
        if name == "rotref" or name.startswith("rotref.")
        for attr, v in vars(mod).items() if inspect.isfunction(v) and v in replaced]
same = [
    ar.subspace_contains is la.subspace_contains,
    ve.isotropy_arrangement is ar.isotropy_arrangement,
    cl.isotropy_arrangement is ar.isotropy_arrangement,
    cl.verify_threshold is ve.verify_threshold,
    gr.kernel is la.kernel,
    ar.fixed_space is gr.fixed_space,
    rotref.isotropy_arrangement is ar.isotropy_arrangement,
    hasattr(la.kernel, "__wrapped__"),
    hasattr(cl.main, "__wrapped__"),
]
grp = gr.catalog_group("I2(3)xA1xA1")
grp.ensure_elements(); grp.ensure_elements()
for g in grp.elements:
    gr.classify(g); gr.classify(g)
ve.catalog_arrangement("I2(3)xA1xA1"); ve.catalog_arrangement("I2(3)xA1xA1")
m = {k: v["value"] for k, v in tracer.metrics(0.0).items()}
print(json.dumps({"left": left, "same": same, "order": grp.order, "m": m}))
"""


def test_install_patches_every_lookup_name_and_counts():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    out = subprocess.run(
        [sys.executable, "-c", INSTALL_PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    probe = json.loads(out.strip().splitlines()[-1])
    assert probe["left"] == []
    assert all(probe["same"])
    m = probe["m"]
    assert m["groups.closure.calls"] == 1
    assert m["groups.closure.elements"] == probe["order"] == 24
    # the second classify of each element hits the fixed-space cache, and
    # catalog_arrangement's own classify calls hit it too
    assert m["groups.fixed_space.calls"] > 2 * probe["order"]
    assert 0 < m["groups.fixed_space.kernel_frac"] <= 0.5
    # every kernel here is computed by fixed_space: elements and generators
    kernels = m["groups.fixed_space.kernel_frac"] * m["groups.fixed_space.calls"]
    assert round(kernels) == m["linalg.kernel.calls"] >= probe["order"]
    assert m["arrangements.reflection.calls"] == 1
    assert m["arrangements.reflection.members"] == sum(
        checks.product_dims("I2(3)xA1xA1").values()
    )
    assert m["verify.arrangement_cache.hit_frac"] == 0.5
    assert m["cyclo.mul.calls"] > 0 and m["linalg.matmul.calls"] > 0


THRESHOLD_OK = {
    "reports": [{
        "claim_id": "threshold", "parameters": {}, "verdict": "pass",
        "certificate": {
            "m0_planes": 721, "m0_total": 2101,
            "per_group": {k: {"planes": p, "total": t}
                          for k, (p, t) in checks.THRESHOLD_PER_GROUP.items()},
        },
    }]
}


def _arrangement_payload(dims, label="H4"):
    subspaces = [{"ambient": 4, "basis": [[]] * d}
                 for d, n in sorted(dims.items()) for _ in range(n)]
    return {"ambient": 4, "group": label, "method": "isotropy",
            "subspaces": subspaces, "provenance": [{}] * len(subspaces)}


def test_checker_accepts_the_pins_and_rejects_a_wrong_value():
    assert checks.check(["threshold"], 0, json.dumps(THRESHOLD_OK)) == []
    wrong = json.loads(json.dumps(THRESHOLD_OK))
    wrong["reports"][0]["certificate"]["per_group"]["H4"]["planes"] = 721
    assert checks.check(["threshold"], 0, json.dumps(wrong))
    wrong = json.loads(json.dumps(THRESHOLD_OK))
    wrong["reports"][0]["certificate"]["m0_total"] = 2100
    assert checks.check(["threshold"], 0, json.dumps(wrong))
    assert checks.check(["threshold"], 1, json.dumps(THRESHOLD_OK))

    h4 = ["arrangement", "compute", "H4", "--method", "isotropy"]
    assert checks.check(h4, 0, json.dumps(_arrangement_payload(checks.H4_DIMS))) == []
    bad = {**checks.H4_DIMS, 2: 721}
    assert checks.check(h4, 0, json.dumps(_arrangement_payload(bad)))
    assert checks.check(h4, 0, None)
    assert checks.check(h4, 0, "{not json")


def test_lemma_plane_exit_code_is_judged_by_the_report():
    def payload(hist, witnesses, holds=True):
        cert = {"histogram": {str(k): v for k, v in hist.items()}, "samples": 10,
                "seed": 7, "corrected_bound": {"holds": holds}}
        if witnesses:
            cert["witnesses"] = [{"met_indices": [0, 3]}]
        verdict = "fail" if witnesses else "pass"
        return json.dumps({"reports": [{"claim_id": "lemma-plane",
                                        "verdict": verdict, "certificate": cert}]})

    even = ["lemma-plane", "--m", "6", "--samples", "10", "--seed", "7"]
    assert checks.check(even, 1, payload({0: 9, 2: 1}, True)) == []
    assert checks.check(even, 0, payload({0: 10}, False)) == []
    assert checks.check(even, 1, payload({0: 10}, False))
    assert checks.check(even, 1, payload({0: 9, 2: 1}, True, holds=False))
    odd = ["lemma-plane", "--m", "5", "--samples", "10", "--seed", "7"]
    assert checks.check(odd, 1, payload({0: 9, 2: 1}, True))


def test_product_flats_match_the_classical_counts():
    assert checks.product_dims("A3xA1") == {3: 7, 2: 13, 1: 8, 0: 1}
    assert checks.product_dims("I2(7)xI2(8)") == {3: 15, 2: 58, 1: 15, 0: 1}
    for label, (planes, total) in checks.THRESHOLD_PER_GROUP.items():
        if label.startswith(("A3", "B3", "H3")):
            factors = label.replace("x1", "")
            dims = checks.product_dims(factors)
            if label.endswith("x1"):  # a trivial slot: flats of the factor alone
                dims = {d + 1: n for d, n in dims.items()}
            assert (dims[2], sum(dims.values())) == (planes, total), label


def test_sweep_inputs_come_from_the_seed():
    a = run.workload_commands("sweep", 3, 0)
    assert a == run.workload_commands("sweep", 3, 0)
    assert len(a) == 59
    assert a != run.workload_commands("sweep", 4, 0)
    assert sorted(a) == sorted(run.workload_commands("sweep", 3, 1))


def test_benchmark_json_names_the_metrics_the_harness_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(
        tracing.PER_LAYER_METRICS
    )
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".run", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / "perfbench" / ".run").exists()
