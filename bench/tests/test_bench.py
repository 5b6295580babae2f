"""Tests of the benchmark itself: ``python3 -m pytest bench/tests`` from the
root of a checkout."""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


# -- the tail percentile rule -------------------------------------------------

@pytest.mark.parametrize("n", [20, 21, 39, 40, 41, 99, 100, 101, 199, 200,
                               999, 1000, 9999, 10000, 12345])
@pytest.mark.parametrize("cap", run.LADDER)
def test_tail_has_ten_samples_beyond(n, cap):
    rng = random.Random(n)
    samples = [rng.random() for _ in range(n)]
    t = run.tail(samples, cap)
    ordered = sorted(samples)
    assert t["samples"] == n
    assert t["value"] == ordered[n - t["beyond"] - 1]
    assert t["beyond"] >= run.MIN_BEYOND
    assert sum(1 for s in samples if s > t["value"]) == t["beyond"]
    higher = [p for p in run.LADDER if t["percentile"] < p <= cap]
    if higher:  # the next ladder percentile would leave fewer than ten beyond
        assert n - run.nearest_rank(higher[0], n) < run.MIN_BEYOND


def test_no_tail_below_twenty_samples():
    assert run.tail([float(i) for i in range(19)], 99.9) is None


def test_every_workload_has_samples_for_its_tail(tmp_path):
    for name in workloads.WORKLOADS:
        wl = run.make_workload(name, str(tmp_path))
        ops = len(wl.round(gen.shapes(name), gen.stream(name, 1, 0), 0)) * wl.rounds
        assert run.tail([float(i) for i in range(ops)],
                        wl.tail_percentile)["percentile"] == wl.tail_percentile


# -- the input generator ------------------------------------------------------

def _docs(seed, repeat=0):
    shape, rng = gen.shapes("test"), gen.stream("test", seed, repeat)
    out = []
    for sector in gen.SECTORS:
        out.append(gen.random_lambda(shape, rng, 2, sector, 3, anisotropic_top=True)[0])
        out.append(gen.random_vector(shape, rng, 3, sector, 8, 4))
        out.append(gen.random_state(shape, rng, 2, 5, 3))
        out.append(gen.isotropic_lambda(rng, sector))
        out.append(gen.zeta_doc(sector, 2, gen.exact_zeta(rng, sector, 2)))
        out.append(gen.dense_vector(shape, rng, 2, sector, 3, 4))
    return json.dumps(out)


def test_generator_is_deterministic_per_seed():
    assert _docs(7) == _docs(7)
    assert _docs(7) != _docs(8)
    assert _docs(7, 1) == _docs(7, 1)
    assert _docs(7, 1) != _docs(7)  # each pass of a run draws fresh values


def test_seeds_and_passes_change_values_not_shapes():
    def shape_of(docs):
        return [[t["monomial"] for t in d["terms"]] if "terms" in d else
                [[c == ["0", "0"] for c in row] for row in d.get("entries", [])]
                for d in docs]

    assert shape_of(json.loads(_docs(7))) == shape_of(json.loads(_docs(8)))
    assert shape_of(json.loads(_docs(7))) == shape_of(json.loads(_docs(7, 1)))


def test_generator_does_not_import_the_package():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gen; "
            "assert not [m for m in sys.modules if m.startswith('heisenfock')]")
    subprocess.run([sys.executable, "-c", code, BENCH], check=True, timeout=60)


def test_type_closed_form_matches_the_package():
    import heisenfock as hf
    from heisenfock import serialize
    shape, rng = gen.shapes("type"), gen.stream("type", 1, 0)
    for _ in range(40):
        sector = gen.SECTORS[shape.randint(0, 1)]
        doc, rows = gen.random_lambda(shape, rng, shape.randint(1, 3), sector, 3,
                                      anisotropic_top=True)
        wt = hf.whittaker_type_of(serialize.lambda_from_json(doc))
        r, zeta = gen.type_of(sector, rows)
        assert wt.r == r
        assert [str(z) for z in wt.zeta] == [gen.scalar_text(z) for z in zeta]


@pytest.mark.parametrize("name", ["oscillator", "vertex", "certify"])
def test_same_seed_same_outputs(name):
    def digest(seed, repeat=0):
        wl = workloads.WORKLOADS[name]()
        p = run.Pass()
        p.run(wl.round(gen.shapes(name), gen.stream(name, seed, repeat), 0),
              keep=True)
        assert not p.failures
        return p.digest()

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)
    assert digest(3, 1) != digest(3)


def test_passes_share_no_input(monkeypatch):
    """A later pass never hands the package an input object or value of an
    earlier pass, so a cache across calls cannot read as a speed-up."""
    import heisenfock as hf
    seen = []
    right = hf.commutator_check

    def spy(i, j, m, n, f, lam):
        seen.append((f, lam))
        return right(i, j, m, n, f, lam)

    monkeypatch.setattr(hf, "commutator_check", spy)
    wl = workloads.Oscillator()
    wl.rounds = 1
    run.Pass().run(run.operations(wl, 3, 0), keep=False)
    first, seen[:] = list(seen), []
    run.Pass().run(run.operations(wl, 3, 1), keep=False)
    assert len(seen) == len(first)
    ids = {id(x) for pair in first for x in pair}
    assert not any(id(x) in ids for pair in seen for x in pair)
    values = {json.dumps(workloads._serialize().fock_to_json(f)) for f, _ in first}
    assert not any(json.dumps(workloads._serialize().fock_to_json(f)) in values
                   for f, _ in seen)


def test_passes_run_the_same_operations_in_order():
    wl = workloads.Oscillator()
    wl.rounds = 1
    first, again = run.Pass(reference=True), run.Pass(reference=True)
    first.run(run.operations(wl, 3, 0), keep=False)
    again.run(run.operations(wl, 3, 1), keep=False)
    assert first.kinds == again.kinds
    assert first.refs and again.refs
    assert not run.Pass().refs  # no reference, no samples


def test_reference_loop_takes_time():
    assert 0 < run.reference_loop() < 1


def _pass(latency, ref):
    p = run.Pass(reference=True)
    p.kinds = ["op"] * len(latency)
    p.attempted = len(latency)
    p.latency.extend(latency)
    p.refs.extend([ref] * 3)
    p.ref_at.extend([1] * len(latency))
    return p


def test_per_operation_is_the_median_of_scaled_times():
    r = run.REF_S
    passes = [_pass([1.0, 4.0], r), _pass([4.0, 6.0], 2 * r),
              _pass([9.0], 3 * r)]  # a last pass cut short after one operation
    assert run.per_operation(passes, "latency", True) == [2.0, 3.5]
    assert run.per_operation(passes, "latency", False) == [4.0, 5.0]


def test_each_operation_takes_the_speed_of_the_samples_around_it():
    r = run.REF_S
    p = run.Pass(reference=True)
    p.refs.extend([r, r, r, 3 * r, 3 * r, 3 * r])
    p.ref_at.extend([0, 1, 2, 3, 5])
    # windows: samples 0-2, 0-3, 1-4, 2-5, 4-5
    assert p.speeds() == [1.0, 1.0, 2.0, 3.0, 3.0]


def test_scaling_cancels_a_uniformly_slower_machine():
    r = run.REF_S
    fast = [_pass([1.0, 2.0, 3.0], r), _pass([1.5, 2.5, 3.5], r)]
    slow = [_pass([1.3, 2.6, 3.9], 1.3 * r), _pass([2.25, 3.75, 5.25], 1.5 * r)]
    assert run.per_operation(slow, "latency", True) == pytest.approx(
        run.per_operation(fast, "latency", True))


# -- failures are counted -----------------------------------------------------

def _one_round(name, seed=1):
    wl = workloads.WORKLOADS[name]()
    p = run.Pass()
    p.run(wl.round(gen.shapes(name), gen.stream(name, seed, 0), 0), keep=False)
    return p


def test_planted_wrong_closed_form_is_a_failure(monkeypatch):
    import heisenfock as hf
    right = hf.quadratic_act

    def wrong(lam, q, f):
        return right(lam, q, f) + hf.FockVector.constant(1, f.rank, f.sector)

    assert not _one_round("oscillator").failures
    monkeypatch.setattr(hf, "quadratic_act", wrong)
    p = _one_round("oscillator")
    assert len(p.failures) == p.attempted // 2  # every quadratic check
    assert all("(quadratic)" in why for why in p.failures)


def test_planted_wrong_virasoro_mode_is_a_failure(monkeypatch):
    import heisenfock as hf
    right = hf.twisted_virasoro_mode
    monkeypatch.setattr(hf, "twisted_virasoro_mode",
                        lambda n, f, lam: right(n, f, lam).scaled(2))
    p = _one_round("vertex")
    assert p.failures and all("(bracket)" in why for why in p.failures)


def test_planted_short_certificate_is_a_failure(monkeypatch):
    import heisenfock as hf
    right = hf.certify_cyclic

    def short(lam, f):
        cert = right(lam, f)
        return type(cert)(cert.initial, cert.steps[:-1], cert.terminal)

    assert not _one_round("certify").failures
    monkeypatch.setattr(hf, "certify_cyclic", short)
    p = _one_round("certify")
    assert len(p.failures) == p.attempted
    assert all("replay invalid" in why for why in p.failures)


def test_dense_vector_terms_never_cancel():
    def monomials(seed):
        doc = gen.dense_vector(gen.shapes("test"), gen.stream("test", seed, 0),
                               2, gen.TWISTED, 3, 4)
        return [t["monomial"] for t in doc["terms"]]

    first = monomials(0)
    assert len(first) == 35  # every monomial of degree <= 3 in 4 variables
    assert all(monomials(seed) == first for seed in range(1, 30))


def test_exception_is_a_failure_not_a_crash(monkeypatch):
    import heisenfock as hf

    def boom(*args):
        raise RuntimeError("planted")

    monkeypatch.setattr(hf, "verify_whittaker_vector", boom)
    p = _one_round("vertex")
    assert p.failures == [f for f in p.failures if "RuntimeError: planted" in f]
    assert len(p.failures) == 1  # the round's one spectrum report


def test_wrong_exit_code_is_a_failure(tmp_path):
    cli = workloads.Cli(ROOT, str(tmp_path))
    assert cli._request(["cmn", "--order", "2"], 0).ok
    wrong = cli._request(["cmn", "--order", "2"], 3)
    assert not wrong.ok and "exit 0, expected 3" in wrong.why


# -- the traced run -----------------------------------------------------------

TRACED = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import probe, run, workloads
probe.WARMUPS[sys.argv[3]]()
wl = workloads.WORKLOADS[sys.argv[3]]()
wl.rounds = 1
res = run.traced_run(wl, 5, sys.argv[4])
print(json.dumps({"metrics": res["metrics"], "failures": res["failures"]}))
"""


@pytest.mark.parametrize("name", ["oscillator", "vertex", "certify"])
def test_traced_counts_repeat_exactly(name, tmp_path):
    def traced():
        proc = subprocess.run([sys.executable, "-c", TRACED, BENCH,
                               os.path.join(ROOT, "src"), name, str(tmp_path)],
                              cwd=ROOT,
                              capture_output=True, text=True, timeout=300,
                              check=True)
        return json.loads(proc.stdout.splitlines()[-1])

    first, second = traced(), traced()
    assert not first["failures"] and not second["failures"]
    exact = {k: v for k, v in first["metrics"].items()
             if not k.endswith("_s")}
    assert exact == {k: second["metrics"][k] for k in exact}
    assert exact["heisenberg.act_mode2.calls"] > 0
    assert exact["scalars.mul.calls"] > 0


def test_tracer_restores_the_package():
    import heisenfock as hf
    from heisenfock import vertex
    import tracer
    before = (vertex.act_mode2, hf.FockVector.__add__, hf.Scalar.__mul__)
    tr = tracer.Tracer()
    tr.install()
    assert vertex.act_mode2 is not before[0]
    tr.uninstall()
    assert (vertex.act_mode2, hf.FockVector.__add__, hf.Scalar.__mul__) == before


# -- the run as a whole -------------------------------------------------------

def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "oscillator", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
