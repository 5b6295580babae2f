"""The four benchmark workloads.

A workload turns its shape stream (``gen.shapes``) and a value stream
(``gen.stream``) into ``rounds`` rounds of operations.  Every round has the
same mix of operation kinds, so runs with different seeds measure the same
mix; the seed varies only the values.  The runner generates the rounds
(untimed) afresh for every pass, with the values of that pass, then runs and
times the operations one at a time, in a single thread.  Each operation
checks its own result by two independent routes and reports ``ok``; a false
identity, an invalid replay, a wrong exit code, an exception or a failed
cross-check is a failed operation.

Package functions are looked up on their module at call time (``hf.name``),
never bound at import, so the tracer's wrappers are the ones called in the
traced run.

=============  ================================================  ============
workload       one operation                                     build/replay
=============  ================================================  ============
oscillator     commutator check, or closed form vs composition   closed form /
               of a quadratic element                            composition
vertex         Virasoro bracket, Heisenberg-mode commutator of   closed form /
               a weight-3..5 state mode, or a spectrum report    composition
certify        a dense vector's certificate built, round-tripped certify_cyclic /
               through JSON and replayed                         verify_certificate
cli            one ``python -m heisenfock`` request              on generated
                                                                 input / on an
                                                                 earlier output
=============  ================================================  ============
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from random import Random
from typing import Callable, List, Optional

import gen

clock = time.perf_counter


class Outcome:
    """What one operation returns: its check, its canonical output and the
    optional times of its two routes."""

    __slots__ = ("ok", "canonical", "build_s", "replay_s", "nbytes", "why",
                 "child")

    def __init__(self, ok: bool, canonical: Callable[[], str],
                 build_s: Optional[float] = None,
                 replay_s: Optional[float] = None, nbytes: int = 0,
                 why: str = "", child: Optional[dict] = None):
        self.ok = ok
        self.canonical = canonical  # called after timing, outside the trace
        self.build_s = build_s
        self.replay_s = replay_s
        self.nbytes = nbytes  # JSON bytes produced, for serialize.bytes
        self.why = why
        self.child = child  # a traced CLI child's trace document


class Op:
    __slots__ = ("kind", "run")

    def __init__(self, kind: str, run: Callable[[], Outcome]):
        self.kind = kind
        self.run = run


def _hf():
    import heisenfock
    return heisenfock


def _serialize():
    from heisenfock import serialize
    return serialize


def vector_text(v) -> str:
    return json.dumps(_serialize().fock_to_json(v), sort_keys=True)


def binomial(top: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for s in range(k):
        out = out * (top - s) / (s + 1)
    return out


def mode_value(rng: Random, sector: str, bound: int,
               positive: bool = False) -> Fraction:
    """A mode of the sector with |mode| <= bound (positive: 0 < mode)."""
    if sector == gen.UNTWISTED:
        return Fraction(rng.randint(1 if positive else -bound, bound))
    low = 0 if positive else -bound
    return Fraction(2 * rng.randint(low, bound - 1) + 1, 2)


# -- oscillator ---------------------------------------------------------------

class Oscillator:
    """Many small checks in ``scalars``/``fock``/``heisenberg``; never enters
    ``vertex``, so it is the no-change side of any vertex-engine change."""

    name = "oscillator"
    tail_percentile = 99
    rounds = 50
    CHECKS = 8  # of each kind per (lambda, vector) pair

    def round(self, shape: Random, rng: Random, index: int) -> List[Op]:
        ser = _serialize()
        ops = []
        for rank in (1, 2, 3):
            for sector in gen.SECTORS:
                lam = ser.lambda_from_json(
                    gen.random_lambda(shape, rng, rank, sector, 3)[0])
                f = ser.fock_from_json(
                    gen.random_vector(shape, rng, rank, sector, 8, 4))
                for _ in range(self.CHECKS):
                    i, j = shape.randint(1, rank), shape.randint(1, rank)
                    m, n = mode_value(shape, sector, 5), mode_value(shape, sector, 5)
                    ops.append(Op("commutator",
                                  lambda i=i, j=j, m=m, n=n, f=f, lam=lam:
                                  self.commutator(i, j, m, n, f, lam)))
                for _ in range(self.CHECKS):
                    i, j = shape.randint(1, rank), shape.randint(1, rank)
                    m = mode_value(shape, sector, 5, positive=True)
                    n = mode_value(shape, sector, 5, positive=True)
                    ops.append(Op("quadratic",
                                  lambda i=i, j=j, m=m, n=n, f=f, lam=lam:
                                  self.quadratic(i, j, m, n, f, lam)))
        return ops

    @staticmethod
    def commutator(i, j, m, n, f, lam) -> Outcome:
        ok = _hf().commutator_check(i, j, m, n, f, lam)
        return Outcome(ok, lambda: f"commutator {i} {j} {m} {n} {ok}")

    @staticmethod
    def quadratic(i, j, m, n, f, lam) -> Outcome:
        hf = _hf()
        q = hf.QuadraticElement.build(lam, i, j, m, n)
        t0 = clock()
        closed = hf.quadratic_act(lam, q, f)
        t1 = clock()
        composed = (hf.act_mode(lam, i, m, hf.act_mode(lam, j, n, f))
                    - f.scaled(q.shift))
        t2 = clock()
        return Outcome(closed == composed, lambda: vector_text(closed),
                       build_s=t1 - t0, replay_s=t2 - t1)


# -- vertex -------------------------------------------------------------------

class Vertex:
    """Virasoro brackets, Heisenberg commutators of state modes and spectrum
    reports: the blind tuple enumeration and, in the twisted sector, the
    ``delta_z_apply(omega)`` recomputed on every call."""

    name = "vertex"
    tail_percentile = 95
    rounds = 24
    # (sector, factors per state monomial) of the round's mode checks
    MODES = ((gen.UNTWISTED, 2), (gen.UNTWISTED, 3), (gen.TWISTED, 2),
             (gen.TWISTED, 3))

    def round(self, shape: Random, rng: Random, index: int) -> List[Op]:
        ser = _serialize()
        ops = []
        for sector in (gen.UNTWISTED, gen.UNTWISTED, gen.TWISTED, gen.TWISTED):
            rank = shape.randint(1, 2)
            lam = ser.lambda_from_json(
                gen.random_lambda(shape, rng, rank, sector, 2)[0])
            f = ser.fock_from_json(gen.random_vector(shape, rng, rank, sector, 5, 3))
            m, n = shape.randint(-4, 4), shape.randint(-4, 4)
            ops.append(Op("bracket", lambda m=m, n=n, f=f, lam=lam:
                          self.bracket(m, n, f, lam)))
        sector = gen.SECTORS[shape.randint(0, 1)]
        doc, _ = gen.random_lambda(shape, rng, shape.randint(1, 3), sector, 2,
                                   anisotropic_top=True)
        lam = ser.lambda_from_json(doc)
        eps = 1 if sector == gen.UNTWISTED else 0
        bound = 2 * lam.support_bound + eps + 3
        ops.append(Op("spectrum", lambda lam=lam, bound=bound:
                      self.spectrum(lam, bound)))
        for sector, count in self.MODES:
            rank = shape.randint(1, 2)
            lam = ser.lambda_from_json(
                gen.random_lambda(shape, rng, rank, sector, 2)[0])
            f = ser.fock_from_json(gen.random_vector(shape, rng, rank, sector, 3, 3))
            weight = shape.randint(3, 5)
            u = ser.fock_from_json(gen.random_state(shape, rng, rank, weight, count))
            i = shape.randint(1, rank)
            m = mode_value(shape, sector, 3)
            k = Fraction(shape.randint(-2, weight + 1))
            if sector == gen.TWISTED and count % 2:
                k += Fraction(1, 2)
            ops.append(Op("mode", lambda u=u, i=i, m=m, k=k, f=f, lam=lam,
                          weight=weight: self.mode(u, weight, i, m, k, f, lam)))
        return ops

    @staticmethod
    def bracket(m, n, f, lam) -> Outcome:
        """[L_m, L_n] f = (m-n) L_{m+n} f + (m^3-m)/12 delta(m+n) rank f."""
        hf = _hf()
        ell = (hf.virasoro_mode if lam.sector is hf.Sector.UNTWISTED
               else hf.twisted_virasoro_mode)
        t0 = clock()
        closed = ell(m + n, f, lam).scaled(m - n)
        if m + n == 0:
            closed = closed + f.scaled_fraction(Fraction(m ** 3 - m, 12) * f.rank)
        t1 = clock()
        composed = ell(m, ell(n, f, lam), lam) - ell(n, ell(m, f, lam), lam)
        t2 = clock()
        return Outcome(closed == composed, lambda: vector_text(composed),
                       build_s=t1 - t0, replay_s=t2 - t1)

    @staticmethod
    def mode(u, weight, i, m, k, f, lam) -> Outcome:
        """[h_i(m), u_k] f = sum_{j>=1} binom(m, j) (j d/dx[i,j] u)_{m+k-j} f."""
        hf = _hf()
        apply = (hf.mode_apply if lam.sector is hf.Sector.UNTWISTED
                 else hf.twisted_mode_apply)
        t0 = clock()
        closed = hf.FockVector.zero(f.rank, f.sector)
        for j in range(1, weight + 1):
            du = hf.weighted_partial(i, j, u)
            c = binomial(m, j)
            if du and c:
                closed = closed + apply(du, k + m - j, f, lam).scaled_fraction(c)
        t1 = clock()
        composed = (hf.act_mode(lam, i, m, apply(u, k, f, lam))
                    - apply(u, k, hf.act_mode(lam, i, m, f), lam))
        t2 = clock()
        return Outcome(closed == composed, lambda: vector_text(composed),
                       build_s=t1 - t0, replay_s=t2 - t1)

    @staticmethod
    def spectrum(lam, bound) -> Outcome:
        report = _hf().verify_whittaker_vector(lam, bound)
        return Outcome(report.all_ok and report.valid_type,
                       lambda: json.dumps(_serialize().report_to_json(report),
                                          sort_keys=True))


# -- certify ------------------------------------------------------------------

class Certify:
    """A few large, dense vectors: certificate built, sent through JSON and
    replayed.  The same ``scalars``/``fock``/``heisenberg`` layers as
    ``oscillator``, on big vectors with big coefficients."""

    name = "certify"
    tail_percentile = 75  # 40 operations leave ten beyond p75
    rounds = 10
    # (linear forms, variables per form) of the round's vectors
    SIZES = ((4, 5), (5, 5), (6, 5), (5, 6))

    def round(self, shape: Random, rng: Random, index: int) -> List[Op]:
        ser = _serialize()
        ops = []
        for factors, width in self.SIZES:
            sector = gen.SECTORS[shape.randint(0, 1)]
            rank = shape.randint(2, 3)
            lam = ser.lambda_from_json(
                gen.random_lambda(shape, rng, rank, sector, 2)[0])
            f = ser.fock_from_json(
                gen.dense_vector(shape, rng, rank, sector, factors, width))
            ops.append(Op("certify", lambda f=f, lam=lam: self.certify(f, lam)))
        return ops

    @staticmethod
    def certify(f, lam) -> Outcome:
        """Build by the closed form, replay the decoded certificate by the
        composition: the replay must be valid on the original vector."""
        hf, ser = _hf(), _serialize()
        t0 = clock()
        cert = hf.certify_cyclic(lam, f)
        t1 = clock()
        text = json.dumps(ser.certificate_to_json(lam, cert), sort_keys=True)
        lam2, cert2 = ser.certificate_from_json(json.loads(text))
        t2 = clock()
        ok = cert2.initial == f and hf.verify_certificate(lam2, cert2.initial, cert2)
        t3 = clock()
        return Outcome(ok, lambda: text, build_s=t1 - t0, replay_s=t3 - t2,
                       nbytes=len(text), why="" if ok else "replay invalid")


# -- cli ----------------------------------------------------------------------

class Cli:
    """A closed loop with one client: one ``python -m heisenfock`` process
    per request, so every request pays start, import and cold caches."""

    name = "cli"
    tail_percentile = 75  # 48 requests leave twelve beyond p75
    rounds = 4

    def __init__(self, root: str, workdir: str):
        self.root = root
        self.workdir = workdir
        self.traced = False
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    # -- plumbing -------------------------------------------------------------

    def _file(self, tag: str, doc) -> str:
        path = os.path.join(self.workdir, tag)
        with open(path, "w", encoding="utf-8") as handle:
            if isinstance(doc, str):
                handle.write(doc)
            else:
                json.dump(doc, handle)
        return path

    def _request(self, argv: List[str], expect: int, check=None,
                 replay: bool = False) -> Outcome:
        """One request; ``replay`` marks one that reads back an earlier
        request's output, the others run on generated input."""
        out_path = os.path.join(self.workdir, "trace.json")
        if self.traced:
            cmd = [sys.executable, os.path.join(self.root, "bench", "probe.py"),
                   "cli", out_path] + argv
        else:
            cmd = [sys.executable, "-m", "heisenfock"] + argv
        spawn = time.monotonic()
        t0 = clock()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        elapsed = clock() - t0
        child = None
        if self.traced and os.path.exists(out_path):
            with open(out_path, encoding="utf-8") as handle:
                child = json.load(handle)
            os.remove(out_path)
            child["spawn_s"] = child["start"] - spawn
        why = ""
        if proc.returncode != expect:
            why = f"exit {proc.returncode}, expected {expect}: {proc.stderr[-200:]}"
        elif check is not None:
            try:
                why = check(proc.stdout) or ""
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                why = f"unreadable output: {exc!r}"
        stdout = proc.stdout
        return Outcome(not why, lambda: f"{proc.returncode}\n{stdout}",
                       build_s=None if replay else elapsed,
                       replay_s=elapsed if replay else None,
                       nbytes=len(stdout.encode()), why=why, child=child)

    # -- one round of requests ------------------------------------------------

    def round(self, shape: Random, rng: Random, index: int) -> List[Op]:
        tag = f"r{index}"
        state = {}
        ops = []

        def add(kind, fn):
            ops.append(Op(kind, fn))

        # type: closed form of the benchmark's own against the program's
        sector = gen.SECTORS[shape.randint(0, 1)]
        lam_doc, rows = gen.random_lambda(shape, rng, shape.randint(1, 3), sector,
                                          3, anisotropic_top=True)
        want = [gen.scalar_text(z) for z in gen.type_of(sector, rows)[1]]
        lam_path = self._file(f"{tag}_lam.json", lam_doc)
        add("type", lambda: self._request(
            ["type", "--lambda", lam_path], 0,
            lambda out: None if json.loads(out)["zeta"] == want
            else f"zeta {json.loads(out)['zeta']} != {want}"))

        iso_path = self._file(f"{tag}_iso.json", gen.isotropic_lambda(rng, sector))
        add("type-isotropic", lambda: self._request(
            ["type", "--lambda", iso_path], 2))

        # exact fiber, then type on its lambda must give the zeta back
        fsector = gen.SECTORS[shape.randint(0, 1)]
        r = shape.randint(1, 2)
        zeta = gen.exact_zeta(rng, fsector, r)
        zeta_text = [gen.scalar_text(z) for z in zeta]
        zeta_path = self._file(f"{tag}_zeta.json", gen.zeta_doc(fsector, r, zeta))
        frank = shape.randint(1, 3)

        def keep_fiber(out):
            doc = json.loads(out)
            point = doc["points"][0] if "points" in doc else doc
            state["fiber_lam"] = self._file(f"{tag}_fiber_lam.json", point["lambda"])
            return None

        add("fiber-exact", lambda: self._request(
            ["fiber", "--zeta", zeta_path, "--l", str(frank), "--exact"], 0,
            keep_fiber))
        add("type-fiber", lambda: self._request(
            ["type", "--lambda", state["fiber_lam"]], 0,
            lambda out: None if json.loads(out)["zeta"] == zeta_text
            else "type of the exact fiber point is not the requested zeta",
            replay=True))

        # numeric fiber: residual within the documented tolerance
        nsector = gen.SECTORS[shape.randint(0, 1)]
        nr = shape.randint(1, 2)
        nzeta = [gen.gaussian(rng) for _ in range(nr + (nsector == gen.UNTWISTED) - 1)]
        nzeta.append(gen.nonzero_gaussian(rng))
        nzeta_path = self._file(f"{tag}_nzeta.json", gen.zeta_doc(nsector, nr, nzeta))
        nrank = shape.randint(1, 3)
        add("fiber-numeric", lambda: self._request(
            ["fiber", "--zeta", nzeta_path, "--l", str(nrank)], 0,
            lambda out: None if all(p["residual"] <= 1e-10 for p in
                                    json.loads(out).get("points", [json.loads(out)]))
            else "numeric residual above 1e-10"))

        # verify: the spectrum report passes on proper anisotropic data
        vsector = gen.SECTORS[shape.randint(0, 1)]
        vdoc, vrows = gen.random_lambda(shape, rng, shape.randint(1, 2), vsector,
                                        2, anisotropic_top=True)
        vr = gen.type_of(vsector, vrows)[0]
        vbound = 2 * vr + (vsector == gen.UNTWISTED) + 2
        vlam_path = self._file(f"{tag}_vlam.json", vdoc)
        add("verify", lambda: self._request(
            ["verify", "--lambda", vlam_path, "--bound", str(vbound)], 0,
            lambda out: None if json.loads(out)["all_pass"] else "report fails"))

        # certify, then certify --check must accept its output
        csector = gen.SECTORS[shape.randint(0, 1)]
        crank = shape.randint(1, 3)
        clam_path = self._file(f"{tag}_clam.json",
                               gen.random_lambda(shape, rng, crank, csector, 3)[0])
        vec_path = self._file(f"{tag}_vec.json",
                              gen.random_vector(shape, rng, crank, csector, 8, 4))

        def keep_cert(out):
            state["cert"] = self._file(f"{tag}_cert.json", out)
            return None

        add("certify", lambda: self._request(
            ["certify", "--lambda", clam_path, "--vector", vec_path], 0,
            keep_cert))
        add("certify-check", lambda: self._request(
            ["certify", "--check", state["cert"]], 0,
            lambda out: None if json.loads(out)["valid"] else "replay invalid",
            replay=True))

        order = shape.randint(8, 16)
        add("cmn", lambda: self._request(
            ["cmn", "--order", str(order)], 0,
            lambda out: None if _cmn_ok(json.loads(out), order)
            else "cmn table is not symmetric or misses c[1,0] = -1/4"))

        # dump twice: canonical output is a fixed point
        kind = ("lambda", "vector", "zeta", "certificate")[shape.randint(0, 3)]

        def dump_input():
            return {"lambda": clam_path, "vector": vec_path, "zeta": zeta_path,
                    "certificate": state.get("cert")}[kind]

        def keep_dump(out):
            state["dump"] = self._file(f"{tag}_dump.json", out)
            state["dump_text"] = out
            return None

        add("dump", lambda: self._request(
            ["dump", "--kind", kind, "--input", dump_input()], 0, keep_dump))
        add("dump-again", lambda: self._request(
            ["dump", "--kind", kind, "--input", state["dump"]], 0,
            lambda out: None if out == state["dump_text"] else "dump not idempotent",
            replay=True))

        rseed = shape.randint(0, 10 ** 6)
        add("relations", lambda: self._request(
            ["relations", "--l", "1", "--bound", "2", "--seed", str(rseed),
             "--trials", "2"], 0,
            lambda out: None if json.loads(out)["all_pass"] else "relations fail"))
        return ops


def _cmn_ok(doc, order) -> bool:
    values = doc["values"]
    return (doc["order"] == order and values[1][0] == "-1/4"
            and all(values[m][n] == values[n][m]
                    for m in range(order + 1) for n in range(order + 1)))


WORKLOADS = {w.name: w for w in (Oscillator, Vertex, Certify, Cli)}
