"""The mldlab benchmark workloads, and why each one exists.

mldlab delivers exact verdicts (a spectrum listing, "empty", "zero
counterexamples"), so the measured quantity is the time a caller waits for a
checked verdict.  Every workload is a closed loop: one caller runs a batch
job to completion, then the next one; there is no arrival rate.  Each
workload runs in its own process with at most two workers.

The benchmark drives mldlab from outside through its public entry points:
`mldlab.cli.main` in-process for the scan, library calls for the rest.

A workload provides
  build(mods, seed)          its inputs, made from the seed (part of setup_s):
                             a list of batches, one verdict's inputs each;
  workers()                  a context holding what jobs=2 passes need;
  run(mods, batch, jobs)     one verdict: the timed calls into mldlab;
  summary(output)            a JSON-able form of the output, used for digests;
  check(batch, output, ref, rng)
                             (label, ok) pairs, run outside the timed region.

What the seed varies.  It drives the transfer_lift instance sample (and the
order the instances run in) and the hyperquotient data of proof_suites.  It
does not vary the scan or the fixed suites: their outputs are fixed by their
parameters, and a seed-chosen size would move the amount of work, and with
it the time, from seed to seed.  So one reference digest covers the scan for
every seed; for scan_narrow the seed changes nothing but the label.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import multiprocessing
import random
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from types import SimpleNamespace

import oracle


@functools.cache
def load_mldlab() -> SimpleNamespace:
    """Import mldlab (numpy included); the first call is part of setup_s."""
    import numpy
    from mldlab import cli, hyperquot, quotient, regions, spectrum, verifiers
    return SimpleNamespace(cli=cli, hyperquot=hyperquot, quotient=quotient,
                           regions=regions, spectrum=spectrum, verifiers=verifiers,
                           numpy_version=numpy.__version__)


def digest(obj) -> str:
    if not isinstance(obj, str):
        obj = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(obj.encode()).hexdigest()


def _rat(q) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------- scan

class ScanNarrow:
    """The non-isolated accumulation scan over (5/6, 1), through `mldlab scan`
    with stdout captured in-process.

    Loads spectrum through the batch kernel: quotient.mld_argmin_batch
    evaluates every representative row for every k, and only a fraction of a
    percent of the rows land in the interval, so canonical_weights and the
    emit stage are barely touched.  This is the workload for the planned
    prune-then-canonicalize scan: pruning should move verdict_s here
    (quotient.batch_row_k, quotient.batch_s and spectrum.keep_ratio show it)
    and leave transfer_lift and proof_suites unchanged.  The jobs=2 pass runs
    spectrum.scan's own process pool.

    The output check is the SHA-256 of stdout against the digest recorded at
    the seed commit (reference.json); jobs=1 and jobs=2 must both match it.
    """

    name = "scan_narrow"
    argv = ["scan", "--dim", "3", "--rmax", "100", "--interval", "5/6,1", "--open-left"]

    def build(self, mods, seed):
        return [{"argv": list(self.argv)}]

    def workers(self):
        return contextlib.nullcontext()

    def run(self, mods, inputs, jobs):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = mods.cli.main(inputs["argv"] + ["--jobs", str(jobs)])
        return {"code": code, "stdout": buf.getvalue()}

    def items(self, output) -> int:
        return 0

    def bytes_out(self, output) -> int:
        return len(output["stdout"].encode())

    def summary(self, output):
        return {"code": output["code"], "stdout": digest(output["stdout"])}

    def check(self, inputs, output, ref, rng):
        mine = ref[self.name]
        yield "reference argv", mine["argv"] == inputs["argv"]
        yield "exit code 0", output["code"] == 0
        yield "stdout sha256", digest(output["stdout"]) == mine["sha256"]


# ----------------------------------------------------------- transfer lifts

TRANSFER_ITEMS = 1100
TRANSFER_BATCHES = 10
TRANSFER_K_MAX = 950
TRANSFER_ORACLE_ITEMS = 1  # per batch: the Fraction oracle is slow


def _lift_items(items):
    """Family construction, transfer_classify, lift_to_fivefold and an mld
    check for each (k, m, arrangement); returns outputs and per-item seconds."""
    mods = load_mldlab()
    results, latencies = [], []
    for k, m, arrangement in items:
        start = time.perf_counter()
        t, eps = mods.verifiers.transfer_family_instance(k, m, arrangement)
        rep = mods.verifiers.transfer_classify(t, eps)
        X = mods.verifiers.lift_to_fivefold(t, eps)
        value = mods.quotient.mld(X)
        latencies.append(time.perf_counter() - start)
        results.append((t, rep, X, value))
    return results, latencies


class TransferLift:
    """Criterion 9c's fivefold lifts as a batch job.

    Inputs: TRANSFER_ITEMS instances (k, m, arrangement) of
    transfer_family_instance, one k drawn from each of TRANSFER_ITEMS equal
    strata of [1, TRANSFER_K_MAX] (so every seed gets the same spread of
    sizes), m in {1, 5}, the arrangement and the run order drawn from the
    seed.  An item is family construction + transfer_classify +
    lift_to_fivefold + mld.  A verdict is one batch of TRANSFER_ITEMS /
    TRANSFER_BATCHES instances; the batches take every TRANSFER_BATCHES-th
    stratum, so each spans the whole k range and costs about the same.  A
    run covers every batch, so item_ms_p50 and item_ms_p99 come from all
    TRANSFER_ITEMS distinct instances.

    Loads the scalar Python loops over k in verifiers (transfer_classify,
    which lift_to_fivefold calls a second time) and quotient (scalar mld);
    never reaches spectrum, regions or the batch kernel.  The planned
    k-vectorized kernel should move verdict_s, item_ms_p50 and item_ms_p99
    here (quotient.mld_s, verifiers.classify_s, classify_per_item) and leave
    scan_narrow unchanged.

    mldlab has no pool on this path.  The jobs=2 pass splits the batch over
    two forked worker processes of the benchmark, started (with mldlab
    imported) before the timed region, the way a caller with two cores would
    keep them; verdict_s_jobs2 here is the baseline a future parallel_map
    over instances has to beat.  The workers are forked, as mldlab's own
    pools are: a spawn context would also start multiprocessing's resource
    tracker, a helper process that outlives the pool.
    """

    name = "transfer_lift"

    def __init__(self):
        self.pool = None

    def build(self, mods, seed):
        rng = random.Random(seed)
        n = TRANSFER_ITEMS
        items = []
        for i in range(n):
            k = 1 + (i * TRANSFER_K_MAX + rng.randrange(TRANSFER_K_MAX)) // n
            m = rng.choice((1, 5)) if k % 5 else 1
            items.append((k, m, rng.randrange(6)))
        batches = [items[b::TRANSFER_BATCHES] for b in range(TRANSFER_BATCHES)]
        # run order shuffled, so that the items of each size are spread over
        # the pass and the percentiles do not sample one stretch of it
        for batch in batches:
            rng.shuffle(batch)
        return batches

    @contextlib.contextmanager
    def workers(self):
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
            list(pool.map(time.sleep, [0.2, 0.2]))  # both workers up and loaded
            self.pool = pool
            try:
                yield
            finally:
                self.pool = None

    def run(self, mods, items, jobs):
        if jobs == 1:
            results, latencies = _lift_items(items)
            return {"results": results, "latencies": latencies}
        (even, _), (odd, _) = self.pool.map(_lift_items, [items[0::2], items[1::2]])
        results = [None] * len(items)
        results[0::2], results[1::2] = even, odd
        return {"results": results}

    def items(self, output) -> int:
        return len(output["results"])

    def bytes_out(self, output) -> int:
        return 0

    def summary(self, output):
        return [[t.r, list(t.a), t.e, rep.case_tag, list(rep.gamma), X.r,
                 list(X.weights), _rat(value)]
                for t, rep, X, value in output["results"]]

    def check(self, items, output, ref, rng):
        results = output["results"]
        yield "one result per instance", len(results) == len(items)
        for t, rep, X, value in results:
            k1 = min((k for k in rep.gamma if t.e * k % t.r != 0), default=None)
            ok = rep.case_tag == "case2" and k1 is not None and value == 1 + Fraction(k1, t.r)
            yield f"case 2 and mld = 1 + k1/r at r={t.r}", ok
        for i in rng.sample(range(len(items)), TRANSFER_ORACLE_ITEMS):
            (k, m, arrangement), (t, rep, X, value) = items[i], results[i]
            r, a, e = oracle.family_tuple(k, m, arrangement)
            gamma = oracle.transfer_gamma(r, a, e)
            k1 = min((j for j in gamma if e * j % r != 0), default=None)
            ok = ((t.r, t.a, t.e) == (r, a, e) and rep.gamma == gamma
                  and k1 is not None and X.r == r and X.weights == a + ((r - e) % r,)
                  and oracle.mld(r, X.weights) == value == 1 + Fraction(k1, r))
            yield f"Fraction oracle at k={k} m={m} arrangement={arrangement}", ok


# ------------------------------------------------------------- proof suites

EPS = Fraction(1, 100)
SGRID_NMAX = 120
CASE_KS = range(4, 9)
VL_STEPS = range(4, 11)
TERMINAL_RMAX = 30
FOURFOLD_RMAX = 40
FIVEFOLD_RMAX = 13
FIVEFOLD_CONDITIONS = ("4a", "4b", "4c")
HYPERQUOT_DATA = 16
HYPERQUOT_R = (60, 220)


class ProofSuites:
    """The acceptance-size suites whose verdicts the paper fixes.

    regions s-grid at n <= 120 (41/41 empty; criterion 4's n <= 100 grid is
    left out on purpose: its seven witnesses are a documented finding, not a
    failure to count), cases k = 4..8 (50/50 empty), vl-steps 4..10 (all
    equal), terminal r <= 30 and fourfold r <= 40 (0 counterexamples),
    fivefold r <= 13 under 4a, 4b and 4c (candidate counts and digests
    pinned at the seed commit), and a seeded batch of type-1a hyperquotient
    data through classify_type, identity5_check and psi_classify (checked
    against the Fraction oracle).

    Loads regions (constraint_refine), hyperquot, qarith (the congruence
    identity scanners) and the numpy shrinking-mask verifiers; touches the
    batch kernel only through fivefold_scan and never reaches spectrum or the
    CLI.  It is the "no change" control for scan and kernel work: verdict_s
    here should hold while scan_narrow or transfer_lift improve.  The jobs=2
    pass uses the pools of verify_s_grid, verify_cases and the three
    verifier scans; vl-steps and hyperquot run serially in both passes.
    """

    name = "proof_suites"

    def build(self, mods, seed):
        rng = random.Random(seed)
        H = mods.hyperquot
        lo, hi = HYPERQUOT_R
        data = []
        for i in range(HYPERQUOT_DATA):
            r = rng.randint(lo + (hi - lo) * i // HYPERQUOT_DATA,
                            lo + (hi - lo) * (i + 1) // HYPERQUOT_DATA)
            x = rng.choice([u for u in range(2, r - 1) if math.gcd(u, r) == 1])
            support = {(1, 1, 0, 0), (0, 0, r, 0)}
            support.add(rng.choice([(r, 0, 0, 0), (0, r, 0, 0), (2, 2, 0, 0)]))
            data.append(SimpleNamespace(x=x, datum=H.HyperquotientDatum(
                r, (x, r - x, 1, 0), 0, H.MonomialSupport(frozenset(support)))))
        return [{"hyperquot": data}]

    def workers(self):
        return contextlib.nullcontext()

    def run(self, mods, inputs, jobs):
        R, V, H = mods.regions, mods.verifiers, mods.hyperquot
        out = {
            "s_grid": R.verify_s_grid(SGRID_NMAX, jobs=jobs),
            "cases": list(R.verify_cases(CASE_KS, range(1, 11), jobs=jobs)),
            "vl_steps": [R.verify_vl_step(l) for l in VL_STEPS],
            "terminal": V.terminal_bruteforce(TERMINAL_RMAX, jobs=jobs),
            "fourfold": V.fourfold_gap_scan(FOURFOLD_RMAX, jobs=jobs),
            "fivefold": {c: V.fivefold_scan(FIVEFOLD_RMAX, EPS, c, jobs=jobs)
                         for c in FIVEFOLD_CONDITIONS},
        }
        hq = []
        for entry in inputs["hyperquot"]:
            d = entry.datum
            hq.append((H.classify_type(d.r, d.a, d.e),
                       H.identity5_check(d.r, d.a, d.e),
                       H.psi_classify(d, EPS)))
        out["hyperquot"] = hq
        return out

    def items(self, output) -> int:
        return 0

    def bytes_out(self, output) -> int:
        return 0

    @staticmethod
    def fivefold_summary(cands):
        return [[c.X.r, list(c.X.weights), _rat(c.mld)] for c in cands]

    def summary(self, output):
        def coords(ws):
            return [[_rat(c) for c in w.coords] for w in ws]
        return {
            "s_grid": output["s_grid"],
            "cases": [[k, cid, res.certificate()] for k, cid, res in output["cases"]],
            "vl_steps": output["vl_steps"],
            "terminal": [[t.r, list(t.a), t.e] for t in output["terminal"]],
            "fourfold": [[_rat(v) for v in tup] for tup in output["fourfold"]],
            "fivefold": {c: self.fivefold_summary(v) for c, v in output["fivefold"].items()},
            "hyperquot": [[list(tag), fails, coords(p.psi1), coords(p.psi2), len(p.rest)]
                          for tag, fails, p in output["hyperquot"]],
        }

    def check(self, inputs, output, ref, rng):
        sgrid = output["s_grid"]
        yield "s-grid n<=120: 41/41 empty", (
            len(sgrid) == 41 and all(e["verdict"] == "empty" for e in sgrid))
        cases = output["cases"]
        yield "cases k=4..8: 50/50 empty", (
            len(cases) == 50 and all(res.is_empty for _, _, res in cases))
        yield "vl-steps 4..10 all equal", output["vl_steps"] == [True] * len(VL_STEPS)
        yield "terminal: 0 counterexamples", output["terminal"] == []
        yield "fourfold: 0 counterexamples", output["fourfold"] == []
        pinned = ref["proof_suites"]["fivefold"]
        for c, cands in output["fivefold"].items():
            yield f"fivefold {c}: count pinned at seed", len(cands) == pinned[c]["count"]
            yield f"fivefold {c}: digest pinned at seed", (
                digest(self.fivefold_summary(cands)) == pinned[c]["sha256"])
        for entry, (tag, fails, part) in zip(inputs["hyperquot"], output["hyperquot"]):
            d = entry.datum
            yield f"type 1a a={entry.x} at r={d.r}", tag == ("1a", entry.x)
            yield f"identity holds at r={d.r}", fails == []
            yield from self._check_psi(d, part)

    @staticmethod
    def _check_psi(d, part):
        support = d.support.exponents
        lo = Fraction(5, 6) + EPS
        everything = list(part.psi1) + list(part.psi2) + list(part.rest)
        # a type-1a action has exactly 2(r-1) box weights: class j gives
        # (jx/r, 1 - jx/r, j/r, w4) with w4 in {0, 1}
        yield f"N0 has 2(r-1) weights at r={d.r}", (
            len({w.coords for w in everything}) == len(everything) == 2 * (d.r - 1))
        yield f"psi1 gaps in [5/6+eps, 1) at r={d.r}", all(
            w.primitive and lo <= oracle.gap(w.coords, support) < 1 for w in part.psi1)
        yield f"no primitive window weight left in rest at r={d.r}", not any(
            w.primitive and lo <= oracle.gap(w.coords, support) < 1 for w in part.rest)
        psi1 = {w.coords for w in part.psi1}
        yield f"psi2 are involution images of psi1 at r={d.r}", all(
            tuple(1 - c for c in w.coords) in psi1 for w in part.psi2)


WORKLOADS = {w.name: w for w in (ScanNarrow(), TransferLift(), ProofSuites())}
