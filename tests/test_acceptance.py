"""Acceptance suite.

One test per criterion, run at the stated sizes and tolerances (all
comparisons exact).  Each prints a single [acceptance] PASS/FAIL line; run
with `pytest -s tests/test_acceptance.py` to see them.

Criterion 4 is expected to FAIL, and the failure is a genuine finding: the
41-interval grid contains seven intervals whose constraint systems at
n <= 100 are satisfiable; all of them verify empty once n <= 120 is
allowed.  See the failure message for the full analysis.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from mldlab import regions, spectrum, verifiers
from mldlab.cli import main as cli_main
from mldlab.quotient import CyclicQuotient, mld
from mldlab.spectrum import ScanConfig, canonical_weights

JOBS = 2


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def report(number, ok, detail):
    print(f"\n[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


# -------------------------------------------------- shared heavy scans

@pytest.fixture(scope="module")
def scan300():
    """Records of the full (non-isolated) scan, r <= 300, mld in (5/6, 1),
    via the CLI with jobs=1 and jobs=2; parsed from the jobs=1 output."""
    argv = ["scan", "--rmax", "300", "--interval", "5/6,1", "--open-left"]
    t0 = time.time()
    code1, out1 = run_cli(argv + ["--jobs", "1"])
    t1 = time.time() - t0
    t0 = time.time()
    code2, out2 = run_cli(argv + ["--jobs", str(JOBS)])
    t2 = time.time() - t0
    assert code1 == code2 == 0
    records = [json.loads(line) for line in out1.splitlines()
               if line and not line.startswith("#")]
    return {"out1": out1, "out2": out2, "records": records,
            "elapsed": (t1, t2)}


# -------------------------------------------------- criteria

def test_criterion_1_family_reproduction():
    t0 = time.time()
    for k in range(1, 101):
        for m in range(1, 6):
            X, expected = spectrum.family_example(k, m)
            assert mld(X) == expected == Fraction(5 * k + m, 6 * k + m)
    elapsed = time.time() - t0
    ok = elapsed < 10
    report(1, ok, f"500 family members reproduced exactly in {elapsed:.1f}s")
    assert ok


def test_criterion_2_extremal_gap_at_desk_scale():
    t0 = time.time()
    closed = ScanConfig(dim=3, r_max=200, lo=Fraction(12, 13), hi=Fraction(1),
                        include_lo=True, isolated_only=True, jobs=JOBS)
    records = list(spectrum.scan(closed))
    elapsed = time.time() - t0
    inside = [rec for rec in records if rec.mld > Fraction(12, 13)]
    extremal = [rec for rec in records if rec.mld == Fraction(12, 13)]
    assert inside == []
    assert [(rec.r, rec.weights) for rec in extremal] == [(13, (1, 4, 11))]
    assert extremal[0].weights == canonical_weights(13, (3, 4, 5))
    ok = elapsed < 600
    report(2, ok, f"isolated r<=200: nothing in (12/13, 1); 12/13 attained "
                  f"only by the class of 1/13(3,4,5); {elapsed:.1f}s")
    assert ok


def test_criterion_3_accumulation_evidence(scan300):
    records = scan300["records"]
    values300 = {Fraction(rec["mld"]) for rec in records}
    values150 = {Fraction(rec["mld"]) for rec in records if rec["r"] <= 150}
    values60 = {Fraction(rec["mld"]) for rec in records if rec["r"] <= 60}
    assert len(values300) > len(values150)
    assert values60 and values300
    gap300 = min(values300) - Fraction(5, 6)
    gap60 = min(values60) - Fraction(5, 6)
    assert gap300 > 0 and gap60 > 0 and gap300 < gap60
    elapsed = max(scan300["elapsed"])
    ok = elapsed < 900
    report(3, ok, f"distinct values in (5/6,1): {len(values150)} at r<=150 vs "
                  f"{len(values300)} at r<=300; nearest value gap shrinks "
                  f"{gap60} -> {gap300}; slowest scan {elapsed:.0f}s")
    assert ok


def test_criterion_4_region_suite_A_sgrid():
    t0 = time.time()
    code, out = run_cli(["regions", "s-grid", "--nmax", "100", "--jobs", str(JOBS)])
    elapsed = time.time() - t0
    doc = json.loads(out)
    payload = doc["payload"]
    assert payload["total"] == 41  # two head intervals plus the 39 grid refinements
    witnesses = [e for e in payload["intervals"] if e["verdict"] != "empty"]
    for entry in payload["intervals"]:
        assert entry["constraints"], "certificates were emitted"
    ok = not witnesses and code == 0 and elapsed < 300
    detail = (f"{payload['empty']}/{payload['total']} intervals empty at "
              f"n<=100 in {elapsed:.1f}s")
    if witnesses:
        names = ", ".join("({},{})".format(*e["interval"]) for e in witnesses)
        detail += (f"; WITNESSED: {names}. All seven verify empty at n<=120, "
                   f"within the n <= 60k+100 reach of the underlying claim "
                   f"(these intervals force k = 3), so the mathematics stands; "
                   f"an n<=100 cap is simply too small for the l=3 grid row.")
    report(4, ok, detail)
    assert ok, detail


def test_criterion_5_region_suite_B_vl_steps():
    t0 = time.time()
    results = {l: regions.verify_vl_step(l) for l in range(4, 11)}
    elapsed = time.time() - t0
    ok = all(results.values()) and elapsed < 120
    report(5, ok, f"nested-box steps l=4..10 all verified equal in {elapsed:.1f}s")
    assert ok


def test_criterion_6_region_suite_C_cases():
    t0 = time.time()
    bad = []
    for k in range(4, 9):
        for cid in range(1, 11):
            res = regions.verify_case(k, cid)
            if not res.is_empty:
                bad.append((k, cid, res.witness))
    elapsed = time.time() - t0
    ok = not bad and elapsed < 600
    report(6, ok, f"50 case systems (k=4..8, cases 1..10) all empty in {elapsed:.1f}s"
                  + (f"; WITNESSES: {bad}" if bad else ""))
    assert ok


def test_criterion_7_terminal_bruteforce():
    t0 = time.time()
    bad = verifiers.terminal_bruteforce(30, jobs=JOBS)
    elapsed = time.time() - t0
    ok = bad == [] and elapsed < 900
    report(7, ok, f"terminal scan r<=30: {len(bad)} counterexamples in {elapsed:.1f}s")
    assert ok


def test_criterion_8_fourfold_gap_bruteforce():
    t0 = time.time()
    bad = verifiers.fourfold_gap_scan(40, jobs=JOBS)
    elapsed = time.time() - t0
    ok = bad == [] and elapsed < 900
    report(8, ok, f"fourfold gap scan r<=40: {len(bad)} counterexamples in {elapsed:.1f}s")
    assert ok


def test_criterion_9a_region_membership_roundtrip(rng):
    cache = {}
    failures = 0
    for _ in range(10**4):
        n = rng.randint(2, 24)
        c = rng.randint(1, 8)
        if (n, c) not in cache:
            cache[(n, c)] = regions.constraint_refine(
                regions.unit_cube(False), regions.FloorConstraint(n, c))
        point = tuple(Fraction(rng.randint(0, 600), 601) for _ in range(3))
        direct = sum(math.floor(n * v) for v in point) == n - 1 - c
        if cache[(n, c)].contains(point) != direct:
            failures += 1
    report("9a", failures == 0,
           f"10^4 region membership checks, {failures} failures")
    assert failures == 0


def test_criterion_9b_record_revalidation(rng):
    cfg = ScanConfig(dim=3, r_max=120, lo=Fraction(0), hi=None,
                     isolated_only=True, jobs=JOBS)
    records = list(spectrum.scan(cfg))
    assert len(records) >= 10**4
    sample = rng.sample(records, 10**4)
    failures = 0
    for rec in sample:
        if mld(CyclicQuotient(rec.r, rec.weights)) != rec.mld:
            failures += 1
    report("9b", failures == 0,
           f"10^4 of {len(records)} spectrum records revalidated, {failures} failures")
    assert failures == 0


def test_criterion_9c_fivefold_lift_roundtrip(rng):
    seeds = [(k, 1) for k in range(1, 951)]
    seeds += [(k, 5) for k in range(1, 951) if k % 5 != 0]
    instances = [(k, m, arr) for k, m in seeds for arr in range(6)]
    rng.shuffle(instances)
    instances = instances[:10**4]
    failures = 0
    for k, m, arr in instances:
        t, eps = verifiers.transfer_family_instance(k, m, arr)
        rep = verifiers.transfer_classify(t, eps)
        if rep.case_tag != "case2":
            failures += 1
            continue
        X = verifiers.lift_to_fivefold(t, eps, rep)  # asserts mld == 1 + k1/r
        k1 = min(kk for kk in rep.gamma if t.e * kk % t.r != 0)
        if mld(X) != 1 + Fraction(k1, t.r):
            failures += 1
    report("9c", failures == 0,
           f"10^4 constructed case-2 lifts revalidated, {failures} failures")
    assert failures == 0


def test_criterion_10_determinism(scan300):
    t0 = time.time()
    mismatches = []

    # spectrum scans (criteria 2 and 3 sizes)
    if scan300["out1"] != scan300["out2"]:
        mismatches.append("scan r<=300")
    argv = ["scan", "--rmax", "200", "--interval", "12/13,1", "--isolated"]
    _, a = run_cli(argv + ["--jobs", "1"])
    _, b = run_cli(argv + ["--jobs", str(JOBS)])
    if a != b:
        mismatches.append("scan r<=200 isolated")

    def payload(out):
        return json.dumps(json.loads(out)["payload"], sort_keys=True)

    suites = [
        ["regions", "s-grid", "--nmax", "100"],
        ["regions", "cases", "--k", "4..8"],
        ["verify", "terminal", "--rmax", "30"],
        ["verify", "fourfold", "--rmax", "40"],
        ["verify", "fivefold", "--rmax", "13", "--eps", "1/100", "--cond", "4a"],
    ]
    for argv in suites:
        _, a = run_cli(argv + ["--jobs", "1"])
        _, b = run_cli(argv + ["--jobs", str(JOBS)])
        if payload(a) != payload(b):
            mismatches.append(" ".join(argv))

    # the nested-box steps run single-threaded: identical reruns
    argv = ["regions", "vl-steps", "--from", "4", "--to", "10"]
    _, a = run_cli(argv)
    _, b = run_cli(argv)
    if payload(a) != payload(b):
        mismatches.append(" ".join(argv))

    elapsed = time.time() - t0
    ok = not mismatches
    report(10, ok, f"jobs=1 vs jobs={JOBS} payloads byte-identical across "
                   f"all suites in {elapsed:.0f}s"
                   + (f"; MISMATCHES: {mismatches}" if mismatches else ""))
    assert ok
