"""Command-line frontend: mld evaluation, spectrum scans, region suites,
lemma verifiers, and hyperquotient classification.

Output conventions: rationals travel as exact "p/q" strings, never decimals.
`mld`, `scan`, `hyperquot identity5` and `hyperquot type` print plain text
and return an exit code.  Every other command returns (parameters, payload,
exit code), and `main` is the one place that times it and writes the JSON
document {"manifest": ..., "payload": ...} to stdout or to `--out`.  Payloads
are byte-deterministic for identical parameters (timestamps and wall time
live in the manifest only).  Exit codes: 0 success, 1 an expected-empty suite
produced a witness or counterexample, 2 usage error, 3 resource-guard abort.
Every setting comes from the command line alone; the region commands take
their box budget from `--box-limit` (default `regions.DEFAULT_BOX_LIMIT`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone
from fractions import Fraction

from . import hyperquot, regions, spectrum, verifiers
from .qarith import format_rat
from .quotient import CyclicQuotient, mld, mld_argmin
from .spectrum import ScanConfig


def _parse_rat(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def _parse_weights(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed weight list: {text!r}") from exc


def _tuple_field(name: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--tuple field {name} is not an integer: {text!r}") from None


def _parse_krange(text: str) -> tuple[int, int]:
    try:
        lo, hi = map(int, text.split("..", 1)) if ".." in text else (int(text),) * 2
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"malformed range: {text!r}") from exc
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range: {text!r}")
    return lo, hi


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return value


def _int_list(value) -> bool:
    """Whether a parsed JSON value is a list of JSON integers (booleans excluded)."""
    return isinstance(value, list) and all(type(x) is int for x in value)


def _default_jobs() -> int:
    return os.cpu_count() or 1


def _emit(args, parameters: dict, payload, started: float) -> None:
    doc = {
        "manifest": {
            "command": f"{args.command} {args.subcommand}",
            "parameters": parameters,
            "started": datetime.fromtimestamp(started, timezone.utc).isoformat(),
            "wall_time_s": round(time.time() - started, 3),
        },
        "payload": payload,
    }
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------- mld

def _cmd_mld(args) -> int:
    if not args.w:
        raise ValueError("weights are required")
    X = CyclicQuotient(args.r, args.w)
    if X.r == 1:
        print(format_rat(mld(X)))
    else:
        k, value = mld_argmin(X)
        print(f"{format_rat(value)} (k={k})")
    return 0


# ---------------------------------------------------------------- scan

def _scan_config(args) -> ScanConfig:
    lo, hi = Fraction(0), None
    if args.interval is not None:
        parts = args.interval.split(",")
        if len(parts) != 2:
            raise argparse.ArgumentTypeError("interval must be 'lo,hi'")
        lo, hi = _parse_rat(parts[0]), _parse_rat(parts[1])
    return ScanConfig(dim=args.dim, r_max=args.rmax, lo=lo, hi=hi,
                      include_lo=not args.open_left, include_hi=args.closed_right,
                      isolated_only=args.isolated, jobs=args.jobs)


def _cmd_scan(args) -> int:
    # a flag the chosen mode would ignore is a usage error, not a silent no-op
    if args.format == "csv" and args.mode != "records":
        raise ValueError(f"--format csv needs --mode records, not --mode {args.mode}")
    if args.mode != "accum" and (args.target is not None or args.windows is not None):
        raise ValueError(f"--target and --windows need --mode accum, not --mode {args.mode}")
    if args.mode == "accum" and (args.interval is not None or args.open_left or args.closed_right):
        raise ValueError("--mode accum scans (target, target + w]; "
                         "it takes no --interval, --open-left or --closed-right")
    cfg = _scan_config(args)
    if args.mode == "records":
        records = list(spectrum.scan(cfg))
        if args.format == "csv":
            sys.stdout.write(spectrum.records_to_csv(records))
        else:
            for rec in records:
                print(spectrum.record_to_json(rec))
        print(f"# records={len(records)} rmax={cfg.r_max} dim={cfg.dim}")
        return 0
    if args.mode == "values":
        values = spectrum.distinct_values(cfg)
        for v in values:
            print(format_rat(v))
        print(f"# values={len(values)} rmax={cfg.r_max} dim={cfg.dim}")
        return 0
    # accumulation mode
    if not args.target or not args.windows:
        raise ValueError("--target and --windows are required with --mode accum")
    windows = [_parse_rat(w) for w in args.windows.split(",")]
    table = spectrum.accumulation_report(cfg, _parse_rat(args.target), windows)
    for w, count in table:
        print(f"{format_rat(w)},{count}")
    print(f"# windows={len(table)} target={args.target} rmax={cfg.r_max}")
    return 0


# ---------------------------------------------------------------- regions

def _cmd_regions_sgrid(args) -> tuple[dict, dict, int]:
    report = regions.verify_s_grid(args.nmax, args.box_limit, jobs=args.jobs)
    empties = sum(1 for entry in report if entry["verdict"] == "empty")
    payload = {"nmax": args.nmax, "intervals": report,
               "empty": empties, "total": len(report)}
    return {"nmax": args.nmax}, payload, 0 if empties == len(report) else 1


def _cmd_regions_vl(args) -> tuple[dict, dict, int]:
    if args.start > args.stop:
        raise ValueError(f"empty level range {args.start}..{args.stop}")
    results = {l: regions.verify_vl_step(l, args.box_limit)
               for l in range(args.start, args.stop + 1)}
    payload = {"steps": {str(l): ok for l, ok in results.items()},
               "all_equal": all(results.values())}
    return {"from": args.start, "to": args.stop}, payload, 0 if payload["all_equal"] else 1


def _cmd_regions_cases(args) -> tuple[dict, dict, int]:
    klo, khi = args.k
    lo, hi = args.case or (1, 10)
    payload = {"verdicts": [], "witnesses": 0}
    for k, cid, res in regions.verify_cases(range(klo, khi + 1), range(lo, hi + 1),
                                            args.box_limit, jobs=args.jobs):
        payload["verdicts"].append({"k": k, "case": cid, **res.certificate()})
        if not res.is_empty:
            payload["witnesses"] += 1
    return {"k": list(args.k), "case": [lo, hi]}, payload, 0 if payload["witnesses"] == 0 else 1


def _cmd_regions_system(args) -> tuple[dict, dict, int]:
    if args.gamma_file is not None:
        with open(args.gamma_file, encoding="utf-8") as fh:
            pairs = json.load(fh)
    elif args.gamma is not None:
        pairs = json.loads(args.gamma)
    else:
        raise ValueError("one of --gamma and --gamma-file is required")
    if not (isinstance(pairs, list) and all(_int_list(p) and len(p) == 2 for p in pairs)):
        raise ValueError("gamma must be a JSON list of [n, c] integer pairs")
    G = regions.GammaSet(tuple(map(tuple, pairs)))
    initial = regions.unit_cube(ordered_simplex=not args.unordered)
    res = regions.system_empty(initial, G, args.box_limit)
    return ({"pairs": [list(p) for p in G], "unordered": args.unordered}, res.certificate(),
            1 if args.expect_empty and not res.is_empty else 0)


# ---------------------------------------------------------------- verify

def _cmd_verify_terminal(args) -> tuple[dict, dict, int]:
    bad = verifiers.terminal_bruteforce(args.rmax, jobs=args.jobs)
    payload = {"rmax": args.rmax, "counterexamples":
               [{"r": t.r, "a": list(t.a), "e": t.e} for t in bad],
               "count": len(bad)}
    return {"rmax": args.rmax}, payload, 0 if not bad else 1


def _cmd_verify_fourfold(args) -> tuple[dict, dict, int]:
    bad = verifiers.fourfold_gap_scan(args.rmax, jobs=args.jobs)
    payload = {"rmax": args.rmax,
               "counterexamples": [[format_rat(v) for v in tup] for tup in bad],
               "count": len(bad)}
    return {"rmax": args.rmax}, payload, 0 if not bad else 1


def _cmd_verify_transfer(args) -> tuple[dict, dict, int]:
    try:
        r_text, a_text, e_text = args.tuple.split(":")
    except ValueError:
        raise ValueError("--tuple must look like r:a1,a2,a3,a4:e") from None
    t = verifiers.TermTuple(_tuple_field("r", r_text), _parse_weights(a_text),
                            _tuple_field("e", e_text))
    rep = verifiers.transfer_classify(t, _parse_rat(args.eps))
    payload = {
        "r": t.r, "a": list(t.a), "e": t.e, "eps": args.eps,
        "hypothesis_ok": rep.hypothesis_ok, "failure": rep.failure,
        "failure_k": rep.failure_k, "case": rep.case_tag,
        "gamma": list(rep.gamma), "conclusions": rep.conclusions,
        "p": rep.p, "q": rep.q,
    }
    return {"tuple": args.tuple, "eps": args.eps}, payload, 0


def _cmd_verify_fivefold(args) -> tuple[dict, dict, int]:
    cands = verifiers.fivefold_scan(args.rmax, _parse_rat(args.eps), args.cond,
                                    jobs=args.jobs)
    payload = {"rmax": args.rmax, "eps": args.eps, "condition": args.cond,
               "candidates": [{"r": c.X.r, "weights": list(c.X.weights),
                               "mld": format_rat(c.mld)} for c in cands],
               "count": len(cands)}
    return {"rmax": args.rmax, "eps": args.eps, "cond": args.cond}, payload, 0


# ---------------------------------------------------------------- hyperquot

def _cmd_hq_psi(args) -> tuple[dict, dict, int]:
    with open(args.datum, encoding="utf-8") as fh:
        raw = json.load(fh)
    missing = [key for key in ("r", "a", "e", "support")
               if not isinstance(raw, dict) or key not in raw]
    if missing:
        raise ValueError(f"datum lacks the key(s) {', '.join(missing)}")
    if not (_int_list([raw["r"], raw["e"]]) and _int_list(raw["a"])
            and isinstance(raw["support"], list) and all(map(_int_list, raw["support"]))):
        raise ValueError("datum needs JSON integers r and e, an integer list a, "
                         "and a list of integer lists as support")
    datum = hyperquot.HyperquotientDatum(
        raw["r"], tuple(raw["a"]), raw["e"],
        hyperquot.MonomialSupport(frozenset(tuple(v) for v in raw["support"])))
    part = hyperquot.psi_classify(datum, _parse_rat(args.eps))

    def dump(ws):
        return [{"coords": [format_rat(c) for c in w.coords],
                 "class": w.class_index, "primitive": w.primitive} for w in ws]

    payload = {"r": datum.r, "a": list(datum.a), "e": datum.e, "eps": args.eps,
               "psi1": dump(part.psi1), "psi2": dump(part.psi2),
               "rest_count": len(part.rest)}
    return {"datum": args.datum, "eps": args.eps}, payload, 0


def _cmd_hq_identity5(args) -> int:
    failures = hyperquot.identity5_check(args.r, args.a, args.e)
    print("failures at j = " + ",".join(map(str, failures)) if failures else "ok")
    return 0


def _cmd_hq_type(args) -> int:
    tag, param = hyperquot.classify_type(args.r, args.a, args.e)  # ("none", None) on no match
    print(tag if param is None else f"{tag} a={param}")
    return 0


# ---------------------------------------------------------------- parser

def _structured(q, func, *, jobs: bool = False, box_limit: bool = False) -> None:
    """Add the trailing flags of a structured command and bind its function."""
    if jobs:
        q.add_argument("--jobs", type=_positive_int, default=_default_jobs())
    if box_limit:
        q.add_argument("--box-limit", type=_positive_int, default=regions.DEFAULT_BOX_LIMIT)
    q.add_argument("--out", default=None)
    q.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mldlab",
        description="Exact minimal-log-discrepancy computations for cyclic "
                    "quotient singularities, with region and lemma verifiers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mld", help="mld of a single cyclic quotient")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--w", type=_parse_weights, default=(),
                   help="comma-separated weights, e.g. 3,4,5 or 0,0,0 at r=1")
    p.set_defaults(func=_cmd_mld)

    p = sub.add_parser("scan", help="spectrum scan over canonical weight classes")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--rmax", type=int, required=True)
    p.add_argument("--interval", default=None, help="lo,hi as exact rationals")
    p.add_argument("--open-left", action="store_true")
    p.add_argument("--closed-right", action="store_true")
    p.add_argument("--isolated", action="store_true")
    p.add_argument("--jobs", type=_positive_int, default=_default_jobs())
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--mode", choices=("records", "values", "accum"),
                   default="records")
    p.add_argument("--target", default=None)
    p.add_argument("--windows", default=None)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("regions", help="floor-constraint region suites")
    rsub = p.add_subparsers(dest="subcommand", required=True)

    q = rsub.add_parser("s-grid", help="verify every interval of the grid")
    q.add_argument("--nmax", type=int, default=100)
    _structured(q, _cmd_regions_sgrid, jobs=True, box_limit=True)

    q = rsub.add_parser("vl-steps", help="verify the nested-box induction steps")
    q.add_argument("--from", dest="start", type=int, default=4)
    q.add_argument("--to", dest="stop", type=int, default=10)
    _structured(q, _cmd_regions_vl, box_limit=True)

    q = rsub.add_parser("cases", help="verify the ten interval cases per level")
    q.add_argument("--k", type=_parse_krange, required=True,
                   help="level or level range, e.g. 4..8")
    q.add_argument("--case", type=_parse_krange, default=None,
                   help="case or case range, e.g. 1..10")
    _structured(q, _cmd_regions_cases, jobs=True, box_limit=True)

    q = rsub.add_parser("system", help="run an explicit constraint system")
    source = q.add_mutually_exclusive_group()
    source.add_argument("--gamma", default=None, help="JSON list of [n,c] pairs")
    source.add_argument("--gamma-file", default=None, help="file holding that JSON list")
    q.add_argument("--expect-empty", action="store_true")
    q.add_argument("--unordered", action="store_true",
                   help="drop the ordered-simplex restriction")
    _structured(q, _cmd_regions_system, box_limit=True)

    p = sub.add_parser("verify", help="lemma verifiers")
    vsub = p.add_subparsers(dest="subcommand", required=True)

    for name, help_text, rmax, func in (
            ("terminal", "brute-force the terminal classification", 30, _cmd_verify_terminal),
            ("fourfold", "brute-force the fourfold gap window", 40, _cmd_verify_fourfold)):
        q = vsub.add_parser(name, help=help_text)
        q.add_argument("--rmax", type=int, default=rmax)
        _structured(q, func, jobs=True)

    q = vsub.add_parser("transfer", help="classify one transfer tuple")
    q.add_argument("--tuple", required=True, help="r:a1,a2,a3,a4:e")
    q.add_argument("--eps", required=True, help="exact rational in (0, 1/6)")
    _structured(q, _cmd_verify_transfer)

    q = vsub.add_parser("fivefold", help="scan fivefold candidates")
    q.add_argument("--rmax", type=int, default=13)
    q.add_argument("--eps", required=True)
    q.add_argument("--cond", choices=("4a", "4b", "4c"), required=True)
    _structured(q, _cmd_verify_fivefold, jobs=True)

    p = sub.add_parser("hyperquot", help="hyperquotient weight calculus")
    hsub = p.add_subparsers(dest="subcommand", required=True)

    q = hsub.add_parser("psi", help="gap partition of the box weights")
    q.add_argument("--datum", required=True, help="JSON file with r, a, e, support")
    q.add_argument("--eps", required=True)
    _structured(q, _cmd_hq_psi)

    for name, help_text, func in (
            ("identity5", "check the five-term congruence identity", _cmd_hq_identity5),
            ("type", "match against the classification patterns", _cmd_hq_type)):
        q = hsub.add_parser(name, help=help_text)
        q.add_argument("--r", type=int, required=True)
        q.add_argument("--a", type=_parse_weights, required=True)
        q.add_argument("--e", type=int, required=True)
        q.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        result = args.func(args)
        if isinstance(result, int):  # a plain-text command has printed already
            return result
        parameters, payload, code = result
        _emit(args, parameters, payload, started)
        return code
    except regions.BoxLimitExceeded as exc:
        print(f"error: box budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OverflowError, OSError, json.JSONDecodeError,
            argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
