import hashlib
import json
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import gap_oracle, package_env, psi_oracle
from mldlab import cli, regions
from mldlab.cli import main
from mldlab.hyperquot import HyperquotientDatum, MonomialSupport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def payload_of(out):
    return json.dumps(json.loads(out)["payload"], sort_keys=True)


def test_mld_command(capsys):
    code, out = run_cli(capsys, "mld", "--r", "13", "--w", "3,4,5")
    assert code == 0 and out.strip() == "12/13 (k=1)"
    code, out = run_cli(capsys, "mld", "--r", "7", "--w", "2,3,1")
    assert code == 0 and out.strip() == "6/7 (k=1)"
    code, out = run_cli(capsys, "mld", "--r", "1", "--w", "0,0,0")
    assert code == 0 and out.strip() == "3"


def test_mld_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["mld", "--r", "13", "--w", "3,x,5"])
    assert err.value.code == 2


def test_scan_csv_header(capsys):
    code, out = run_cli(capsys, "scan", "--rmax", "13", "--interval", "12/13,1",
                        "--isolated", "--format", "csv", "--jobs", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,weights,mld_num,mld_den,k"
    assert lines[1] == "13,1 4 11,12,13,4"  # the canonical class attains 12/13 at k=4


def test_scan_empty_summary(capsys):
    code, out = run_cli(capsys, "scan", "--rmax", "20", "--interval", "12/13,1",
                        "--open-left", "--isolated", "--jobs", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["# records=0 rmax=20 dim=3"]


def test_scan_values_mode(capsys):
    code, out = run_cli(capsys, "scan", "--rmax", "13", "--interval", "12/13,1",
                        "--isolated", "--mode", "values", "--jobs", "1")
    assert code == 0
    assert out.strip().splitlines()[0] == "12/13"


def test_scan_accum_mode(capsys):
    code, out = run_cli(capsys, "scan", "--rmax", "20", "--mode", "accum",
                        "--target", "5/6", "--windows", "1/42,1/12", "--jobs", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("1/42,") and lines[1].startswith("1/12,")


def test_regions_system_witness_exit(capsys):
    code, out = run_cli(capsys, "regions", "system", "--gamma", "[[2,1]]",
                        "--expect-empty")
    assert code == 1
    doc = json.loads(out)
    assert doc["payload"]["verdict"] == "witness"
    assert doc["payload"]["witness"] == ["0", "0", "0"]


def test_regions_system_empty_exit(capsys):
    gamma = json.dumps([[n, 1] for n in range(2, 13)])
    code, out = run_cli(capsys, "regions", "system", "--gamma", gamma,
                        "--expect-empty")
    assert code == 0
    assert json.loads(out)["payload"]["verdict"] == "empty"


def test_regions_system_gamma_file(tmp_path, capsys):
    path = tmp_path / "gamma.json"
    path.write_text("[[5,1],[7,2]]")
    _, from_flag = run_cli(capsys, "regions", "system", "--gamma", "[[5,1],[7,2]]")
    _, from_file = run_cli(capsys, "regions", "system", "--gamma-file", str(path))
    assert payload_of(from_file) == payload_of(from_flag)


def test_regions_system_unordered(capsys):
    payloads = []
    for flags in ([], ["--unordered"]):
        code, out = run_cli(capsys, "regions", "system", "--gamma", "[[5,1],[7,2]]", *flags)
        assert code == 0
        payloads.append(json.loads(out)["payload"])
    assert [p["box_counts"] for p in payloads] == [[3, 5], [10, 24]]
    for p in payloads:
        assert (p["verdict"], p["witness"]) == ("witness", ["0", "0", "3/5"])


def test_regions_vl_steps(capsys):
    code, out = run_cli(capsys, "regions", "vl-steps", "--from", "4", "--to", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["all_equal"] is True


def test_regions_cases_subrange(capsys):
    code, out = run_cli(capsys, "regions", "cases", "--k", "4", "--case", "1..2")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["witnesses"] == 0
    assert len(doc["payload"]["verdicts"]) == 2


def test_verify_terminal_cli(capsys):
    code, out = run_cli(capsys, "verify", "terminal", "--rmax", "12", "--jobs", "1")
    assert code == 0
    assert json.loads(out)["payload"]["count"] == 0


def test_verify_fourfold_cli(capsys):
    code, out = run_cli(capsys, "verify", "fourfold", "--rmax", "15", "--jobs", "1")
    assert code == 0
    assert json.loads(out)["payload"]["count"] == 0


def test_verify_transfer_cli(capsys):
    code, out = run_cli(capsys, "verify", "transfer", "--tuple", "7:5,4,6,2:2",
                        "--eps", "1/100")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["case"] == "case2"
    assert payload["gamma"] == [6]


def test_verify_fivefold_cli(capsys):
    code, out = run_cli(capsys, "verify", "fivefold", "--rmax", "8",
                        "--eps", "1/100", "--cond", "4a", "--jobs", "1")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["count"] == len(payload["candidates"])
    assert all(c["mld"] == "13/7" for c in payload["candidates"] if c["r"] == 7)
    # an eps denominator beyond int64 selects the same candidates
    code, tiny = run_cli(capsys, "verify", "fivefold", "--rmax", "8",
                         "--eps", "1/100000000000000000000", "--cond", "4a",
                         "--jobs", "1")
    assert code == 0
    assert json.loads(tiny)["payload"]["candidates"] == payload["candidates"]


def test_hyperquot_type_cli(capsys):
    code, out = run_cli(capsys, "hyperquot", "type", "--r", "11",
                        "--a", "3,8,1,0", "--e", "0")
    assert code == 0 and out.strip() == "1a a=3"
    code, out = run_cli(capsys, "hyperquot", "type", "--r", "7",
                        "--a", "1,2,3,4", "--e", "5")
    assert code == 0 and out.strip() == "none"


def test_hyperquot_identity5_cli(capsys):
    code, out = run_cli(capsys, "hyperquot", "identity5", "--r", "5",
                        "--a", "2,3,1,0", "--e", "0")
    assert code == 0 and out.strip() == "ok"
    code, out = run_cli(capsys, "hyperquot", "identity5", "--r", "5",
                        "--a", "1,1,1,1", "--e", "0")
    assert code == 0 and out.strip().startswith("failures at j = 1")


def test_hyperquot_psi_cli(tmp_path, capsys):
    datum = {"r": 5, "a": [2, 3, 1, 0], "e": 0, "support": [[1, 1, 0, 0]]}
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    code, out = run_cli(capsys, "hyperquot", "psi", "--datum", str(path),
                        "--eps", "1/100")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["psi1"] == [] and payload["psi2"] == []
    assert payload["rest_count"] == 8
    assert main(["hyperquot", "psi", "--datum", str(path), "--eps", "x"]) == 2
    assert capsys.readouterr().err.startswith("error: not an exact rational")


def test_hyperquot_psi_cli_type_1a(tmp_path, capsys):
    # type 1a at r = 30: classes 26..29 have gaps 26/30..29/30 in the window
    datum = {"r": 30, "a": [7, 23, 1, 0], "e": 0,
             "support": [[1, 1, 0, 0], [0, 0, 30, 0], [2, 2, 0, 0]]}
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum))
    code, out = run_cli(capsys, "hyperquot", "psi", "--datum", str(path),
                        "--eps", "1/100")
    assert code == 0
    payload = json.loads(out)["payload"]
    d = HyperquotientDatum(30, (7, 23, 1, 0), 0, MonomialSupport(
        frozenset(tuple(v) for v in datum["support"])))
    psi1, psi2, rest = psi_oracle(d, Fraction(1, 100))
    assert psi1 and psi2
    for got, want in ((payload["psi1"], psi1), (payload["psi2"], psi2)):
        assert got == [{"coords": [str(c) for c in w.coords], "class": w.class_index,
                        "primitive": w.primitive} for w in want]
    lo = Fraction(5, 6) + Fraction(1, 100)
    for w in payload["psi1"]:
        assert w["primitive"]
        assert lo <= gap_oracle(map(Fraction, w["coords"]), datum["support"]) < 1
    assert payload["rest_count"] == len(rest) == 2 * 29 - len(psi1) - len(psi2)


def test_hyperquot_psi_cli_non_semi_invariant(tmp_path, capsys):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"r": 4, "a": [1, 3, 2, 1], "e": 0,
                                "support": [[1, 1, 0, 0], [0, 0, 0, 3]]}))
    err = _usage_error(capsys, ["hyperquot", "psi", "--datum", str(path), "--eps", "1/100"])
    assert err == "error: support is not semi-invariant: (0, 0, 0, 3)\n"


def test_jobs_determinism_small(capsys):
    args = ["scan", "--rmax", "40", "--interval", "5/6,1", "--open-left"]
    _, out1 = run_cli(capsys, *args, "--jobs", "1")
    _, out2 = run_cli(capsys, *args, "--jobs", "2")
    assert out1 == out2

    for args in (["verify", "terminal", "--rmax", "10"],
                 ["verify", "fourfold", "--rmax", "14"],
                 ["verify", "fivefold", "--rmax", "9", "--eps", "1/100", "--cond", "4b"],
                 ["regions", "cases", "--k", "4", "--case", "1..3"],
                 ["regions", "s-grid", "--nmax", "20"]):
        code1, out1 = run_cli(capsys, *args, "--jobs", "1")
        code2, out2 = run_cli(capsys, *args, "--jobs", "2")
        assert code1 == code2
        assert payload_of(out1) == payload_of(out2)


@pytest.mark.parametrize("argv, jobs, sha", [
    # the scan_narrow reference digest of the benchmark
    (["--dim", "3", "--rmax", "100", "--interval", "5/6,1", "--open-left"], jobs,
     "b2ac9cd53f9adef4faca5ab2099dfddaad8ef756beaf413fe4b2aa67f1837f58") for jobs in ("1", "2")
] + [
    (["--dim", "4", "--rmax", "40", "--interval", "11/6,2", "--open-left"], "1",
     "e93f70f79708e774403f4679c096d8f6a8868c5f7149b38c49f5bb08da8b8a32"),
    (["--dim", "5", "--rmax", "16"], "1",
     "4d3fe248a46f055e3f25c774f7ad4f8219b678ead3d4f61e3e2742d6d4901f35"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v[:8])
def test_scan_stdout_pinned(capsys, argv, jobs, sha):
    code, out = run_cli(capsys, "scan", *argv, "--jobs", jobs)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha


_FIVEFOLD = ["verify", "fivefold", "--rmax", "13", "--eps", "1/100", "--cond"]
_TRANSFER = ["verify", "transfer", "--eps", "1/100", "--tuple"]
_PSI_DATUM = {"r": 11, "a": [3, 8, 1, 0], "e": 0,
              "support": [[1, 1, 0, 0], [0, 0, 11, 0], [11, 0, 0, 0]]}


@pytest.mark.parametrize("argv, sha", [
    (_FIVEFOLD + ["4a"], "c573bcca34e9bf2fee22a3b87b4e9c398cd85b4488efef738a81056705c5aaaa"),
    (_FIVEFOLD + ["4b"], "b4ee1ec251f6b3efbfc21b4275fa62a1df116891e537a5c29e679ebc8b6463e0"),
    (_FIVEFOLD + ["4c"], "7106104d1d9c086bacc2703413f11312265a5e9adc415829c1abdf63eaa832c3"),
    (["verify", "terminal", "--rmax", "30"],
     "3e65fd4280175198a0c0877540de18e5c9d3548a0b220e422b1f9d1a44d17ba7"),
    (["verify", "fourfold", "--rmax", "40"],
     "964a2a0119e90b7114a14f520108eeead1350521f1a08fd6735b94ee5a00333b"),
    (_TRANSFER + ["7:5,4,6,2:2"],
     "2fd8910fb37d8f4ca66cb52f82dd0325bb6bf4a4e6dc01e27c3656bcb1278b58"),
    (_TRANSFER + ["26:15,21,23,24:4"],
     "4a9e4ae7ac38baf1103500f06354d2c514dd0f9f5a86feaea4240974a225513e"),
    # fails with gcd(a1, r) != 1, then with gcd(a4, r) != gcd(e, r)
    (_TRANSFER + ["6:2,1,1,2:2"],
     "46f05ee4c42a14d16a753e306f1b357cf2208cd6d8d572852c23b200fe295280"),
    (_TRANSFER + ["6:1,1,1,3:2"],
     "95428259d1642df5e3fb38a762bb87dd3756c79d1b143e177336de6c7074b27d"),
    (["hyperquot", "psi", "--eps", "1/100", "--datum"],
     "9ba54cabc85b6658d44ac4d44a7faa938e6978c86f836ca7933c7e671caa19a6"),
], ids=lambda v: " ".join(v[1:]) if isinstance(v, list) else v[:8])
def test_lemma_payloads_pinned(tmp_path, capsys, argv, sha):
    if argv[-1] == "--datum":
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(_PSI_DATUM))
        argv = argv + [str(path)]
    takes_jobs = argv[0] == "verify" and argv[1] != "transfer"
    for extra in ([["--jobs", "1"], ["--jobs", "2"]] if takes_jobs else [[]]):
        code, out = run_cli(capsys, *argv, *extra)
        assert code == 0
        payload = json.loads(out)["payload"]
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == sha


def test_scan_huge_denominator_bound(capsys):
    # no k/r with r <= 13 lies in (5/6, 5/6 + 1/(6*10**18)], so the two
    # intervals select the same records; int64 products of the bound wrapped
    args = ["scan", "--rmax", "13", "--open-left", "--jobs", "1", "--interval"]
    _, tight = run_cli(capsys, *args, "5000000000000000001/6000000000000000000,1")
    _, loose = run_cli(capsys, *args, "5/6,1")
    assert tight == loose
    assert tight.endswith("# records=15 rmax=13 dim=3\n")


@pytest.mark.parametrize("argv", [
    ["scan", "--rmax", "5", "--interval", "1/0,1"],
    ["scan", "--rmax", "5", "--interval", "1"],
    ["scan", "--rmax", "5", "--mode", "accum", "--target", "x", "--windows", "1/2"],
    ["scan", "--rmax", "5", "--mode", "accum", "--target", "5/6", "--windows", "1/2,y"],
    ["verify", "fivefold", "--rmax", "5", "--eps", "x", "--cond", "4a"],
    ["verify", "transfer", "--tuple", "7:5,4,6,2:2", "--eps", "1/0"],
])
def test_bad_rational_is_usage_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def _usage_error(capsys, argv):
    try:
        code = main(argv)
        prefix = "error: "
    except SystemExit as exc:  # an argparse type rejected the value
        code, prefix = exc.code, "usage: mldlab "
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(prefix) and "Traceback" not in err
    if prefix.startswith("usage"):
        assert ": error: argument " in err.splitlines()[-1]
    return err


@pytest.mark.parametrize("argv", [
    ["mld", "--r", "10000000000", "--w", "1,2,3"],
    # passes every hypothesis checked before the scan over k
    ["verify", "transfer", "--tuple", "10000000001:1,1,1,2:4", "--eps", "1/100"],
    # the first r beyond the limit: the transfer guard sits before the scan over k
    ["verify", "transfer", "--tuple", "3000000001:1,1,1,2:4", "--eps", "1/100"],
    # beyond int64 itself, for r and for a weight: the limit is checked first
    ["mld", "--r", "100000000000000000000", "--w", "1,2,3"],
    ["mld", "--r", "100000000000000000000", "--w", "99999999999999999999,2,3"],
])
def test_r_beyond_int64_is_usage_error(capsys, argv):
    assert "int64" in _usage_error(capsys, argv)


@pytest.mark.parametrize("gamma", [None, "5", "[[2.5,1]]", "[[2,true]]", "[[2,1,3]]",
                                   '{"2": 1}', '[[2,"1"]]'])
def test_regions_system_bad_gamma_is_usage_error(capsys, gamma):
    argv = ["regions", "system"] + ([] if gamma is None else ["--gamma", gamma])
    _usage_error(capsys, argv)


def test_hyperquot_psi_missing_key(tmp_path, capsys):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({"r": 5, "a": [2, 3, 1, 0]}))
    err = _usage_error(capsys, ["hyperquot", "psi", "--datum", str(path), "--eps", "1/100"])
    assert "e, support" in err
    path.write_text("[5]")
    _usage_error(capsys, ["hyperquot", "psi", "--datum", str(path), "--eps", "1/100"])


_DATUM = {"r": 5, "a": [2, 3, 1, 0], "e": 0, "support": [[1, 1, 0, 0]]}


@pytest.mark.parametrize("argv", [
    # hyperquot psi on a datum file: the good datum with these keys replaced
    ["hyperquot", "psi", change] for change in (
        {"a": 5}, {"support": 5}, {"support": [5]}, {"e": "0"},
        {"r": 7.9, "a": [2, 5, 1, 0]},  # valid as r = 7, which int() would read
        {"r": True}, {"a": [2, 3, 1]}, {"support": [[1, 1, 0]]}, {"support": []})
] + [
    ["hyperquot", cmd, "--r", r, "--a", a, "--e", "1"] for cmd in ("identity5", "type")
    for r, a in (("0", "1,2,3,4"), ("1", "1,2,3,4"), ("-3", "1,2,3,4"),
                 ("7", "1,2"), ("7", "1,2,3,4,5"))
] + [
    ["mld", "--r", "0", "--w", "1,2"],
    ["mld", "--r", "13", "--w", ""],
    ["scan", "--rmax", "1"],
    ["scan", "--rmax", "5", "--dim", "0"],
    ["scan", "--rmax", "5", "--mode", "accum"],
    ["scan", "--rmax", "5", "--mode", "accum", "--target", "5", "--windows", "1"],
    ["scan", "--rmax", "5", "--mode", "accum", "--target", "5/6", "--windows", "-1"],
    # a flag the chosen mode would ignore
    ["scan", "--rmax", "8", "--mode", "values", "--format", "csv"],
    ["scan", "--rmax", "5", "--mode", "accum", "--target", "5/6", "--windows", "1/12",
     "--format", "csv"],
    ["scan", "--rmax", "5", "--target", "5/6"],
    ["scan", "--rmax", "5", "--mode", "values", "--windows", "1/12"],
    *(["scan", "--rmax", "5", "--mode", "accum", "--target", "5/6", "--windows", "1/12", *flag]
      for flag in (["--interval", "5/6,1"], ["--open-left"], ["--closed-right"])),
    ["verify", "terminal", "--rmax", "1"],
    ["verify", "fourfold", "--rmax", "1"],
    ["verify", "fivefold", "--rmax", "5", "--eps", "1/6", "--cond", "4a"],
    ["verify", "transfer", "--tuple", "7:5,4:2", "--eps", "1/100"],
    ["verify", "transfer", "--tuple", "7:5,4,6,2", "--eps", "1/100"],
    ["verify", "transfer", "--tuple", "x:5,4,6,2:2", "--eps", "1/100"],
    ["verify", "transfer", "--tuple", "1:5,4,6,2:2", "--eps", "1/100"],
    ["regions", "s-grid", "--nmax", "1"],
    ["regions", "cases", "--k", "3"],
    ["regions", "vl-steps", "--from", "3", "--to", "4"],
    ["regions", "system", "--gamma", "[[1,1]]"],
    ["regions", "system", "--gamma", "[[2,1"],
    # empty ranges would report vacuous verdicts
    ["regions", "cases", "--k", "5..4"],
    ["regions", "cases", "--k", "4", "--case", "3..2"],
    ["regions", "vl-steps", "--from", "4", "--to", "3"],
] + [
    # a box budget below 1
    ["regions", cmd, *extra, "--box-limit", limit]
    for cmd, extra in (("s-grid", ["--nmax", "20"]), ("cases", ["--k", "4"]),
                       ("vl-steps", []), ("system", ["--gamma", "[[2,1]]"]))
    for limit in ("0", "-5")
] + [
    # a job count below 1 would silently run in-process
    ["scan", "--rmax", "5", "--jobs", "0"],
    ["verify", "terminal", "--rmax", "5", "--jobs", "0"],
    ["verify", "fourfold", "--rmax", "3", "--jobs", "-1"],
    ["regions", "s-grid", "--nmax", "5", "--jobs", "0"],
], ids=json.dumps)
def test_bad_input_is_usage_error(tmp_path, capsys, argv):
    if isinstance(argv[-1], dict):
        path = tmp_path / "datum.json"
        path.write_text(json.dumps({**_DATUM, **argv[-1]}))
        argv = argv[:-1] + ["--datum", str(path), "--eps", "1/100"]
    _usage_error(capsys, argv)


def test_jobs_below_one_names_the_flag(capsys):
    err = _usage_error(capsys, ["verify", "fivefold", "--eps", "1/100", "--cond", "4a",
                                "--jobs", "0"])
    assert err.splitlines()[-1].endswith("error: argument --jobs: must be at least 1: '0'")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_box_limit_exit_code(capsys, jobs):
    # at jobs 2 the budget reaches the pool workers with the task
    code, out = run_cli(capsys, "regions", "s-grid", "--nmax", "20", "--box-limit", "2",
                        "--jobs", jobs)
    assert (code, out) == (3, "")


@pytest.mark.parametrize("argv, err", [
    (["mld", "--r", "13", "--w", ""], "error: weights are required\n"),
    # an empty --gamma-file names a file, not a missing flag
    (["regions", "system", "--gamma-file", ""],
     "error: [Errno 2] No such file or directory: ''\n"),
    (["scan", "--rmax", "5", "--mode", "accum"],
     "error: --target and --windows are required with --mode accum\n"),
    (["scan", "--rmax", "8", "--mode", "values", "--format", "csv"],
     "error: --format csv needs --mode records, not --mode values\n"),
    (["scan", "--rmax", "5", "--target", "5/6", "--windows", "1/12"],
     "error: --target and --windows need --mode accum, not --mode records\n"),
    (["scan", "--rmax", "5", "--mode", "accum", "--target", "5/6", "--windows", "1/12",
      "--open-left"],
     "error: --mode accum scans (target, target + w]; "
     "it takes no --interval, --open-left or --closed-right\n"),
    # an empty interval is malformed like a one-sided one, not the whole spectrum
    (["scan", "--rmax", "5", "--interval", ""], "error: interval must be 'lo,hi'\n"),
    (["scan", "--rmax", "5", "--interval", "1"], "error: interval must be 'lo,hi'\n"),
    (["verify", "transfer", "--tuple", "7:5,4,6,2", "--eps", "1/100"],
     "error: --tuple must look like r:a1,a2,a3,a4:e\n"),
    (["verify", "transfer", "--tuple", "x:5,4,6,2:2", "--eps", "1/100"],
     "error: --tuple field r is not an integer: 'x'\n"),
    (["verify", "transfer", "--tuple", "7:5,4,6,2:y", "--eps", "1/100"],
     "error: --tuple field e is not an integer: 'y'\n"),
], ids=json.dumps)
def test_usage_error_message(capsys, argv, err):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


# every function the message of a rejected argument value could name
_FUNCTION_NAMES = {name for module in (cli, regions)
                   for name, obj in vars(module).items() if callable(obj)}


@pytest.mark.parametrize("argv, message", [
    (["regions", "cases", "--k", "4..x"], "argument --k: malformed range: '4..x'"),
    (["regions", "s-grid", "--box-limit", "x"], "argument --box-limit: invalid int value: 'x'"),
    (["regions", "s-grid", "--box-limit", "0"], "argument --box-limit: must be at least 1: '0'"),
    # the two sources of constraint pairs exclude each other
    (["regions", "system", "--gamma", "[[2,1]]", "--gamma-file", "gamma.json"],
     "argument --gamma-file: not allowed with argument --gamma"),
], ids=json.dumps)
def test_rejected_value_says_what_is_wrong(capsys, argv, message):
    err = _usage_error(capsys, argv)
    last = err.splitlines()[-1]
    assert last == f"mldlab {argv[0]} {argv[1]}: error: {message}"
    assert not _FUNCTION_NAMES & set(last.replace(":", " ").split())


@pytest.mark.parametrize("argv, parameters", [
    (["regions", "s-grid", "--nmax", "12", "--jobs", "1"], {"nmax": 12}),
    (["regions", "vl-steps", "--from", "4", "--to", "4"], {"from": 4, "to": 4}),
    (["regions", "cases", "--k", "4", "--case", "1..2", "--jobs", "1"],
     {"k": [4, 4], "case": [1, 2]}),
    (["regions", "cases", "--k", "4", "--jobs", "1"], {"k": [4, 4], "case": [1, 10]}),
    (["regions", "system", "--gamma", "[[2,1]]"], {"pairs": [[2, 1]], "unordered": False}),
    (["regions", "system", "--gamma", "[[2,1]]", "--unordered"],
     {"pairs": [[2, 1]], "unordered": True}),
    (["verify", "terminal", "--rmax", "8", "--jobs", "1"], {"rmax": 8}),
    (["verify", "fourfold", "--rmax", "12", "--jobs", "1"], {"rmax": 12}),
    (["verify", "transfer", "--tuple", "7:5,4,6,2:2", "--eps", "1/100"],
     {"tuple": "7:5,4,6,2:2", "eps": "1/100"}),
    (["verify", "fivefold", "--rmax", "7", "--eps", "1/100", "--cond", "4a", "--jobs", "1"],
     {"rmax": 7, "eps": "1/100", "cond": "4a"}),
    (["hyperquot", "psi", "--datum", "datum.json", "--eps", "1/100"],
     {"datum": "datum.json", "eps": "1/100"}),
], ids=json.dumps)
def test_manifest_contract(tmp_path, capsys, monkeypatch, argv, parameters):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "datum.json").write_text(json.dumps(_DATUM))
    code, out = run_cli(capsys, *argv)
    doc = json.loads(out)
    manifest = doc["manifest"]
    assert manifest["command"] == f"{argv[0]} {argv[1]}"
    assert manifest["parameters"] == parameters
    assert set(manifest) == {"command", "parameters", "started", "wall_time_s"}
    assert manifest["wall_time_s"] >= 0

    path = tmp_path / "doc.json"
    assert run_cli(capsys, *argv, "--out", str(path)) == (code, "")
    written = json.loads(path.read_text())
    for d in (doc, written):
        del d["manifest"]["started"], d["manifest"]["wall_time_s"]
    assert written == doc


@pytest.mark.parametrize("env, argv, code", [
    ({}, ["regions", "system", "--gamma", "[]"], 0),
    ({}, ["regions", "system", "--gamma", "[[2,1]]", "--expect-empty"], 1),
    ({}, ["mld", "--r", "13", "--w", ""], 2),
    ({}, ["regions", "s-grid", "--nmax", "20", "--box-limit", "2", "--jobs", "1"], 3),
    # the budget comes from --box-limit alone: the environment does not shrink it
    ({"MLDLAB_BOX_LIMIT": "2"}, ["regions", "s-grid", "--nmax", "20", "--jobs", "1"], 1),
], ids=json.dumps)
def test_process_exit_status(env, argv, code):
    done = subprocess.run([sys.executable, "-m", "mldlab.cli", *argv],
                          env={**package_env(), **env}, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == code, done.stderr[-2000:]


# README commands whose comment states an output: (the command after "mldlab",
# the text its comment states, the exit code, a check of stdout)
_README_CLAIMS = [
    ("mld --r 13 --w 3,4,5", '"12/13 (k=1)"', 0, lambda out: out.strip() == "12/13 (k=1)"),
    ("mld --r 1 --w 0,0,0", '"3"', 0, lambda out: out.strip() == "3"),
    ("hyperquot type --r 11 --a 3,8,1,0 --e 0", '"1a a=3"', 0,
     lambda out: out.strip() == "1a a=3"),
    ("hyperquot identity5 --r 5 --a 2,3,1,0 --e 0", '"ok"', 0, lambda out: out.strip() == "ok"),
    ("regions system --gamma '[[2,1]]' --expect-empty", "exit 1: witness (0,0,0)", 1,
     lambda out: json.loads(out)["payload"]["witness"] == ["0", "0", "0"]),
    ("verify fivefold --rmax 13 --eps 1/100 --cond 4a", "1,016 candidates", 0,
     lambda out: json.loads(out)["payload"]["count"] == 1016),
    ("verify terminal --rmax 30", "zero counterexamples", 0,
     lambda out: json.loads(out)["payload"]["count"] == 0),
]


@pytest.mark.parametrize("command, stated, code, holds", _README_CLAIMS,
                         ids=[claim[0] for claim in _README_CLAIMS])
def test_readme_commands_print_what_they_state(capsys, command, stated, code, holds):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    lines = [line for line in readme.splitlines() if line.startswith(f"mldlab {command} ")]
    assert len(lines) == 1 and stated in lines[0].partition(" # ")[2]
    got, out = run_cli(capsys, *shlex.split(command))
    assert got == code and holds(out)
