"""CLI contract: subcommands, exit codes, deterministic JSON."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from branchlab import cli


def run_cli(args, **kw):
    return cli.main(list(args))


def run_capture(capsys, args):
    rc = cli.main(list(args))
    return rc, capsys.readouterr().out


def test_list_single_case(capsys):
    rc, out = run_capture(capsys, ["list", "--cases", "vi"])
    assert rc == 0
    assert out.count("\n") == 1
    assert "SO(16)/SO(15)" in out and "Spin(9)/Spin(7)" in out


def test_list_max_n_2_has_enough_rows(capsys):
    rc, out = run_capture(capsys, ["list", "--max-n", "2"])
    assert rc == 0
    rows = [l for l in out.splitlines() if l.strip()]
    assert len(rows) >= 20
    assert any(l.startswith("i[n=1]") for l in rows)
    assert any(l.startswith("i[n=2]") for l in rows)


def test_list_json(capsys):
    rc, out = run_capture(capsys, ["list", "--format", "json", "--max-n", "1"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert isinstance(payload["cases"], list)
    tags = {c["tag"] for c in payload["cases"]}
    assert {"i", "vi", "star"} <= tags


def test_unknown_case_is_usage_error(capsys):
    rc, _ = run_capture(capsys, ["list", "--cases", "nope"])
    assert rc == 2


@pytest.mark.parametrize("command", ["list", "verify", "transfer"])
@pytest.mark.parametrize("cases", ["", ",,", " , "])
def test_empty_case_list_is_usage_error(capsys, command, cases):
    # a --cases that names no tag selects nothing, not every case: one error
    # line, exit 2 and nothing on stdout
    extra = {"verify": ["--bound", "2"], "transfer": ["--tau", "2", "--lam", "11"]}
    rc = cli.main([command, "--cases", cases] + extra.get(command, []))
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.splitlines() == ["error: --cases names no case; give case tags or 'all'"]


def test_repeated_case_tags_select_once(capsys):
    # a repeated tag, also under another spelling, selects its cases once,
    # in the order of first mention
    rc, out = run_capture(capsys, ["list", "--max-n", "2", "--cases", "iv,vi,iv,i',i_prime"])
    assert rc == 0
    ids = [line.split()[0] for line in out.splitlines()]
    assert ids == ["iv[n=1]", "iv[n=2]", "vi", "i_prime[n=2]"]
    rc, out = run_capture(
        capsys, ["verify", "--max-n", "2", "--bound", "2", "--cases", "x,x", "--format", "json"]
    )
    assert [c["case"] for c in json.loads(out)["cases"]] == ["x"]


def test_verify_small_cases_pass(capsys):
    rc, out = run_capture(capsys, ["verify", "--cases", "x,xi,ix", "--bound", "6"])
    assert rc == 0
    assert "FAIL" not in out
    assert "dl-only-subalgebra-index-2" in out


def test_verify_star_includes_dgx_checks(capsys):
    rc, out = run_capture(
        capsys, ["verify", "--cases", "star", "--bound", "6", "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(out)
    checks = {c["name"] for c in payload["cases"][0]["checks"]}
    assert {"x-not-in-R", "dgx-membership", "dgx-module-decomposition", "dgx-cross-evaluation"} <= checks
    assert all(c["failed"] == 0 for c in payload["cases"][0]["checks"])


def test_verify_json_deterministic(capsys):
    args = ["verify", "--cases", "vi,x", "--bound", "5", "--format", "json"]
    rc1, out1 = run_capture(capsys, args)
    rc2, out2 = run_capture(capsys, args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_transfer_examples(capsys):
    rc, out = run_capture(
        capsys, ["transfer", "--cases", "vi", "--tau", "2", "--lam", "11"]
    )
    assert rc == 0
    assert "['11/2', '7/2', '5/2', '3/2']" in out

    rc, out = run_capture(
        capsys,
        ["transfer", "--cases", "i", "--max-n", "2", "--tau", "0", "--lam", "2", "--format", "json"],
    )
    # case i is instantiated at n=1 and n=2 -> usage error (needs one case)
    assert rc == 2


@pytest.mark.parametrize(
    "args",
    [
        ["transfer", "--cases", "vi", "--tau", "-1", "--lam", "3"],
        ["transfer", "--cases", "vi", "--tau", "abc", "--lam", "3"],
        ["transfer", "--cases", "vi", "--tau", "2", "--lam", "1/0"],
        ["verify", "--cases", "x", "--degree", "-1"],
        ["verify", "--cases", "x", "--bound", "-1"],
        ["verify", "--cases", "x", "--bound", "3", "--out", "/nonexistent/dir/r.json"],
    ],
    ids=["tau-outside-disc", "tau-not-a-number", "lam-zero-denominator", "negative-degree", "negative-bound", "unwritable-out"],
)
def test_transfer_invalid_tau_exit_2(capsys, args):
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "case, tau, lam, want_rc",
    [("vi", "2", "-7/2", 0), ("star", "0", "-1,2", 0), ("vi", "-1", "3", 2), ("vi", "-1,2", "-.5", 2)],
)
def test_transfer_takes_negative_values_as_separate_arguments(capsys, case, tau, lam, want_rc):
    outcomes = []
    for values in (["--tau", tau, "--lam", lam], ["--tau=" + tau, "--lam=" + lam]):
        rc = cli.main(["transfer", "--cases", case] + values)
        captured = capsys.readouterr()
        outcomes.append((rc, captured.out, captured.err))
    assert outcomes[0] == outcomes[1]
    rc, _, err = outcomes[0]
    assert rc == want_rc
    assert ("not in Disc(K/H)" in err) == (want_rc == 2), err


def test_transfer_json_payload(capsys):
    rc, out = run_capture(
        capsys,
        ["transfer", "--cases", "x", "--lam", "5/2", "--format", "json"],
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["image"] == ["1", "1"]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    rc = run_cli(
        ["verify", "--cases", "x", "--bound", "4", "--format", "json", "--out", str(target)]
    )
    assert rc == 0
    payload = json.loads(target.read_text())
    assert payload["cases"][0]["case"] == "x"


@pytest.mark.parametrize("command", ["list", "verify", "transfer"])
def test_empty_out_is_usage_error(capsys, command):
    # an empty --out names no file: one error line, exit 2 and nothing on
    # stdout (the catalog export does the same)
    args = [command, "--cases", "vi", "--out", ""]
    extra = {"verify": ["--bound", "2"], "transfer": ["--tau", "2", "--lam", "11"]}
    rc = cli.main(args + extra.get(command, []))
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert lines == ["error: --out needs a file name"]


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "branchlab.cli", "list", "--cases", "star"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "Spin(8)" in proc.stdout


def test_python_m_branchlab_runs_the_cli():
    # the package runs the command line that ``python -m branchlab.cli``
    # runs: the same bytes and exit code, and a usage error exits 2
    def run(module, args):
        proc = subprocess.run([sys.executable, "-m", module] + args, capture_output=True)
        return proc.returncode, proc.stdout, proc.stderr

    args = ["verify", "--cases", "vi", "--bound", "2", "--format", "json"]
    rc, out, err = run("branchlab", args)
    assert (rc, err) == (0, b"") and json.loads(out)["cases"][0]["case"] == "vi"
    assert run("branchlab.cli", args) == (rc, out, err)
    for bad in (["verify", "--bound", "x"], []):
        rc, out, err = run("branchlab", bad)
        assert rc == 2 and err.startswith(b"usage: branchlab"), err
        assert run("branchlab.cli", bad) == (rc, out, err)


def test_verify_all_bound_8_exit_zero(capsys):
    rc, out = run_capture(capsys, ["verify", "--cases", "all", "--bound", "8"])
    assert rc == 0
    assert "FAIL" not in out


def test_verify_small_box_is_inconclusive_not_failed(capsys):
    # bound 2 holds fewer points than the moment matrix has columns; at
    # bound 3 the moment matrix is rank-deficient, and the generators'
    # Jacobian shows the box too small
    for bound, reason in (("2", "box with "), ("3", "box too small: ")):
        args = ["verify", "--cases", "vi,iii", "--max-n", "1", "--bound", bound]
        rc, out = run_capture(capsys, args)
        assert rc == 0
        inconclusive = [l.split()[0] for l in out.splitlines() if "inconclusive (" in l]
        assert inconclusive == ["vi", "iii[n=1]"]
        assert all(" independence " in l for l in out.splitlines() if "inconclusive" in l)
        rc, out = run_capture(capsys, args + ["--format", "json"])
        assert rc == 0
        entries = [c for case in json.loads(out)["cases"] for c in case["checks"]]
        assert [c["name"] for c in entries if "inconclusive" in c] == ["independence"] * 2
        assert all(c["inconclusive"].startswith(reason) for c in entries if "inconclusive" in c)


@pytest.mark.parametrize(
    "args,sha256",
    [
        (
            ["list", "--max-n", "3", "--format", "json"],
            "2b1f7c1325f8742386e7a215ada123eb92c09181179cf3f5ca09c0a64c87afd3",
        ),
        (
            ["transfer", "--cases", "vi", "--tau", "2", "--lam", "11", "--format", "json"],
            "3753ad53d52f68d498bf664640d1a9a3165a2baa63898826fac8c9aa4e0eb9ac",
        ),
        (
            ["transfer", "--cases", "i_prime", "--max-n", "2", "--tau", "1", "--lam", "1/3",
             "--format", "json"],
            "0f0cbdb4a4bf9d09f8a47604a6bf1f91655f795969c6d3f2d1b4438cef94394b",
        ),
    ],
    ids=["list", "transfer-vi", "transfer-i_prime"],
)
def test_report_digests_are_pinned(capsys, args, sha256):
    """A change to one of these reports updates its pin and says why."""
    rc, out = run_capture(capsys, args)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize(
    "module,args",
    [
        ("branchlab.cli", ["list", "--max-n", "6", "--format", "json"]),
        ("branchlab.catalog", ["--max-n", "2"]),
    ],
    ids=["list", "export"],
)
def test_closed_stdout_is_not_an_error(module, args):
    """A reader that has gone before the report is written (``| head``)
    leaves the exit code as it was and stderr empty."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", module] + args, stdout=write_end, stderr=subprocess.PIPE
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")
