import argparse
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import replicagrid
from replicagrid import asymptotics, cli, density
from replicagrid.cli import build_parser, main, parse_m_expression
from replicagrid.errors import InvalidInputError
from replicagrid.popularity import zipf


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_m_expression_forms():
    assert parse_m_expression("12", 64, 2.0) == 12
    assert parse_m_expression("0.5*N", 64, 2.0) == 32
    assert parse_m_expression("N", 64, 2.0) == 64
    assert parse_m_expression("N^0.5", 64, 2.0) == 8
    assert parse_m_expression("2*N^0.5", 64, 2.0) == 16
    assert parse_m_expression("K*N - 3", 64, 2.0) == 125
    with pytest.raises(InvalidInputError):
        parse_m_expression("M+1", 64, 2.0)
    with pytest.raises(InvalidInputError):
        parse_m_expression("K*N - 200", 64, 2.0)


def _parse_m_reference(text, n_nodes, capacity):
    """The catalog-size parse as a text matched again at each call: the
    reference the per-command function must agree with."""
    s = text.strip().replace(" ", "")
    try:
        if re.fullmatch(r"\d+", s):
            value = int(s)
        elif m := re.fullmatch(r"(?:([0-9.]+)\*)?N(?:\^([0-9.]+))?", s):
            coeff = float(m.group(1)) if m.group(1) else 1.0
            power = float(m.group(2)) if m.group(2) else 1.0
            value = int(coeff * n_nodes ** power)
        elif m := re.fullmatch(r"K\*N-([0-9.]+)", s):
            value = int(capacity * n_nodes - float(m.group(1)))
        else:
            value = None
    except (ValueError, OverflowError):
        value = None
    if value is None:
        raise InvalidInputError(
            f"cannot parse catalog size {text!r}; use an integer, "
            "'c*N', 'c*N^a' or 'K*N - c'"
        )
    if value < 1:
        raise InvalidInputError(f"catalog size {text!r} resolves to {value} < 1")
    return value


def _size_or_message(size, *args):
    try:
        return size(*args)
    except InvalidInputError as exc:
        return f"error: {exc}"


M_ACCEPTED = [
    "12", "00012", " 7 ", "N", "0.5*N", "1.75*N", "3*N", "N^0.6", "2*N^0.5", "0.3*N^1.2",
    "K*N - 3", "K*N-0.5", "K * N - 1",
]
# Some resolve below 1 at some N; the others never parse.  The last two
# overflow (the size passes the float range) and the one before passes
# int's digit limit.
M_REJECTED = [
    "0", "K*N - 200", "M+1", "", "-3", "N*2", "1.2.3*N", "N^1.2.3", "K*N-1.2.3", "K*N-x",
    "K*N-1e3", "9" * 5000, "9" * 400 + "*N", "N^" + "9" * 400,
]


@pytest.mark.parametrize("capacity", [1.0, 2.0, 1e6])
@pytest.mark.parametrize("text", M_ACCEPTED + M_REJECTED)
def test_catalog_size_function_agrees_with_a_parse_per_call(text, capacity):
    # One function per command, evaluated at every grid size of a sweep.
    size = cli._catalog_size(text, capacity)
    for nu in range(28):
        n = 4**nu
        want = _size_or_message(_parse_m_reference, text, n, capacity)
        assert _size_or_message(size, n) == want, (nu, want)
        assert _size_or_message(parse_m_expression, text, n, capacity) == want, (nu, want)
        if text in M_ACCEPTED and n >= 16:
            assert isinstance(want, int)


@pytest.mark.parametrize(
    "argv, message",
    [
        # The point count is checked before the catalog size is read.
        ("sweep --nus 3,4 --K 2 --M M+1 --tau 1", "sweep needs at least 3 points, got 2"),
        # The size is read at the first point, before that point's tau check.
        ("sweep --nus 3,4,5 --K 2 --M M+1 --tau -1", "cannot parse catalog size 'M+1'"),
        ("sweep --nus 3,4,5 --K 2 --M 1.2.3*N --tau 1", "cannot parse catalog size '1.2.3*N'"),
        ("sweep --nus 0,1,2 --K 2 --M K*N-7 --tau 1", "catalog size 'K*N-7' resolves to -5 < 1"),
        # At the first point where it fails, not at the first point.
        ("sweep --nus 5,0,1 --K 2 --M K*N-7 --tau 1", "catalog size 'K*N-7' resolves to -5 < 1"),
        ("sweep --nus 3,4,40 --K 2 --M K*N-7 --tau 1", "at nu = 40, N exceeds 2^53"),
        ("sweep --nus 3,4,5 --K 2 --M N^" + "9" * 400 + " --tau 1", "cannot parse catalog size 'N^999"),
        ("classify --nu 40 --K 2 --M M+1 --tau 1", "cannot parse catalog size 'M+1'"),
        ("classify --nu 3 --K 2 --M M+1 --tau -1", "cannot parse catalog size 'M+1'"),
        ("classify --nu 3 --K nan --M M+1 --tau 1", "--capacity: expected a finite float, got nan"),
        ("solve --nu 2 --K 2 --M K*N-100 --tau 1", "catalog size 'K*N-100' resolves to -68 < 1"),
    ],
)
def test_catalog_size_errors_keep_their_message_and_place(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_sweep_matches_the_catalog_size_once(capsys, monkeypatch):
    calls = []
    fullmatch = re.fullmatch

    def counted(pattern, string, flags=0):
        calls.append(string)
        return fullmatch(pattern, string, flags)

    monkeypatch.setattr(cli.re, "fullmatch", counted)
    code, out, _ = run(capsys, "sweep", "--nus", "3,4,5,6,7,8,9,10", "--K", "2", "--M", "N^0.6",
                       "--tau", "1")
    assert code == 0 and out.count("\n") == 13
    # The integer form is tried first, then c*N^a matches: once for 8 points.
    assert calls == ["N^0.6", "N^0.6"]


def test_solve_uniform_two_files(capsys):
    code, out, _ = run(capsys, "solve", "--nu", "2", "--K", "1", "--M", "2", "--tau", "0")
    assert code == 0
    assert "l = 1" in out
    assert "r = 3" in out
    assert "densities = [0.5, 0.5]" in out


def test_solve_pop_file(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("0.7\n0.2\n0.1\n")
    code, out, _ = run(capsys, "solve", "--nu", "1", "--K", "1", "--pop-file", str(path))
    assert code == 0
    assert "densities = [0.5, 0.25, 0.25]" in out


def test_solve_infeasible_exit_code(capsys):
    code, _, err = run(capsys, "solve", "--nu", "1", "--K", "1", "--M", "20", "--tau", "1")
    assert code == 2
    assert "infeasible" in err


@pytest.mark.parametrize(
    "argv",
    [
        # The one valid split is (l, r) = (M, M + 1): a one-file interior
        # whose budget K - (M - 1) is a few ulps below 1.
        "solve --nu 1 --K 3.9999999999999996 --M 4 --tau 2",
        "place --nu 1 --K 3.9999999999999996 --M 4 --tau 1.5",
        # The interior is the last 13,678 of 40,456 files, 1e-8 of the q
        # prefix sums, so their difference keeps few correct digits.
        "solve --nu 1 --K 34768 --M 40456 --tau 4",
    ],
)
def test_masses_lost_in_prefix_sums_still_solve(capsys, tmp_path, argv):
    argv = argv.split()
    out_path = tmp_path / "out.json"
    code, out, err = run(capsys, *argv, "--output", str(out_path))
    assert (code, err) == (0, "")
    if argv[0] == "place":
        assert out.endswith("valid = true\n")
    else:
        densities = json.loads(out_path.read_text())["densities"]
        assert math.fsum(densities) <= float(argv[argv.index("--K") + 1])


def test_place_full_replication(capsys):
    code, out, _ = run(capsys, "place", "--nu", "1", "--K", "3", "--M", "3", "--tau", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["123", "123"]
    assert lines[1].split() == ["123", "123"]
    assert "valid = true" in out


def test_place_writes_json(capsys, tmp_path):
    out_path = tmp_path / "placement.json"
    code, out, _ = run(
        capsys, "place", "--nu", "2", "--K", "1", "--M", "4", "--tau", "1",
        "--output", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["nu"] == 2 and doc["file_count"] == 4
    assert len(doc["buffers"]) == 16


def test_simulate_reports_identities(capsys, tmp_path):
    out_path = tmp_path / "loads.csv"
    code, out, _ = run(
        capsys, "simulate", "--nu", "2", "--K", "1", "--M", "4", "--tau", "0.8",
        "--output", str(out_path),
    )
    assert code == 0
    values = {}
    for line in out.splitlines():
        key, _, val = line.partition(" = ")
        values[key] = val
    assert float(values["load_identity_residual"]) <= 1e-9
    assert float(values["lemma3_margin"]) >= -1e-9
    assert float(values["theorem9_margin"]) >= -1e-9
    assert float(values["C_wn"]) >= float(values["C_an"])
    csv_lines = out_path.read_text().strip().splitlines()
    assert csv_lines[0] == "link_index,origin_x,origin_y,axis,load"


@pytest.mark.parametrize(
    "tau, m, csv_sha256",
    [
        ("0.8", "0.5*N", "9c235671d159c4b0fbd0783cd96f89e22c8daa8ff68a5a2609385c1f41c0a545"),
        ("2", "1.75*N", "f7e0f053235a09433956f8eed96009d633300aad2870a46794c29a99244801c5"),
    ],
    ids=["tau-0.8", "tau-2"],
)
def test_simulate_nu_7_csv_is_pinned(capsys, tmp_path, tau, m, csv_sha256):
    """The --output bytes of `simulate --nu 7 --K 2`: 32,768 links, two
    blocks of rows."""
    out = tmp_path / "loads.csv"
    argv = ["simulate", "--nu", "7", "--K", "2", "--M", m, "--tau", tau, "--output", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha256


@pytest.mark.parametrize(
    "tau, m, stdout_sha256",
    [
        ("0.8", "0.5*N", "079325b45f31201f31f96d0ec00c03bd379ae2e4668245111a2aef9d10720362"),
        ("2", "1.75*N", "6c84d7b01abb3eabd47da44dfe9fdf842ae910b649417a3b0db58435298337f6"),
    ],
    ids=["tau-0.8", "tau-2"],
)
def test_solve_nu_8_stdout_is_pinned(capsys, tau, m, stdout_sha256):
    """The stdout of `solve --nu 8 --K 2`, 32,768 and 114,688 densities."""
    assert main(["solve", "--nu", "8", "--K", "2", "--M", m, "--tau", tau]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha256


@pytest.mark.parametrize("tau", ["0", "0.8", "2"])
def test_solve_densities_line_matches_per_value_reference(capsys, tau):
    """40,000 densities: two full blocks of rows and a short one."""
    assert main(["solve", "--nu", "6", "--K", "16", "--M", "40000", "--tau", tau]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("densities = "))
    grid_n = 4**6
    pop = zipf(40000, float(tau))
    profile = density.solve_cd(grid_n, 16.0, pop)
    assert line == f"densities = [{', '.join(f'{v:.12g}' for v in profile.densities.tolist())}]"


_OUTPUT_CALLS = {
    "solve": ["solve", "--nu", "2", "--K", "2", "--M", "3", "--tau", "0.5"],
    "place": ["place", "--nu", "2", "--K", "2", "--M", "3", "--tau", "0.5"],
    "simulate": ["simulate", "--nu", "2", "--K", "2", "--M", "3", "--tau", "0.5"],
    "sweep": ["sweep", "--nus", "2,3,4", "--K", "2", "--M", "N", "--tau", "1"],
}


@pytest.mark.parametrize("command", sorted(_OUTPUT_CALLS))
@pytest.mark.parametrize("where", ["missing-directory", "directory", "empty"])
def test_bad_output_path_exits_2_before_any_work(capsys, tmp_path, monkeypatch, command, where):
    path = {"missing-directory": str(tmp_path / "none" / "x.out"), "directory": str(tmp_path), "empty": ""}[where]
    monkeypatch.setattr(cli, "_resolve_instance", lambda *a: pytest.fail("the instance was resolved"))
    monkeypatch.setattr(asymptotics, "sweep", lambda *a: pytest.fail("the sweep ran"))
    code, out, err = run(capsys, *_OUTPUT_CALLS[command], "--output", path)
    assert code == 2 and out == ""
    assert err.startswith("error: --output") and err.count("\n") == 1
    assert not (tmp_path / "none").exists()


@pytest.mark.parametrize("command", sorted(_OUTPUT_CALLS))
def test_output_file_untouched_when_the_run_fails(capsys, tmp_path, command):
    """The --output file is opened only once there is a result to write."""
    out = tmp_path / "kept.out"
    out.write_text("earlier result\n")
    argv = _OUTPUT_CALLS[command][:-1] + ["nan", "--output", str(out)]
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error: --tau")
    assert out.read_text() == "earlier result\n"


def test_sweep_command(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = run(
        capsys, "sweep", "--tau", "0.5", "--K", "2", "--M", "N",
        "--nus", "5,6,7,8", "--output", str(out_path),
    )
    assert code == 0
    fitted = float(next(l for l in out.splitlines() if l.startswith("fitted_exponent =")).split("=")[1])
    assert abs(fitted - 0.5) <= 0.1
    assert len(out_path.read_text().strip().splitlines()) == 5


@pytest.mark.parametrize(
    "argv, message",
    [
        ("sweep --K 2 --M N --tau 1 --nus 3,4,27", "at nu = 27, N exceeds 2^53"),
        ("sweep --K 2 --M N --tau 1 --nus 3,40,4", "at nu = 40, N exceeds 2^53"),
        ("sweep --K 3 --M N --tau 1 --nus 3,4,26", "at nu = 26, K*N exceeds 2^53"),
        # Feasibility is checked first, so an infeasible point says so.
        ("sweep --K 1 --M 2*N --tau 1 --nus 3,4,26", "infeasible: KN < M"),
        ("sweep --K 2 --M 3*N --tau 1 --nus 3,4,40", "infeasible: KN < M"),
    ],
)
def test_sweep_bounds_are_checked_before_any_point(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("tau", ["1e308", "1.5e7"])
def test_sweep_at_a_huge_tau_exits_2_before_any_power_sum(capsys, monkeypatch, tau):
    """2 tau / 3 is inf at 1e308; at 1.5e7 the power sums' direct terms
    alone would take gigabytes.  The head-size scan refuses both first."""
    monkeypatch.setattr(asymptotics, "_PowerSums", lambda s: pytest.fail("power sums built"))
    code, out, err = run(capsys, "sweep", "--K", "2", "--M", "N", "--nus", "3,4,5", "--tau", tau)
    assert (code, out) == (2, "")
    assert err == (
        f"error: tau = {float(tau):g} is too large for the head-size scan at K = 2: "
        "the candidate power 3^(-2 tau / 3) underflows\n"
    )


@pytest.mark.parametrize(
    "command, tau, first",
    [("solve", "1e308", 2), ("solve", "800", 3), ("place", "1e308", 2), ("simulate", "1e308", 2)],
)
def test_zipf_underflow_names_tau(capsys, command, tau, first):
    """i^(-tau) underflows to 0 from file `first` on: the message blames
    tau, not a catalog the user never gave."""
    code, out, err = run(capsys, command, "--nu", "3", "--K", "2", "--M", "N", "--tau", tau)
    assert (code, out) == (2, "")
    assert err == (
        f"error: tau = {float(tau):g} is too large for M = 64 files: "
        f"the Zipf popularity of file {first} underflows to 0\n"
    )


def test_sweep_reaches_k_n_of_2_to_the_53(capsys):
    code, out, _ = run(capsys, "sweep", "--K", "2", "--M", "N", "--tau", "1", "--nus", "3,4,26")
    assert code == 0
    assert out.splitlines()[-1].startswith(f"26,{4**26},{4**26},2,1,")


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "--nu", "6", "--K", "2", "--M", "N^0.6", "--tau", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["predicted_law"] == "C = Theta(1)"
    assert doc["truncation_state"] in ("empty", "almost_empty")


@pytest.mark.parametrize(
    "argv, message",
    [
        # K*N - 1000 at nu = 30 is not an exact float; it used to print
        # m_count = K*N - 1024 and exit 0.
        ("classify --nu 30 --K 2 --M K*N-1000 --tau 0.01", "N exceeds 2^53"),
        ("classify --nu 27 --K 1 --M N --tau 1", "N exceeds 2^53"),
        ("classify --nu 26 --K 3 --M N --tau 1", "K*N exceeds 2^53"),
        # Feasibility is checked first, as in sweep.
        ("classify --nu 30 --K 1 --M 2*N --tau 1", "infeasible: KN < M"),
    ],
)
def test_classify_bounds_exit_2_with_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["place", "simulate"])
@pytest.mark.parametrize("nu", [27, 40])
def test_placement_bounds_exit_2_with_one_line(capsys, command, nu):
    # Refused before solve_cd: at nu = 40 the placement once failed to
    # allocate terabytes, and simulate raised "array is too big".
    code, out, err = run(capsys, command, "--nu", str(nu), "--K", "2", "--M", "4", "--tau", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: N exceeds 2^53") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("nu", ["512", "1000000", pytest.param("9" * 400, id="400-digits")])
@pytest.mark.parametrize("argv", [
    *(f"{command} --K 2 --M 4 --tau 1" for command in ("solve", "place", "simulate", "classify")),
    "oracle --K 2 --M 4 --tau 1 --problem an",
    "oracle --K 2 --M 4 --tau 1 --problem cd",
    "simulate --K 2 --M 0.5*N --tau 1",
    "classify --K 2 --M 0.5*N --tau 1",
])
def test_a_grid_past_the_float_range_exits_2_naming_nu(capsys, argv, nu):
    # 4^512 is past the float range; the grid is refused before 4^nu is
    # formed, and before a nu past the float range meets a float.
    code, out, err = run(capsys, *argv.split(), "--nu", nu)
    assert (code, out) == (2, "")
    assert err == f"error: --nu: N = 4^{nu} is past the float range; use nu < 512\n"


@pytest.mark.parametrize("capacity, integer", [("1.9999999999999", "2"), ("0.9999999999999", "1")])
@pytest.mark.parametrize("command", ["oracle --problem an", "place"])
def test_oracle_and_place_round_capacity_alike(capsys, command, capacity, integer):
    argv = [*command.split(), "--nu", "1", "--M", "3", "--tau", "1", "--K"]
    assert run(capsys, *argv, capacity) == run(capsys, *argv, integer)
    assert run(capsys, *argv, capacity)[0] == 0


def test_classify_reaches_k_n_of_2_to_the_53(capsys):
    code, out, _ = run(capsys, "classify", "--nu", "26", "--K", "2", "--M", "N", "--tau", "1")
    assert code == 0 and json.loads(out)["m_count"] == 4**26


@pytest.mark.parametrize(
    "argv, stdout_sha256",
    [
        # l = 504 at nu = 5: about 500 r-bisections, each on exact power sums
        # before the estimates filtered them.
        ("sweep --K 2000 --M N^2 --tau 3 --nus 3,4,5", "384ff99d9894f949947e9ddbd741ac48dec36fc216dbbb18d1a8d1b8117dd5a3"),
        ("sweep --K 2 --M 1.75*N --tau 2 --nus 3,4,5,6,7,8,9,10", "787127153140e157595088895b5abae99b29c671cf8cd883d8b60ed9d82b2473"),
        ("classify --nu 10 --K 2 --M 1.75*N --tau 2", "5956b2dca0d92c5b440605c0264a41758d0ed1a2c563a36175ec639b6fb86bc0"),
    ],
    ids=["large-head", "sweep-tau-2", "classify-tau-2"],
)
def test_sweep_and_classify_stdout_is_pinned(capsys, argv, stdout_sha256):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha256


def _sweep_classify_grid():
    """The benchmark's 42 sweep and classify calls, then every (tau, K, M) of
    a wider grid: sweep at nu = 3..11 and classify at nu = 3 and 11, error
    exits included, then the tau = 0 tie K*N = M at N = 4."""
    calls = []
    for tau in ("0.5", "0.8", "1", "1.2", "1.5", "2", "3"):
        for m in ("N^0.6", "0.5*N", "1.75*N"):
            common = ["--K", "2", "--M", m, "--tau", tau]
            calls.append(["sweep", "--nus", "3,4,5,6,7,8,9,10", *common])
            calls.append(["classify", "--nu", "10", *common])
    for tau in ("0", "0.3", "0.5", "0.8", "1", "1.2", "1.5", "1.7", "2", "3", "4"):
        for k in ("1", "2", "3.5", "17"):
            for m in ("N^0.6", "0.5*N", "N", "1.75*N", "K*N-7", "K*N-0"):
                common = ["--K", k, "--M", m, "--tau", tau]
                calls.append(["sweep", "--nus", "3,4,5,6,7,8,9,10,11", *common])
                calls += [["classify", "--nu", nu, *common] for nu in ("3", "11")]
    calls.append(["sweep", "--K", "55.25", "--M", "221", "--tau", "0", "--nus", "1,2,3,4"])
    calls.append(["classify", "--K", "55.25", "--M", "221", "--tau", "0", "--nu", "1"])
    return calls


def test_sweep_and_classify_grid_is_pinned(capsys, tmp_path):
    """Exit code, stdout, stderr and --output file of 836 calls, in one
    SHA-256, unchanged since the split search filtered its probes with
    estimates but for three fitted exponents, each moved in its 12th digit
    to the exact least-squares slope when np.polyfit gave way to fsum
    sums.  To find a call that differs, print the per-call digests here
    and at an earlier commit and compare them."""
    digest = hashlib.sha256()
    out_path = tmp_path / "sweep.csv"
    for argv in _sweep_classify_grid():
        if argv[0] == "sweep":
            argv = [*argv, "--output", str(out_path)]
        code, out, err = run(capsys, *argv)
        written = out_path.read_bytes() if out_path.exists() else b""
        if out_path.exists():
            out_path.unlink()
        for part in (" ".join(argv[:-2] if argv[0] == "sweep" else argv), str(code), out, err):
            digest.update(part.encode() + b"\0")
        digest.update(written + b"\n")
    assert digest.hexdigest() == "f33d429dde21c11b8cb74d79570f37867930b4c6a18a0a72d665ddcd18703ab5"


def test_oracle_commands(capsys, tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("0.7\n0.2\n0.1\n")
    code, out, _ = run(capsys, "oracle", "--nu", "1", "--K", "1", "--pop-file", str(path), "--problem", "an")
    assert code == 0
    assert "best_avg_load = " in out
    code, out, _ = run(
        capsys, "oracle", "--nu", "1", "--K", "1", "--pop-file", str(path),
        "--problem", "cd", "--resolution", "0.01",
    )
    assert code == 0
    assert "grid_minimum = 0.139052429175" in out


def test_config_file_with_flag_override(capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"nu": 2, "capacity": 1, "m_count": "2", "tau": 0.0}))
    code, out, _ = run(capsys, "solve", "--config", str(config))
    assert code == 0
    assert "densities = [0.5, 0.5]" in out
    # Flag overrides the config's m_count.
    code, out, _ = run(capsys, "solve", "--config", str(config), "--M", "3")
    assert code == 0
    assert "r = " in out and "densities = [0.5, 0.5]" not in out
    # The catalog size may also be a JSON integer.
    config.write_text(json.dumps({"nu": 2, "capacity": 1, "m_count": 2, "tau": 0.0}))
    code, out, _ = run(capsys, "solve", "--config", str(config))
    assert code == 0
    assert "densities = [0.5, 0.5]" in out


def test_missing_option_is_config_error(capsys):
    code, _, err = run(capsys, "solve", "--nu", "2", "--K", "1")
    assert code == 2
    assert "missing required option" in err


def test_determinism(capsys):
    argv = ["simulate", "--nu", "2", "--K", "2", "--M", "7", "--tau", "1.1"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


@pytest.mark.parametrize(
    "argv, config",
    [
        ("solve --nu 1 --K 1 --pop-file nan.txt", None),
        ("classify --nu 3 --K 1 --M 4 --tau nan", None),
        ("solve --nu 2 --K 1 --M 4 --tau nan", None),
        ("sweep --nus 1,2,3 --K 1 --M 4 --tau nan", None),
        ("solve --nu 2 --K nan --M 4 --tau 1", None),
        ("solve --nu 2 --K inf --M 4 --tau 1", None),
        ("oracle --nu 1 --K inf --M 3 --tau 1", None),
        ("solve --nu 2 --K 1 --M K*N-1.2.3 --tau 1", None),
        ("sweep --nus 5,x --K 1 --M 4 --tau 1", None),
        ("sweep --nus 1,2,3 --K 0.5 --M 1 --tau 1", None),
        ("solve", {"nu": "x", "capacity": 1, "m_count": 4, "tau": 1}),
        ("solve", {"nu": 2.5, "capacity": 1, "m_count": 4, "tau": 1}),
        ("sweep", {"nus": 5, "capacity": 1, "m_count": 4, "tau": 1}),
        ("solve --nu 26 --K 1 --M N --tau 1", None),
        ("simulate --nu 2 --K 1 --M 100000000000000000000000 --tau 1", None),
        ("sweep --K 2 --M N --tau 1 --nus 3,4,40", None),
        ("sweep --K 2 --M N --tau 1 --nus 3,4,27", None),
        ("sweep --nus 1,2,3 --K 100 --M 5 --tau 1", None),  # C = 0 at every point
        ("sweep --nus 0,3,4 --K 2 --M N --tau 2", None),  # C = 0 at nu = 0
        ("sweep --nus 3,3,3 --K 2 --M N --tau 1", None),  # one M: no slope to fit
        # Two M whose logarithms round to one float: no slope to fit either.
        ("sweep --K 2 --M 2251799813680000*N^0.00000000000000006 --tau 0.5 --nus 25,26,26", None),
        ("classify --nu 4 --K 1e300 --M 3 --tau 5", None),
        # A path that is not a JSON string is not turned into one.
        ("place --nu 1 --K 1 --M 2 --tau 1", {"output": True}),
        ("place --nu 1 --K 1 --M 2 --tau 1", {"output": ["x"]}),
        ("simulate --nu 1 --K 1 --M 2 --tau 1", {"output": 0}),
        ("solve --nu 1 --K 1", {"pop_file": 0.5}),
        ("solve --nu 1 --K 1 --tau 1", {"m_count": True}),
    ],
)
def test_bad_values_exit_2_with_one_line(capsys, tmp_path, monkeypatch, argv, config):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nan.txt").write_text("0.5\nnan\n0.5\n")
    argv = argv.split()
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config))
        argv += ["--config", "config.json"]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    # No command here writes a file.
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", "nan.txt"][config is None:]


def _int_limit_error(digits: int) -> str | None:
    """The message of Python's error for an integer of that many digits, or
    None where the interpreter converts it (its digit limit is off or
    higher)."""
    try:
        int("7" * digits)
    except ValueError as exc:
        return str(exc)
    return None


_INT_LIMIT_ERROR = _int_limit_error(5000)
# A list nested far past the JSON parser's recursion limit on every Python,
# and an integer past Python's 4,300-digit limit for converting text to int.
_DEEP = "[" * 100_000 + "]" * 100_000
_LONG = "7" * 5000


@pytest.mark.parametrize(
    "argv, config, message",
    [
        ("solve", [2, 1.0], "config.json: config must be a JSON object"),
        ("place --nu 1 --K 0.5 --M 1 --tau 1", None, "placement needs integer capacity >= 1, got 0.5"),
        ("oracle --nu 1 --K 0.5 --M 1 --tau 1 --problem an", None,
         "placement needs integer capacity >= 1, got 0.5"),
        # argparse's choices see the flag, not the config file.
        ("oracle --nu 1 --K 1 --M 3 --tau 1", {"problem": "xx"},
         "unknown oracle problem 'xx'; use 'an' or 'cd'"),
        # The grid is named by nu, not by its 4^nu nodes.
        ("oracle --nu 3 --K 2 --M 4 --tau 1 --problem an", None, "oracle limited to nu <= 2, got nu = 3"),
        ("oracle --nu 511 --K 2 --M 4 --tau 1 --problem an", None,
         "oracle limited to nu <= 2, got nu = 511"),
        ("place --nu 1 --K 1 --M 2 --tau 1", {"output": True}, "--output: expected a string, got True"),
        ("solve --nu 1 --K 1", {"pop_file": 0.5}, "--pop-file: expected a string, got 0.5"),
        # A config given as bytes is written as they are.  Each file it
        # cannot decode or parse is named.
        pytest.param("solve", f'{{"nu": {_LONG}}}'.encode(), f"config.json: {_INT_LIMIT_ERROR}",
                     id="config-int-past-the-digit-limit",
                     marks=pytest.mark.skipif(_INT_LIMIT_ERROR is None, reason="no integer digit limit")),
        pytest.param("place", b"\xff{}",
                     "config.json: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
                     id="config-not-utf-8"),
        # Nested far past any interpreter's limit; the error's first words
        # vary with the Python version.
        pytest.param("sweep", f'{{"nus": {_DEEP}}}'.encode(),
                     re.compile(r"config\.json: .+ while decoding a JSON array from a unicode string"),
                     id="config-nested-past-the-recursion-limit"),
        pytest.param("solve --nu 1 --K 1 --pop-file pop.bin", None,
                     "pop.bin: 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte",
                     id="pop-file-not-utf-8"),
        pytest.param("classify", b"{",
                     "config.json: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
                     id="config-malformed"),
        # Names no file can have, from JSON escapes.
        pytest.param("oracle --nu 1 --K 1", {"pop_file": "a\0b"},
                     "--pop-file: 'a\\x00b' is not a name a file can have", id="pop-file-nul"),
        pytest.param("simulate --nu 1 --K 1 --M 2 --tau 1", {"output": "a\0b"},
                     "--output: 'a\\x00b' is not a name a file can have", id="output-nul"),
        pytest.param("solve --nu 1 --K 1 --M 2 --tau 1", {"output": "\ud800"},
                     "--output: '\\ud800' is not a name a file can have", id="output-lone-surrogate"),
    ],
)
def test_bad_config_and_capacity_exit_2_with_their_message(capsys, tmp_path, monkeypatch, argv,
                                                           config, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "pop.bin").write_bytes(b"0.5\n\xff0.5\n")
    argv = argv.split()
    if config is not None:
        text = config if isinstance(config, bytes) else json.dumps(config).encode()
        (tmp_path / "config.json").write_bytes(text)
        argv += ["--config", "config.json"]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    if isinstance(message, re.Pattern):
        assert re.fullmatch(f"error: {message.pattern}\n", err), err
    else:
        assert err == f"error: {message}\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json", "pop.bin"][config is None:]


@pytest.mark.parametrize("argv, key", [
    ("oracle --problem cd --nu 1 --K 1 --M 2 --tau 0.8", "resolution"),
    ("oracle --nu 1 --K 1 --M 2 --tau 0.8", "problem"),
    ("solve --nu 1 --K 1 --M 2 --tau 0.8", "output"),
    ("solve --K 1 --M 2 --tau 0.8", "nu"),
])
def test_a_config_null_leaves_the_option_unset(capsys, tmp_path, monkeypatch, argv, key):
    """A JSON null runs as if the key were absent: at the option's default,
    or as a missing required option."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps({key: None}))
    argv = argv.split()
    assert run(capsys, *argv, "--config", "config.json") == run(capsys, *argv)
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize(
    "argv",
    [
        "solve --jobs 2",
        "simulate --seed 1",
        "sweep --nu 5",
        "classify --output f",
        "classify --pop-file f",
        "oracle --output f",
    ],
)
def test_ignored_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_classify_large_capacity_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "classify", "--nu", "2", "--K", "1e6", "--M", "3", "--tau", "2")
    assert time.perf_counter() - start < 2.0
    assert code == 0 and json.loads(out)["predicted_law"] == "C = Theta(1)"


# Every subcommand but `oracle --problem an` must run with scipy unimportable.
NO_SCIPY_ARGVS = [
    "solve --nu 3 --K 2 --M 0.5*N --tau 0.8",
    "place --nu 3 --K 2 --M 1.75*N --tau 2",
    "simulate --nu 3 --K 2 --M 0.5*N --tau 0.8",
    "sweep --nus 3,4,5,6 --K 2 --M N^0.6 --tau 3",
    "classify --nu 5 --K 7 --M N --tau 2",
]
_RUN_WITHOUT_SCIPY = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
from replicagrid.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv.split())
    results.append([code, buf.getvalue()])
print(json.dumps(results))
"""


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this replicagrid."""
    src = os.path.dirname(os.path.dirname(replicagrid.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, check=True, timeout=120, env=env,
    )


def test_subcommands_run_without_scipy(capsys):
    proc = _python(_RUN_WITHOUT_SCIPY, json.dumps(NO_SCIPY_ARGVS))
    blocked = json.loads(proc.stdout)
    for argv, (code, out) in zip(NO_SCIPY_ARGVS, blocked):
        assert code == 0, argv
        assert out == run(capsys, *argv.split())[1], argv


def test_cli_import_loads_no_scipy():
    # Only `oracle` needs replicagrid.oracle, and only `oracle --problem an`
    # scipy; both are imported on first use.
    proc = _python(
        "import sys, replicagrid.cli; "
        "print('scipy' in sys.modules, 'replicagrid.oracle' in sys.modules)"
    )
    assert proc.stdout.strip() == "False False"


def test_oracle_an_imports_scipy_on_first_use():
    # nu = 2, M = 3, K = 1 is too many placements to enumerate: the
    # integer-program path runs.
    code = (
        "import sys; from replicagrid.cli import main; before = 'scipy' in sys.modules; "
        "status = main('oracle --nu 2 --K 1 --M 3 --tau 1 --problem an'.split()); "
        "print(before, status, 'scipy' in sys.modules)"
    )
    proc = _python(code)
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("best_avg_load = ")
    assert lines[1] == "instances_examined = 0"
    assert lines[-1] == "False 0 True"


def test_simulate_solves_once(capsys, monkeypatch):
    calls = []
    real = density.solve_cd

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(density, "solve_cd", counting)
    code, _, _ = run(capsys, "simulate", "--nu", "2", "--K", "1", "--M", "4", "--tau", "0.8")
    assert code == 0
    assert len(calls) == 1


def test_simulate_takes_one_lower_bound(capsys, monkeypatch):
    # The canonical placement's measured densities are the canonical ones,
    # so Lemma 3 and Theorem 9 share one bound.
    calls = []
    real = density.lower_bound

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(density, "lower_bound", counting)
    code, _, _ = run(capsys, "simulate", "--nu", "2", "--K", "1", "--M", "4", "--tau", "0.8")
    assert code == 0
    assert len(calls) == 1


# The option keys each subcommand reads, and the flags that set each key.
_INSTANCE_KEYS = {"config", "nu", "capacity", "m_count", "tau", "pop_file"}
OPTIONS_READ = {
    "solve": _INSTANCE_KEYS | {"output"},
    "place": _INSTANCE_KEYS | {"output"},
    "simulate": _INSTANCE_KEYS | {"output"},
    "sweep": {"config", "capacity", "m_count", "tau", "output", "nus"},
    "classify": {"config", "nu", "capacity", "m_count", "tau"},
    "oracle": _INSTANCE_KEYS | {"problem", "resolution"},
}
FLAGS = {
    "config": ("--config",),
    "nu": ("--nu",),
    "capacity": ("--capacity", "--K"),
    "m_count": ("--m-count", "--M"),
    "tau": ("--tau",),
    "pop_file": ("--pop-file",),
    "output": ("--output",),
    "nus": ("--nus",),
    "problem": ("--problem",),
    "resolution": ("--resolution",),
}


def test_each_subcommand_takes_only_the_options_it_reads():
    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {a.dest for a in sub._actions if a.dest not in ("help", "handler")}
        for name, sub in subs.choices.items()
    }
    assert got == OPTIONS_READ
    assert sum(len(v) for v in got.values()) == 40


def test_one_parser_serves_every_call(capsys, tmp_path, monkeypatch):
    """main reuses one parser per process; a run of every subcommand, a parse
    error and a --config run in turn gives what fresh parsers give."""
    assert build_parser() is build_parser()
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps({"nu": 2, "capacity": 2, "tau": 0.8}))
    calls = [
        "solve --nu 2 --K 2 --M 0.5*N --tau 0.8 --output out.json",
        "place --nu 2 --K 2 --M 1.75*N --tau 2 --output out.json",
        "simulate --nu 2 --K 2 --M 0.5*N --tau 0.8 --output out.csv",
        "sweep --nus 2,3,4 --K 2 --M N --tau 1 --output out.csv",
        "classify --nu 5 --K 2 --M 0.5*N --tau 2",
        "oracle --nu 1 --K 1 --M 3 --tau 1 --problem cd --resolution 0.05",
        "simulate --nu 2 --K 2 --nus 3",  # not an option of simulate
        "simulate --config config.json --M 3",
        "classify --nu 5 --K 2 --M 0.5*N --tau 2",
    ]

    def run_all():
        results = []
        for call in calls:
            for name in ("out.json", "out.csv"):
                (tmp_path / name).unlink(missing_ok=True)
            try:
                code = main(call.split())
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            written = sorted(p.read_bytes() for p in tmp_path.glob("out.*"))
            results.append((code, captured.out, captured.err, written))
        return results

    shared = run_all()
    assert [r[0] for r in shared] == [0, 0, 0, 0, 0, 0, 2, 0, 0]
    monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
    assert shared == run_all()


# Small valid values (nu <= 1 for oracle, so that every case runs fast) and
# the bad values every option is also tried with.
VALID = {
    "config": "config.json",
    "nu": "2",
    "capacity": "2",
    "m_count": "3",
    "tau": "0.8",
    "pop_file": "probs.txt",
    "output": "out.txt",
    "nus": "1,2,3",
    "problem": "cd",
    "resolution": "0.05",
}
BAD = ["0", "-1", "nan", "inf", "x", ""]


def _work_dir(tmp_path, monkeypatch):
    """A fresh directory, made current, with the files VALID names."""
    work = tmp_path / str(len(list(tmp_path.iterdir())))
    work.mkdir()
    monkeypatch.chdir(work)
    (work / "probs.txt").write_text("0.5\n0.3\n0.2\n")
    (work / "config.json").write_text(
        json.dumps({"nu": 1, "capacity": 1, "m_count": "3", "tau": 0.8})
    )


def _draw_argv(data) -> list[str]:
    command = data.draw(st.sampled_from(sorted(OPTIONS_READ)))
    # Mostly options the subcommand reads, sometimes any option or --help.
    keys = data.draw(st.lists(st.sampled_from(sorted(OPTIONS_READ[command])), max_size=7))
    keys += data.draw(st.lists(st.sampled_from(sorted(FLAGS) + ["help"]), max_size=1))
    argv = [command]
    for key in keys:
        if key == "help":
            argv.append("--help")
            continue
        valid = "1" if (key, command) == ("nu", "oracle") else VALID[key]
        argv.append(data.draw(st.sampled_from(FLAGS[key])))
        argv.append(data.draw(st.one_of(st.just(valid), st.sampled_from(BAD))))
    return argv


def _outcome(capsys, argv):
    """(exit code, stdout, stderr, bytes of out.txt or None) of main(argv),
    a usage exit included; out.txt is removed after."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    written = None
    if os.path.exists("out.txt"):
        with open("out.txt", "rb") as fh:
            written = fh.read()
        os.remove("out.txt")
    return code, captured.out, captured.err, written


def _both_parses(capsys, monkeypatch, argv):
    """main's outcome as it is, and with argv parsed by the top-level parser."""
    direct = _outcome(capsys, argv)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parse", lambda argv: build_parser().parse_args(argv))
        through_top = _outcome(capsys, argv)
    return direct, through_top


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_any_argv_exits_0_2_or_3(capsys, tmp_path, monkeypatch, data):
    _work_dir(tmp_path, monkeypatch)
    argv = _draw_argv(data)
    assert _outcome(capsys, argv)[0] in (0, 2, 3), argv


# Valid JSON values of every config key (nu <= 2), and the values each key
# is also tried with: JSON null, booleans, numbers, short strings, lists,
# a list nested past the JSON parser's recursion limit and an integer past
# Python's 4,300-digit limit for converting text to int.
CONFIG_VALID = {
    "config": "config.json",
    "nu": 1,
    "capacity": 2,
    "m_count": "N",
    "tau": 0.8,
    "pop_file": "probs.txt",
    "output": "out.txt",
    "nus": [1, 2, 3],
    "problem": "cd",
    "resolution": 0.05,
}
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.sampled_from([0, 1, 2, -1, 0.5, 2.5, 1e300, math.nan, -math.inf]),
    st.text(max_size=4),
)


@st.composite
def _config_files(draw) -> bytes:
    """Raw bytes, or a JSON object of valid values (no pop_file) with a few
    keys' values drawn."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=16))
    values = {key: json.dumps(value) for key, value in CONFIG_VALID.items() if key != "pop_file"}
    for key in draw(st.lists(st.sampled_from(sorted(CONFIG_VALID)), unique=True, max_size=3)):
        values[key] = draw(st.one_of(
            st.one_of(st.just(CONFIG_VALID[key]), _SCALARS, st.lists(_SCALARS, max_size=3)).map(json.dumps),
            st.sampled_from([_DEEP, _LONG]),
        ))
    return ("{" + ", ".join(f"{json.dumps(key)}: {value}" for key, value in values.items()) + "}").encode()


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(command=st.sampled_from(sorted(OPTIONS_READ)), config=_config_files(),
       pop=st.none() | st.binary(max_size=16))
@example(command="solve", config=f'{{"nu": {_LONG}}}'.encode(), pop=None)
@example(command="place", config=b"\xff{}", pop=None)
@example(command="sweep", config=f'{{"nus": {_DEEP}}}'.encode(), pop=None)
@example(command="oracle", config=b"{}", pop=b"0.5\n\xff\n")
@example(command="oracle", pop=None, config=json.dumps(
    {"problem": "cd", "nu": 1, "capacity": 1, "m_count": 2, "tau": 0.8, "resolution": None}).encode())
def test_any_config_or_popularity_file_exits_0_2_or_3(capsys, tmp_path, monkeypatch, command,
                                                      config, pop):
    """Each subcommand with a drawn --config file (and, for solve and
    oracle, drawn --pop-file bytes) exits 0, 2 or 3, and on 2 prints one
    error line."""
    _work_dir(tmp_path, monkeypatch)
    with open("config.json", "wb") as fh:
        fh.write(config)
    argv = [command, "--config", "config.json"]
    if pop is not None and command in ("solve", "oracle"):
        with open("probs.bin", "wb") as fh:
            fh.write(pop)
        argv += ["--nu", "1", "--K", "1", "--pop-file", "probs.bin"]
    code, _, err, _ = _outcome(capsys, argv)
    assert code in (0, 2, 3), (argv, config, pop)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, err


_SWEEP = "sweep --nus 3,4,5 --K 2 --M N --tau 1"
PARSE_CASES = [
    "",  # no command
    "bogus",
    "-h",
    "--help",
    "-h sweep",
    "--nu 3 sweep",
    *(f"{command} --help" for command in sorted(OPTIONS_READ)),
    "sweep --nu 5",
    "simulate --nus 3",
    "classify --nu x",  # a bad int
    "classify --nu 3 --K x",  # a bad float
    "classify --nu 3 --K 2 --M N --tau",  # a missing value
    "classify --nu 3 --nu 4 --K 2 --M N --tau 1",  # a repeated option
    "classify --nu 4 --K 2 --M N --tau 1 --K 3",
    "classify -- --nu 3",
    f"{_SWEEP} -- x",
    f"{_SWEEP} extra more",
    f"{_SWEEP} -h",
    "oracle --nu 1 --K 1 --M 3 --tau 1 --problem zz",
    _SWEEP,
    "classify --nu 10 --K 2 --M 0.5*N --tau 0.8",
    "sweep --nus=3,4,5 --K=2 --M=N --tau=1",
    "sweep --nus 3,4,5 --K 2 --M N --ta 1",  # no abbreviations
]


@pytest.mark.parametrize("via_sys_argv", [False, True], ids=["argv", "sys.argv"])
@pytest.mark.parametrize("argv", PARSE_CASES)
def test_main_parses_as_the_top_level_parser_does(capsys, tmp_path, monkeypatch, argv,
                                                  via_sys_argv):
    monkeypatch.chdir(tmp_path)
    argv = argv.split()
    if via_sys_argv:
        monkeypatch.setattr(sys, "argv", ["replicagrid", *argv])
    direct, through_top = _both_parses(capsys, monkeypatch, None if via_sys_argv else argv)
    assert direct == through_top
    assert direct[0] in (0, 2)


@pytest.mark.parametrize("argv", [
    _SWEEP,
    "classify --nu 4 --K 2 --M N --tau 1 --K 3",
    "solve --config c.json --output o.json",
    "oracle --nu 1 --problem cd --resolution 0.05",
])
def test_one_pass_gives_the_top_level_namespace(argv):
    argv = argv.split()
    assert vars(cli._parse(argv)) == vars(build_parser().parse_args(argv))


def _parse_outcome(capsys, parse, argv):
    """(vars of the namespace or None, exit code or None, stdout, stderr)
    of parse(argv)."""
    try:
        got, code = vars(parse(argv)), None
    except SystemExit as exc:
        got, code = None, exc.code
    captured = capsys.readouterr()
    return got, code, captured.out, captured.err


@pytest.mark.parametrize("argv, plain", [
    ("classify --nu 3 --tau=2", False),
    ("classify --nu 3 --tau -1", False),  # argparse takes -1 as a value
    ("classify --nu 4.0", False),
    ("oracle --nu 1 --problem xx", False),
    ("oracle --nu 1 --problem cd", True),
    ("classify --K 2 --capacity 3", True),
    ("classify --capacity 3 --K 2", True),
    ("classify --M '' --nu 3", False),  # argparse takes '' as a value
    ("classify --nu 3 -- --tau 2", False),
    ("classify --nu 3 --", False),
    ("sweep -h --nus 3", False),
    ("classify -h", False),
    ("sweep --nus 3 --ta 2", False),
    ("simulate --nus 3", False),
    ("classify --nu 3 --tau", False),  # no value
    ("classify --nu --tau 2", False),  # an option as the value
    ("classify --nu --tau", False),
    ("sweep", True),
    ("bogus --nu 3", False),
])
def test_argv_reads_plain_or_falls_back(capsys, argv, plain):
    """Each argv either reads plain or goes through the top-level parser;
    both give that parser's namespace, or its exit code and messages."""
    argv = shlex.split(argv)
    parser = build_parser()
    assert (cli._plain_args(argv) is not None) == plain
    got = _parse_outcome(capsys, cli._parse, argv)
    assert got == _parse_outcome(capsys, parser.parse_args, argv)
    if plain:
        assert got[1] is None


def _benchmark_argv(tmp_path):
    """The benchmark's argv at its default seed: 42 sweep and classify, and
    simulate and place in two regimes each."""
    calls = _sweep_classify_grid()[:42]
    for command, nu in (("simulate", "4"), ("place", "6")):
        for m, tau in (("0.5*N", "0.8"), ("1.75*N", "2")):
            out = str(tmp_path / f"{command}-{tau}.out")
            calls.append([command, "--nu", nu, "--K", "2", "--M", m, "--tau", tau, "--output", out])
    return calls


def test_benchmark_argv_make_no_argparse_parse(tmp_path, monkeypatch):
    """Every argv the benchmark runs is plain: no argparse parse reads it."""
    calls = _benchmark_argv(tmp_path)
    assert len(calls) == 46
    parses = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        parses.append(args)
        return parse_known_args(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
        got = [vars(cli._parse(argv)) for argv in calls]
    assert parses == []
    assert got == [vars(build_parser().parse_args(argv)) for argv in calls]


def _no_parse(self, *args, **kwargs):
    raise AssertionError(f"argparse parse of {args}")


def test_each_flag_reads_plain_as_the_parser_parses_it(monkeypatch):
    """Each bare subcommand, and each with one of its flags and a valid
    value, reads plain into the namespace build_parser().parse_args gives."""
    calls = [[command] for command in sorted(OPTIONS_READ)]
    calls += [
        [command, flag, VALID[key]]
        for command in sorted(OPTIONS_READ)
        for key in sorted(OPTIONS_READ[command])
        for flag in FLAGS[key]
    ]
    assert len(calls) == 6 + 40 + 12  # --K/--capacity and --M/--m-count in each
    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "parse_known_args", _no_parse)
        got = [vars(cli._parse(argv)) for argv in calls]
    assert got == [vars(build_parser().parse_args(argv)) for argv in calls]


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_any_argv_parses_as_through_the_top_level_parser(capsys, tmp_path, monkeypatch, data):
    _work_dir(tmp_path, monkeypatch)
    argv = _draw_argv(data)
    direct, through_top = _both_parses(capsys, monkeypatch, argv)
    assert direct == through_top, argv
