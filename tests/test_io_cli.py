import subprocess
import sys

import pytest

from hemirings import (
    FiniteSemilattice,
    boolean_B,
    check_hemiring_axioms,
    format_algebra,
    matrix_semiring,
    parse_algebra,
    write_algebra,
)
from hemirings import core
from hemirings.io import ParseError

from conftest import chain_semilattice, direct_product


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "hemirings.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


def test_round_trip_hemirings(B, two, z3, m2b):
    for R in (B, two, z3, m2b.hemiring):
        back = parse_algebra(format_algebra(R))
        assert back == R
        assert format_algebra(back) == format_algebra(R)


def test_round_trip_semilattice(c3, m3):
    for M in (c3, m3):
        back = parse_algebra(format_algebra(M))
        assert back == M


def test_comments_and_blank_lines_ignored(B):
    text = "# header\n\n" + format_algebra(B).replace("add\n", "# tables\nadd\n")
    assert parse_algebra(text) == B


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as exc:
        parse_algebra("order 2\nzero 0\nadd\n0 1\n1 9\nmul\n0 0\n0 1\n")
    assert exc.value.line == 5
    with pytest.raises(ParseError) as exc:
        parse_algebra("order 2\nzero 5\nadd\n")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_algebra("order 2\nzero 0\nadd\n0 1\n")   # truncated table


def test_parse_rejects_invalid_algebra():
    # tables parse but fail the axioms
    with pytest.raises(Exception):
        parse_algebra("order 2\nzero 0\nadd\n0 1\n0 1\nmul\n0 0\n0 1\n")


def test_cli_check_and_classify(tmp_path, B):
    f = tmp_path / "b.alg"
    write_algebra(B, f)
    r = run_cli("check", str(f))
    assert r.returncode == 0 and "pass" in r.stdout
    r = run_cli("classify", str(f), "--format", "structured")
    assert r.returncode == 0
    got = dict(line.split(": ") for line in r.stdout.strip().splitlines())
    assert got["simple"] == "true"
    assert got["aic"] == "true"
    assert got["lattice-ordered"] == "true"
    assert got["division"] == "true"
    assert got["infinite-element"] == "1"
    assert got["iso-to-B"] == "true"


def perturbed_text(R, x, y):
    """R's file text with mul[x][y] moved to the next element."""
    mul = R.mul.copy()
    mul[x, y] = (mul[x, y] + 1) % R.order
    lines = [f"order {R.order}", f"zero {R.zero}"]
    if R.one is not None:
        lines.append(f"one {R.one}")
    lines.append("add")
    lines += [" ".join(map(str, row)) for row in R.add.tolist()]
    lines.append("mul")
    lines += [" ".join(map(str, row)) for row in mul.tolist()]
    return "\n".join(lines) + "\n", mul


def test_cli_check_reports_failing_axioms(tmp_path, plain_hemirings_upto3):
    unital = next(R for R in plain_hemirings_upto3 if R.order == 3 and R.one is not None)
    plain = next(R for R in plain_hemirings_upto3 if R.order == 3 and R.one is None)
    for R in (unital, plain):
        text, mul = perturbed_text(R, 1, 2)
        report = check_hemiring_axioms(R.add, mul, R.zero, R.one)
        assert not report.ok
        f = tmp_path / f"{R.name}.alg"
        f.write_text(text)
        r = run_cli("check", str(f))
        assert (r.returncode, r.stdout) == (1, report.summary() + "\n")
        r = run_cli("check", str(f), "--format", "structured")
        want = [f"order: {R.order}"]
        want += [f"{c.axiom}: " + ("pass" if c.ok else f"fail {c.witness}")
                 for c in report.checks]
        want.append("valid: false")
        assert (r.returncode, r.stdout.splitlines()) == (1, want)


def test_cli_check_large_endo_table(tmp_path, monkeypatch):
    """An emitted E_M of order > 25, which the checker decides by its
    reduced test, passes; with one cell changed, check prints the
    witnesses of the scan that holds the whole cube in one slab."""
    f = tmp_path / "c5.alg"
    write_algebra(chain_semilattice(5), f)
    assert run_cli("endo", str(f), "--out", str(tmp_path)).returncode == 0
    em = tmp_path / "c5_EM.alg"
    E = parse_algebra(em.read_text())
    assert E.order ** 3 > core._SLAB_CELLS
    r = run_cli("check", str(em))
    assert r.returncode == 0 and "FAIL" not in r.stdout
    text, mul = perturbed_text(E, E.order // 2, E.order // 3)
    monkeypatch.setattr(core, "_SLAB_CELLS", E.order ** 3)
    report = check_hemiring_axioms(E.add, mul, E.zero, E.one)
    assert not report.ok
    bad = tmp_path / "bad.alg"
    bad.write_text(text)
    r = run_cli("check", str(bad))
    assert (r.returncode, r.stdout) == (1, report.summary() + "\n")


SEMILATTICE_TEXT = "kind semilattice\norder 3\nzero 0\nadd\n0 1 2\n1 1 {}\n2 {} 2\n"


def test_cli_check_reports_a_failing_semilattice(tmp_path):
    f = tmp_path / "bad.alg"
    f.write_text(SEMILATTICE_TEXT.format(0, 0))      # 1 v 2 = 0
    r = run_cli("check", str(f), "--format", "structured")
    assert (r.returncode, r.stdout.splitlines()) == (1, [
        "kind: semilattice", "order: 3", "associative: fail (1, 1, 2)", "valid: false"])
    r = run_cli("check", str(f))
    assert (r.returncode, r.stdout) == (
        1, "kind=semilattice, order=3, associative=fail (1, 1, 2), valid=false\n")
    f.write_text(SEMILATTICE_TEXT.format(2, 2))      # the chain C3
    r = run_cli("check", str(f), "--format", "structured")
    assert (r.returncode, r.stdout) == (0, "kind: semilattice\norder: 3\nvalid: true\n")


@pytest.mark.parametrize("command, name", [
    (["congruences"], "congruences"), (["ideals"], "ideals"),
    (["matrix", "--n", "2"], "matrix"), (["morita", "corner", "--idempotent", "1"], "corner"),
])
def test_cli_hemiring_commands_reject_a_semilattice_file(tmp_path, command, name):
    f = tmp_path / "c3.alg"
    f.write_text(SEMILATTICE_TEXT.format(2, 2))
    r = run_cli(*command, str(f))
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"{name} needs a hemiring file\n")


def test_cli_input_errors_print_the_bare_message(tmp_path, B):
    f = tmp_path / "b.alg"
    write_algebra(B, f)
    r = run_cli("endo", str(f))
    assert (r.returncode, r.stdout, r.stderr) == (
        2, "", "endo needs a semilattice file (kind semilattice)\n")
    r = run_cli("morita", "corner", str(f), "--idempotent", "2")
    assert (r.returncode, r.stdout, r.stderr) == (
        2, "", "element 2 is not an idempotent of the algebra\n")


@pytest.mark.parametrize("text, line", [
    (SEMILATTICE_TEXT.format(3, 2), 6),                         # entry out of range
    (SEMILATTICE_TEXT.format(2, 2).replace("2 2 2", "2 2"), 7),  # short row
])
def test_cli_check_rejects_a_malformed_semilattice_file(tmp_path, text, line):
    f = tmp_path / "bad.alg"
    f.write_text(text)
    r = run_cli("check", str(f))
    assert r.returncode == 2 and r.stdout == ""
    assert f"parse error: line {line}:" in r.stderr


def test_cli_classify_z2(tmp_path, z2):
    f = tmp_path / "z2.alg"
    write_algebra(z2, f)
    r = run_cli("classify", str(f), "--format", "structured")
    got = dict(line.split(": ") for line in r.stdout.strip().splitlines())
    assert got["ring"] == "true"
    assert got["simple"] == "true"
    assert got["additively-idempotent"] == "false"


def test_cli_classify_diamond_endos(tmp_path, e_m3):
    f = tmp_path / "em3.alg"
    write_algebra(e_m3.hemiring, f)
    r = run_cli("classify", str(f), "--format", "structured")
    got = dict(line.split(": ") for line in r.stdout.strip().splitlines())
    assert got["congruence-simple"] == "true"
    assert got["ideal-simple"] == "false"


def test_cli_parse_error_exit_code(tmp_path):
    f = tmp_path / "bad.alg"
    f.write_text("order 2\nzero 0\nadd\n0 1\n1 9\nmul\n0 0\n0 1\n")
    r = run_cli("check", str(f))
    assert r.returncode == 2
    assert "line 5" in r.stderr


def test_cli_endo_roundtrips(tmp_path, c3):
    f = tmp_path / "c3.alg"
    write_algebra(c3, f)
    r = run_cli("endo", str(f), "--out", str(tmp_path))
    assert r.returncode == 0
    em = parse_algebra((tmp_path / "c3_EM.alg").read_text())
    fm = parse_algebra((tmp_path / "c3_FM.alg").read_text())
    assert em.order == 6 and fm.order == 6
    assert "full-equals-generated=true" in r.stdout
    assert "distributive=true" in r.stdout
    rc = run_cli("check", str(tmp_path / "c3_EM.alg"))
    assert rc.returncode == 0


def test_cli_endo_diamond(tmp_path, m3):
    f = tmp_path / "m3.alg"
    write_algebra(m3, f)
    r = run_cli("endo", str(f), "--out", str(tmp_path))
    assert "full-equals-generated=false" in r.stdout
    assert "distributive=false" in r.stdout


def test_cli_endo_trivial_lattice(tmp_path):
    f = tmp_path / "pt.alg"
    write_algebra(FiniteSemilattice([[0]]), f)
    r = run_cli("endo", str(f), "--out", str(tmp_path))
    assert r.returncode == 0
    assert "endo-order=1" in r.stdout


def test_cli_congruences_and_ideals(tmp_path, z4):
    f = tmp_path / "z4.alg"
    write_algebra(z4, f)
    r = run_cli("congruences", str(f))
    assert r.returncode == 0 and r.stdout.startswith("count: 3")
    r = run_cli("ideals", str(f))
    assert r.returncode == 0 and r.stdout.startswith("count: 3")


def test_cli_reader_closing_the_pipe_is_not_an_error(tmp_path, plain_hemirings_upto3):
    # the order-36 product's congruence dump (285 kB) outgrows the pipe
    catalog = {R.name: R for R in plain_hemirings_upto3}
    f = tmp_path / "p36.alg"
    write_algebra(direct_product(*(catalog[name] for name in
                                   ("hr2_000", "hr2_000", "hr3_000", "hr3_000"))), f)
    proc = subprocess.Popen([sys.executable, "-m", "hemirings.cli", "congruences", str(f)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "count: 2092\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == ""
    proc.stderr.close()


def test_cli_size_guard_exit(tmp_path):
    # M_2(GF(4)) x GF(2) (order 512, not idempotent) is not congruence-simple,
    # so its walk of all 130,816 pairs is refused
    from hemirings import finite_field, matrix_semiring
    R = direct_product(matrix_semiring(finite_field(4), 2).hemiring, finite_field(2))
    f = tmp_path / "big.alg"
    write_algebra(R, f)
    r = run_cli("congruences", str(f))
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr == ("size guard: congruence lattice enumeration is bounded at "
                        "CLOSURE_BUDGET = 100000000; asked for 34292629504 table cells "
                        "(130816 closures at order 512)\n")


def test_cli_congruences_decides_before_the_budget(tmp_path):
    # M_2(GF(4)) (order 256) would ask for 32,640 closures, past the budget,
    # but it is congruence-simple, which the decider settles first
    from hemirings import finite_field, matrix_semiring
    f = tmp_path / "m2gf4.alg"
    write_algebra(matrix_semiring(finite_field(4), 2).hemiring, f)
    r = run_cli("congruences", str(f))
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout.startswith("count: 2\n")


def test_cli_enumerate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        r = run_cli("enumerate", "semilattices", "--order", "4", "--out", str(out))
        assert r.returncode == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2 and "index.txt" in files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cli_enumerate_files_reparse(tmp_path):
    out = tmp_path / "cat"
    run_cli("enumerate", "hemirings", "--order", "2", "--out", str(out))
    algs = sorted(p for p in out.iterdir() if p.suffix == ".alg")
    assert len(algs) == 4
    for p in algs:
        alg = parse_algebra(p.read_text())
        assert format_algebra(alg) == p.read_text()


def test_cli_matrix_command(tmp_path, B):
    f = tmp_path / "b.alg"
    write_algebra(B, f)
    out = tmp_path / "m2b.alg"
    r = run_cli("matrix", str(f), "--n", "2", "--out", str(out))
    assert r.returncode == 0
    M = parse_algebra(out.read_text())
    assert M.order == 16
    assert M == matrix_semiring(boolean_B(), 2).hemiring


def test_cli_morita_corner(tmp_path, m2b):
    f = tmp_path / "m2b.alg"
    write_algebra(m2b.hemiring, f)
    e11 = m2b.unit(0, 0)
    out = tmp_path / "corner.alg"
    r = run_cli("morita", "corner", str(f), "--idempotent", str(e11),
                "--out", str(out))
    assert r.returncode == 0
    assert "full: true" in r.stdout
    c = parse_algebra(out.read_text())
    assert c.order == 2
    # non-idempotent input is an input error
    r = run_cli("morita", "corner", str(f), "--idempotent", str(m2b.unit(0, 1)))
    assert r.returncode == 2


def test_cli_verify_exit_codes():
    r = run_cli("verify", "thm6_7")
    assert r.returncode == 0 and "verdict: confirmed" not in r.stdout  # text format
    r = run_cli("verify", "thm6_7", "--format", "structured")
    assert r.returncode == 0 and "verdict: confirmed" in r.stdout
    r = run_cli("verify", "thm3_3", "--max-order", "9")
    assert r.returncode == 3
    r = run_cli("verify", "nope")
    assert r.returncode == 2


def test_cli_verify_names_the_bound_it_skips():
    r = run_cli("verify", "thm2_2", "--max-order", "5")
    assert r.returncode == 3
    assert r.stdout == "suite thm2_2: skipped(size) (0 instances)\n"
    assert r.stderr == ("size guard: suite thm2_2 is bounded at max-order 4; "
                        "asked for 5\n")


def test_cli_enumerate_names_the_bound_it_exceeds(tmp_path):
    r = run_cli("enumerate", "hemirings", "--order", "4", "--out", str(tmp_path / "D"))
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr == ("size guard: hemiring enumeration is bounded at "
                        "HEMIRING_ORDER_BOUND = 3; asked for order 4\n")
    # the output directory is made only once the enumeration has returned
    assert not (tmp_path / "D").exists()


@pytest.mark.parametrize("max_order", ["0", "-3"])
def test_cli_verify_rejects_non_positive_max_order(max_order):
    r = run_cli("verify", "thm3_3", "--max-order", max_order)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "max-order must be at least 1" in r.stderr


def test_cli_classify_has_no_max_order():
    from hemirings.cli import main
    with pytest.raises(SystemExit) as exc:
        main(["classify", "f", "--max-order", "5"])
    assert exc.value.code == 2


def test_cli_verify_lets_program_faults_propagate(monkeypatch):
    """A KeyError inside a suite is a bug in the program, not an input error."""
    import hemirings.verify as verify
    from hemirings.cli import main

    def raising(*args):
        raise KeyError(3)

    monkeypatch.setattr(verify, "corner_ideal_to_ring", raising)
    with pytest.raises(KeyError):
        main(["verify", "prop5_3", "--max-order", "2"])


def test_cli_verify_report_file(tmp_path):
    out = tmp_path / "report.txt"
    r = run_cli("verify", "cor5_8", "--format", "structured", "--out", str(out))
    assert r.returncode == 0
    text = out.read_text()
    assert text.startswith("suite: cor5_8")
    assert text.rstrip().endswith("verdict: confirmed")
