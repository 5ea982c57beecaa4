import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from repst import bounds, cli, deligne, groupalg, partitions, schurweyl, snoracle, verify
from repst.exact import ExactPolynomial, NonDivisibleError, NotIntegerValuedError, OutOfBoundsError, T
from repst.partitions import format_partition, parse_partition, partitions_up_to
from conftest import poly_from_json


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_process(*argv):
    """The CLI in a child process, so that a cap that does not fail fast
    fails the test by its timeout instead of hanging the run."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    env.pop("REPST_LIMITS", None)
    return subprocess.run([sys.executable, "-m", "repst.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=20)


def test_dim_human_output(capsys):
    code, out, _ = run_cli(capsys, "dim", "--lambda", "2")
    assert code == 0
    assert "1/2*t^2 - 3/2*t" in out
    assert "binom(t,2) - binom(t,1)" in out


def test_dim_json_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "dim", "--lambda", "2,1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == "2,1"
    poly = poly_from_json(data["dimension"])
    assert poly == deligne.dimension_poly((2, 1))
    binom = poly_from_json(data["dimension_binomial"])
    assert binom.to_monomial() == poly


def test_dim_t_eval_matches_oracle(capsys):
    from repst import snoracle as sn
    from repst.partitions import pad
    code, out, _ = run_cli(capsys, "dim", "--lambda", "2", "--t-eval", "7", "--json")
    data = json.loads(out)
    num, den = data["t_eval"]["value"]
    assert Fraction(int(num), int(den)) == sn.hook_dim(pad((2,), 7))


def test_pieri_empty(capsys):
    code, out, _ = run_cli(capsys, "pieri", "--lambda", "", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [{"partition": "1", "mult": 1}]


def test_pieri_json_sorts_terms_by_size_then_partition(capsys):
    code, out, _ = run_cli(capsys, "pieri", "--lambda", "2,1", "--json")
    assert code == 0
    assert json.loads(out)["terms"] == [
        {"partition": "1,1", "mult": 1}, {"partition": "2", "mult": 1},
        {"partition": "1,1,1", "mult": 1}, {"partition": "2,1", "mult": 2},
        {"partition": "3", "mult": 1}, {"partition": "2,1,1", "mult": 1},
        {"partition": "2,2", "mult": 1}, {"partition": "3,1", "mult": 1},
    ]


def test_omega_m_matches_jm(capsys):
    code, out, _ = run_cli(capsys, "omega-m", "--rho", "1", "--lambda", "1", "--json")
    assert code == 0
    poly = poly_from_json(json.loads(out)["eigenvalue"])
    assert poly == deligne.jm_eigenvalue((1,))


def test_class_size_eval(capsys):
    code, out, _ = run_cli(capsys, "class-size", "--rho", "0,1", "--t-eval", "5")
    assert code == 0
    assert "20" in out


def test_rho_is_echoed_as_parsed(capsys):
    code, out, _ = run_cli(capsys, "class-size", "--rho", " 0,  1", "--json")
    assert code == 0 and json.loads(out)["rho"] == "0,1"
    for command in (["class-size"], ["omega-m", "--lambda", "2"]):
        answers = [run_cli(capsys, *command, "--rho", rho, "--json") for rho in ("1,0", "1")]
        assert answers[0] == answers[1] and json.loads(answers[0][1])["rho"] == "1"


def test_hilbert_table(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--h", "1,1", "--deg", "3", "--json")
    assert code == 0
    data = json.loads(out)
    from repst.exact import binomial_poly
    for k in range(4):
        assert poly_from_json(data["coefficients"][str(k)]) == binomial_poly(0, k)


def test_verma_command(capsys):
    code, out, _ = run_cli(capsys, "verma", "--lambda", "", "--N", "4", "--t-max", "5", "--json")
    assert code == 0
    assert json.loads(out)["t"] == [0, 1, 2, 3, 4, 5]
    code, out, _ = run_cli(capsys, "verma", "--lambda", "1", "--N", "4", "--t-max", "5", "--json")
    assert json.loads(out)["t"] == [0, 2, 3, 4, 5]


def test_verma_with_a_huge_space_dim_finishes():
    """Rows past len(lambda) + 1 add no candidate, so N = 10^9 answers like
    N = 3 for lambda = (1); a scan over every row would hit the timeout."""
    for json_flag in ([], ["--json"]):
        huge = run_cli_process("verma", "--lambda", "1", "--N", "1000000000", "--t-max", "10",
                               *json_flag)
        small = run_cli_process("verma", "--lambda", "1", "--N", "3", "--t-max", "10", *json_flag)
        assert huge.returncode == small.returncode == 0
        if json_flag:
            assert json.loads(huge.stdout) == dict(json.loads(small.stdout), N=1000000000)
        else:
            assert huge.stdout == small.stdout.replace("N = 3,", "N = 1000000000,")


def test_branch_command(capsys):
    code, out, _ = run_cli(capsys, "branch", "--lambda", "1", "--N", "3", "--max-size", "2", "--json")
    assert code == 0
    branches = {parse_partition(b) for b in json.loads(out)["branches"]}
    assert branches == {(1,), (2,), (1, 1)}


@pytest.mark.parametrize("argv, message", [
    (["branch", "--lambda", "1", "--N", "3", "--max-size", "-1"],
     "size_bound must be nonnegative, got -1"),
    (["verma", "--lambda", "1", "--N", "4", "--t-max", "-5"], "t_max must be nonnegative, got -5"),
    (["verma", "--lambda", "1", "--N", "0"], "space_dim must be >= 1, got 0"),
    (["branch", "--lambda", "", "--N", "0"], "space_dim must be >= 1, got 0"),
])
def test_malformed_verma_and_branch_arguments_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_verma_and_branch_accept_a_one_dimensional_space(capsys):
    code, out, _ = run_cli(capsys, "verma", "--lambda", "", "--N", "1", "--json")
    assert code == 0
    assert json.loads(out)["t"] == []
    code, out, _ = run_cli(capsys, "branch", "--lambda", "", "--N", "1", "--json")
    assert code == 0
    assert json.loads(out)["branches"] == [""]


@pytest.mark.parametrize("max_m", [0, 3])
def test_stirling_command(capsys, max_m):
    code, out, _ = run_cli(capsys, "stirling", "--max-m", str(max_m), "--json")
    assert code == 0
    data = json.loads(out)
    assert list(data) == [str(m) for m in range(max_m + 1)]
    assert poly_from_json(data["0"]) == 1
    for m in range(max_m + 1):
        assert poly_from_json(data[str(m)]) == groupalg.hilbert_coefficient(m)


def test_stirling_help_carries_order_caveat(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["stirling", "--help"])
    assert exc.value.code == 0
    # argparse wraps the epilog, so compare with the line breaks undone
    out = " ".join(capsys.readouterr().out.split())
    for phrase in ("zero radius of convergence", "coefficients only", "t!", "never evaluates"):
        assert phrase in out, phrase


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "dim", "--lambda", "not-a-partition")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "dim", "--lambda", "1,2")
    assert code == 2


@pytest.mark.parametrize("command, flag, value", [
    ("dim", "--lambda", "2"), ("omega", "--lambda", "2,1"),
    ("omega-m", "--lambda", "2"), ("class-size", "--rho", "1")])
@pytest.mark.parametrize("t_eval", ["1/0", "abc"])
def test_a_malformed_t_eval_exits_2_naming_the_value(capsys, command, flag, value, t_eval):
    argv = [command, flag, value, "--t-eval", t_eval]
    if command == "omega-m":
        argv += ["--rho", "1"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"repst {command}: error: argument --t-eval: not a rational number: '{t_eval}'")


def test_stirling_negative_max_m_exits_2(capsys):
    code, out, err = run_cli(capsys, "stirling", "--max-m", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: m_max must be nonnegative, got -1\n"


def test_stirling_cap_beyond_the_enumeration_limit_fails_fast():
    result = run_cli_process("stirling", "--max-m", "100000000000000000000")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == ("error: m_max=100000000000000000000 exceeds the enumeration cap 40; "
                             "raise REPST_LIMITS to allow it\n")


def test_verify_size_cap_beyond_the_enumeration_limit_fails_fast():
    result = run_cli_process("verify", "--suite", "oracle", "--max-size", "50")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == ("error: max_size=50 exceeds the enumeration cap 40; "
                             "raise REPST_LIMITS to allow it\n")


@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("suite", ["bounds", "all"])
def test_verify_rejects_a_bounds_suite_that_checks_nothing(capsys, suite, extra):
    """A bounds suite with max_n below 1 sweeps no n, like `repst bounds --max-n 0`."""
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-n", "0", *extra)
    assert (code, out, err) == (2, "", "error: max_n must be >= 1, got 0\n")


@pytest.mark.parametrize("argv, cap", [
    (["hilbert", "--h", "1,1", "--deg", "100000000"], "degree=100000000"),
    (["branch", "--lambda", "1", "--N", "3", "--max-size", "100000000"], "size_bound=100000000"),
])
def test_hilbert_and_branch_caps_beyond_the_enumeration_limit_fail_fast(argv, cap):
    result = run_cli_process(*argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (f"error: {cap} exceeds the enumeration cap 40; "
                             "raise REPST_LIMITS to allow it\n")


def test_verma_t_max_beyond_the_enumeration_limit_fails_fast():
    result = run_cli_process("verma", "--lambda", "1", "--N", "4", "--t-max", "100000000")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == ("error: t_max=100000000 exceeds the enumeration cap 40; "
                             "raise REPST_LIMITS to allow it\n")


@pytest.mark.parametrize("argv, cap", [
    (["dim", "--lambda", "100000000"], "|lambda|=100000000"),
    (["omega", "--lambda", "100000000"], "|lambda|=100000000"),
    (["class-size", "--rho", "100000000"], "support(rho)=200000000"),
])
def test_lambda_and_rho_beyond_the_enumeration_limit_fail_fast(argv, cap):
    result = run_cli_process(*argv)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (f"error: {cap} exceeds the enumeration cap 40; "
                             "raise REPST_LIMITS to allow it\n")


def test_malformed_limit_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("REPST_LIMITS", "abc")
    code, _, err = run_cli(capsys, "bounds", "--max-n", "5")
    assert code == 2
    assert err.startswith("error: REPST_LIMITS")


@pytest.mark.parametrize("error", [
    NonDivisibleError("t is not divisible by t - 1"),
    OutOfBoundsError("exponent (3,) outside truncation bounds (2,)"),
])
def test_computation_errors_exit_3(capsys, monkeypatch, error):
    def broken(args):
        raise error
    monkeypatch.setattr(cli, "cmd_dim", broken)
    code, out, err = run_cli(capsys, "dim", "--lambda", "1")
    assert code == 3
    assert out == ""
    assert err == f"error: {type(error).__name__}: {error}\n"


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["dim", "--bogus"])
    assert exc.value.code == 2


def test_verify_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--max-size", "3", "--max-m", "4")
    assert code == 0
    assert "oracle" in out and "pass" in out


def test_verify_checks_the_bounds_floor_before_any_suite_starts(capsys, monkeypatch):
    """`--suite all --max-n 0` ran the oracle, pieri and stirling suites
    before the bounds suite refused its max_n."""
    started = []

    def recording(suite):
        def run(**limits):
            started.append(suite.__name__)
            return suite(**limits)
        run.__kwdefaults__ = suite.__kwdefaults__  # run_suites reads the overrides a suite takes here
        return run

    for name, suite in list(verify.SUITES.items()):
        monkeypatch.setitem(verify.SUITES, name, recording(suite))
    code, out, err = run_cli(capsys, "verify", "--suite", "all", "--max-n", "0")
    assert (code, out, err, started) == (2, "", "error: max_n must be >= 1, got 0\n", [])


@pytest.mark.parametrize("flag, key", [
    ("--max-size", "max_size"), ("--max-n", "max_n"), ("--max-m", "max_m"), ("--deg", "degree"),
])
def test_verify_negative_cap_exits_2(capsys, flag, key):
    code, out, err = run_cli(capsys, "verify", "--suite", "all", flag, "-5")
    assert code == 2
    assert out == ""
    # the bounds suite, chosen by "all", sweeps n from 1
    floor = ">= 1" if key == "max_n" else "nonnegative"
    assert err == f"error: {key} must be {floor}, got -5\n"


# every verify cap flag, and the suites that read it
_VERIFY_CAPS = {
    "--max-size": ("max_size", {"oracle", "pieri"}),
    "--max-n": ("max_n", {"bounds"}),
    "--max-m": ("max_m", {"oracle", "stirling"}),
    "--deg": ("degree", {"graded"}),
}


@pytest.mark.parametrize("suite, flag", [
    (suite, flag) for flag, (_, readers) in _VERIFY_CAPS.items()
    for suite in sorted(verify.SUITES) if suite not in readers
])
def test_verify_cap_the_suite_does_not_read_exits_2(capsys, suite, flag):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, flag, "3")
    assert code == 2
    assert out == ""
    assert err == f"error: {_VERIFY_CAPS[flag][0]} does not apply to suite {suite}\n"


def test_each_suite_reads_only_its_own_caps():
    readers = {suite: set(fn.__kwdefaults__) for suite, fn in verify.SUITES.items()}
    assert readers == {suite: {key for key, suites in _VERIFY_CAPS.values() if suite in suites}
                       for suite in verify.SUITES}
    assert sum(map(len, readers.values())) == 6


def test_run_suites_rejects_an_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run_suites("nope")


def test_verify_all_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--json",
                           "--max-size", "3", "--max-n", "8", "--max-m", "3", "--deg", "4")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert {s["suite"] for s in data["suites"]} == {"oracle", "pieri", "stirling", "bounds", "graded"}
    assert all(s["failures"] == [] for s in data["suites"])


def test_verify_detects_a_broken_identity(capsys, monkeypatch):
    # flip the content sign convention; the full gate must exit 1, caught by
    # the transposition-class oracle (rank 5 among the divergences)
    import repst.partitions as partitions_module
    original = partitions_module.content_sum
    monkeypatch.setattr(partitions_module, "content_sum",
                        lambda lam: -original(lam))
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--json",
                           "--max-size", "2", "--max-n", "6", "--max-m", "2")
    assert code == 1
    data = json.loads(out)
    assert data["pass"] is False
    oracle = next(s for s in data["suites"] if s["suite"] == "oracle")
    assert any(f["check"] == "jm-oracle" and f["where"]["n"] == 5
               for f in oracle["failures"])
    assert all(s["pass"] for s in data["suites"] if s["suite"] != "oracle")


def test_oracle_suite_catches_a_class_sum_wrong_only_past_rank_10(monkeypatch):
    """A cubic that vanishes at n = 8, 9 and 10, the only ranks a sweep
    capped at n = 10 compared, added to one class-sum eigenvalue: the
    deg + 1 ranks from the validity start reach past it."""
    original = deligne.central_eigenvalue_poly
    cubic = ((T - 8) * (T - 9) * (T - 10)).scale(3)

    def mutated(rho, lam):
        poly = original(rho, lam)
        return poly + cubic if (rho, lam) == ((0, 1), (4,)) else poly
    monkeypatch.setattr(deligne, "central_eigenvalue_poly", mutated)
    report = verify.oracle_suite()
    assert [(f.check, f.where) for f in report.failures] == [
        ("central-oracle", {"lambda": (4,), "rho": (0, 1), "n": n}) for n in (11, 12)]


def _proof_span(check, where):
    """The validity start of one S_n comparison, and its degree D: the larger
    of the degree of the polynomial compared and the degree in n that the
    S_n side is known to have."""
    lam, rho = where.get("lambda"), where.get("rho")
    if check == "dim-oracle":
        return partitions.validity_start(lam), max(deligne.dimension_poly(lam).degree, sum(lam))
    if check == "jm-oracle":
        return partitions.validity_start(lam, (1,)), max(deligne.jm_eigenvalue(lam).degree, 2)
    if check == "character-shadow":
        return partitions.validity_start(lam, rho), max(deligne.frobenius_coefficient(lam, rho).degree,
                                                        sum(lam))
    if check == "central-oracle":
        return partitions.validity_start(lam, rho), max(deligne.central_eigenvalue_poly(rho, lam).degree,
                                                        partitions.support(rho))
    assert check == "stirling-values", check
    m = where["m"]
    return 2 * m + 1, max(groupalg.hilbert_coefficient(m).degree, 2 * m)


def test_every_oracle_and_stirling_comparison_is_a_proof(monkeypatch):
    """Each polynomial compared with S_n at ranks n is seen at the D + 1
    consecutive ranks from its start that prove it, so no rank cap can turn
    a comparison back into a sample."""
    ranks = {}
    original = verify.SuiteReport.record

    def record(self, ok, check, where, detail=""):
        if "n" in where and check != "stirling-row-sum":  # n! is no polynomial in n
            inputs = tuple((key, value) for key, value in where.items() if key != "n")
            ranks.setdefault((check, inputs), set()).add(where["n"])
        return original(self, ok, check, where, detail)
    monkeypatch.setattr(verify.SuiteReport, "record", record)
    assert verify.oracle_suite().passed and verify.stirling_suite().passed
    assert {check for check, _ in ranks} == {
        "dim-oracle", "jm-oracle", "character-shadow", "central-oracle", "stirling-values"}
    for (check, inputs), seen in ranks.items():
        start, degree = _proof_span(check, dict(inputs))
        assert set(range(start, start + degree + 1)) <= seen, (check, inputs, sorted(seen))


def test_verify_records_a_polynomial_that_is_not_integer_valued(capsys, monkeypatch):
    """A certificate that fails is one integrality failure, detailed by the
    error text, and not an error that stops the suite."""
    original, bad = deligne.certify_integer_valued, groupalg.hilbert_coefficient(2)
    error = NotIntegerValuedError(1, Fraction(1, 2))

    def certify(poly):
        if poly == bad:
            raise error
        return original(poly)
    monkeypatch.setattr(deligne, "certify_integer_valued", certify)
    report = verify.stirling_suite(max_m=3)
    assert [(f.check, f.where, f.detail) for f in report.failures] == \
        [("integrality-stirling", {"m": 2}, str(error))]
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--json",
                           "--max-size", "2", "--max-n", "8", "--max-m", "3", "--deg", "4")
    assert code == 1
    data = json.loads(out)
    assert data["pass"] is False
    assert [(s["suite"], f) for s in data["suites"] for f in s["failures"]] == [
        ("stirling", {"check": "integrality-stirling", "where": {"m": 2},
                      "detail": "coefficient of binom(t,1) is 1/2, not an integer"})]


def test_verify_formats_failure_text_only_for_a_failing_check(monkeypatch):
    report = verify.SuiteReport("demo")
    report.expect("same", {}, T, T)
    report.expect("differs", {"n": 1}, T, T - 1)
    assert report.checks == 2
    assert cli.suite_to_json(report)["failures"] == [
        {"check": "differs", "where": {"n": 1}, "detail": "expected t, got t - 1"}]

    def refuse(self):
        raise AssertionError("formatted the polynomials of a passing check")
    monkeypatch.setattr(ExactPolynomial, "__str__", refuse)
    assert verify.pieri_suite(max_size=4).passed
    assert verify.stirling_suite(max_m=3).passed


@pytest.mark.parametrize("max_m", range(4))
def test_the_stirling_suite_asks_for_no_coefficient_past_max_m(monkeypatch, max_m):
    """The row sums n! run at n = 0..max_m + 1, whose rows need no m past
    max_m, so the cap bounds every coefficient the suite builds."""
    asked = {"hilbert_coefficient": set(), "hilbert_coefficient_gamma": set()}
    for name, seen in asked.items():
        def wrapped(m, original=getattr(groupalg, name), seen=seen):
            seen.add(m)
            return original(m)
        monkeypatch.setattr(groupalg, name, wrapped)
    report = verify.stirling_suite(max_m=max_m)
    assert report.passed
    assert asked == {name: set(range(max_m + 1)) for name in asked}


@pytest.mark.parametrize("degree", [0, 2, 6])
def test_the_graded_suite_specializes_up_to_its_degree(monkeypatch, degree):
    """The graded decomposition and the integer specializations run to
    --deg; the binomial family (x^0..x^10 of (1+x)^t) and the first layer
    are fixed sets.  degree=2 runs 28 checks, the default 6 runs 40."""
    families = Counter()
    original = verify.SuiteReport.record

    def record(self, ok, check, where, detail=""):
        families[check] += 1
        return original(self, ok, check, where, detail)
    monkeypatch.setattr(verify.SuiteReport, "record", record)
    report = verify.graded_suite(degree=degree)
    assert report.passed and report.checks == 22 + 3 * degree
    assert families == Counter({"binomial-series": 11, "graded-decomposition": 3,
                                "degree-one-layer": 5, "integer-specialization": 3 * (degree + 1)})


@pytest.mark.parametrize("max_n, amgm, scans", [(9, 96, 0), (14, 271, 5), (15, 271, 6), (18, 271, 6)])
def test_the_bounds_suite_scans_its_window_up_to_max_n(monkeypatch, max_n, amgm, scans):
    """Each family of the bounds suite stops at max_n: the lemma scan checks
    n = 10..min(15, max_n), as the AM-GM step checks n <= min(12, max_n), so
    a cap of 14 keeps five scans instead of dropping the family."""
    families = Counter()
    original = verify.SuiteReport.record

    def record(self, ok, check, where, detail=""):
        families[check] += 1
        return original(self, ok, check, where, detail)
    monkeypatch.setattr(verify.SuiteReport, "record", record)
    assert verify.bounds_suite(max_n=max_n).passed
    # a Counter reads a missing family as 0
    assert families == Counter({"dimension-bound": max_n, "amgm": amgm, "lemma-scan": scans})


def test_passing_pieri_and_bounds_suites_format_no_partition(monkeypatch):
    calls = []

    def counting(lam):
        calls.append(lam)
        return format_partition(lam)
    for module in (verify, bounds, partitions):
        monkeypatch.setattr(module, "format_partition", counting)
    assert verify.pieri_suite().passed
    assert verify.bounds_suite().passed
    assert calls == []
    report = verify.SuiteReport("demo")
    report.record(False, "lazy", {"mu": (2, 1)}, lambda: "detail")
    assert cli.suite_to_json(report)["failures"] == [
        {"check": "lazy", "where": {"mu": "2,1"}, "detail": "detail"}]


def test_passing_oracle_stirling_and_graded_suites_format_nothing(monkeypatch):
    calls = []

    def counting(formatter):
        def wrapped(parts):
            calls.append(parts)
            return formatter(parts)
        return wrapped
    for module in (verify, bounds, partitions, schurweyl, snoracle):
        monkeypatch.setattr(module, "format_partition", counting(format_partition))
    assert verify.oracle_suite().passed
    assert verify.stirling_suite().passed
    assert verify.graded_suite().passed
    assert calls == []


def test_a_failure_writes_its_partitions_comma_separated_in_both_formats(capsys, monkeypatch):
    report = verify.SuiteReport("demo", checks=3, elapsed=0.123456)
    report.record(False, "shape", {"lambda": (2, 1), "rho": (), "n": 5}, "detail")
    monkeypatch.setattr(verify, "run_suites", lambda name, **limits: [report])
    code, out, _ = run_cli(capsys, "verify", "--suite", "pieri")
    assert (code, out) == (1, "demo: 4 checks, FAIL (0.12s)\n"
                              "  FAIL shape {'lambda': '2,1', 'rho': '', 'n': 5}: detail\n")
    code, out, _ = run_cli(capsys, "verify", "--suite", "pieri", "--json")
    assert (code, out) == (1, '{"pass": false, "suites": [{"suite": "demo", "checks": 4, "pass": false, '
                              '"failures": [{"check": "shape", "where": {"lambda": "2,1", "rho": "", "n": 5}, '
                              '"detail": "detail"}], "elapsed": 0.123}]}\n')


def test_suite_json_rounds_elapsed_to_milliseconds():
    assert cli.suite_to_json(verify.SuiteReport("demo", elapsed=0.123456))["elapsed"] == 0.123


def test_bounds_command(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--max-n", "9", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True and data["n"] == 9


def test_a_bound_below_the_dimension_fails_and_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(bounds, "dimension_lower_bound", lambda n, mu: factorial(n) + 1)
    report = bounds.bound_sweep(5)
    assert report.passed is False and report.min_slack < 0
    assert cli.bound_sweep_to_json(report)["pass"] is False
    code, out, _ = run_cli(capsys, "bounds", "--max-n", "5")
    assert code == 1
    assert out.endswith(", FAIL\n")


def _bound_below_the_dimension(monkeypatch):
    monkeypatch.setattr(bounds, "dimension_lower_bound", lambda n, mu: factorial(n) + 1)
    return ["bounds", "--max-n", "5"]


def _flipped_content_sign(monkeypatch):
    import repst.partitions as partitions_module
    original = partitions_module.content_sum
    monkeypatch.setattr(partitions_module, "content_sum", lambda lam: -original(lam))
    return ["verify", "--suite", "oracle", "--max-size", "2", "--max-m", "2"]


@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("breakage", [_bound_below_the_dimension, _flipped_content_sign],
                         ids=["bounds", "verify"])
def test_a_failed_check_exits_1_in_both_formats(capsys, monkeypatch, breakage, extra):
    code, out, err = run_cli(capsys, *breakage(monkeypatch), *extra)
    assert (code, err) == (1, "")
    if extra:
        assert json.loads(out)["pass"] is False
    else:
        assert ", FAIL" in out.splitlines()[0]


def test_tables_round_trips_the_dimensions(capsys):
    code, out, _ = run_cli(capsys, "tables", "--max-size", "3", "--max-m", "3", "--json")
    assert code == 0
    dims = json.loads(out)["dimensions"]
    assert set(dims) == {format_partition(lam) for lam in partitions_up_to(3)}
    for lam in partitions_up_to(3):
        assert poly_from_json(dims[format_partition(lam)]) == deligne.dimension_poly(lam)


def test_tables_prints_one_line_per_entry(capsys):
    code, out, _ = run_cli(capsys, "tables", "--max-size", "2", "--max-m", "3")
    assert code == 0
    _, text, _ = run_cli(capsys, "tables", "--max-size", "2", "--max-m", "3", "--json")
    tables = json.loads(text)
    assert out.splitlines() == [f"{name}[{key}] = {poly_from_json(entry)}"
                                for name, table in tables.items() for key, entry in table.items()]
    assert "class_sizes[1] = 1/2*t^2 - 1/2*t" in out.splitlines()


def test_thresholds_finds_seven_for_one_box_budget(capsys):
    code, out, _ = run_cli(capsys, "thresholds", "--n-max", "10", "--c", "1", "--k", "1")
    assert code == 0
    assert out.splitlines()[1].split() == ["1", "1", "7", "n=6:", "[3,3]", "[2,2,2]"]


def test_thresholds_runs_to_the_enumeration_cap(capsys, monkeypatch):
    monkeypatch.delenv("REPST_LIMITS", raising=False)
    code, out, _ = run_cli(capsys, "thresholds", "--n-max", "40", "--c", "1", "--k", "1")
    assert code == 0
    assert out.splitlines()[1].split() == ["1", "1", "7", "n=6:", "[3,3]", "[2,2,2]"]


def test_thresholds_scans_each_n_once(capsys, monkeypatch):
    monkeypatch.delenv("REPST_LIMITS", raising=False)
    calls = []
    scan = bounds.lemma_scan

    def counting(c, k, n):
        calls.append(n)
        return scan(c, k, n)
    monkeypatch.setattr(bounds, "lemma_scan", counting)
    code, _, _ = run_cli(capsys, "thresholds", "--n-max", "40", "--c", "1", "--k", "1")
    assert code == 0
    # n = 40 down to the first n with counterexamples, 6, and no rescan of it
    assert len(calls) == 35 and calls[-1] == 6


def test_thresholds_json_lists_every_budget_and_its_last_counterexamples(capsys):
    code, out, _ = run_cli(capsys, "thresholds", "--n-max", "12", "--c", "1", "1/2",
                           "--k", "0", "1", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["nMax"] == 12
    assert [(entry["c"], entry["k"]) for entry in data["budgets"]] == [
        (c, k) for c in (["1", "1"], ["1", "2"]) for k in (0, 1, 3)]
    for entry in data["budgets"]:
        c, k, threshold = Fraction(*map(int, entry["c"])), entry["k"], entry["threshold"]
        last = bounds.lemma_scan(c, k, threshold - 1) if threshold and threshold > 1 else []
        assert (threshold, last) == bounds.find_threshold(c, k, 12)
        assert entry["last"] == [format_partition(mu) for mu in last]
    assert data["budgets"][1] == {"c": ["1", "1"], "k": 1, "threshold": 7, "last": ["3,3", "2,2,2"]}
    assert data["budgets"][0]["threshold"] == 1 and data["budgets"][2]["threshold"] is None


def test_thresholds_shows_four_counterexamples_and_the_total(capsys, monkeypatch):
    last = [(6, 1), (5, 2), (4, 3), (4, 2, 1), (3, 3, 1), (3, 2, 2)]
    monkeypatch.setattr(bounds, "find_threshold", lambda c, k, n_max: (8, last))
    code, out, _ = run_cli(capsys, "thresholds", "--n-max", "9", "--c", "3/2", "--k", "2")
    assert code == 0
    assert out.splitlines()[1] == "   3/2   2          8  n=7: [6,1] [5,2] [4,3] [4,2,1], ... (6 total)"


@pytest.mark.parametrize("argv, message", [
    (["tables", "--max-size", "-1", "--max-m", "3"], "max_size must be nonnegative, got -1"),
    (["tables", "--max-size", "3", "--max-m", "-1"], "max_m must be nonnegative, got -1"),
    (["tables", "--max-size", "41"],
     "max_size=41 exceeds the enumeration cap 40; raise REPST_LIMITS to allow it"),
    (["thresholds", "--n-max", "-3", "--c", "1", "--k", "1"], "n_max must be >= 1, got -3"),
])
def test_tables_and_thresholds_reject_a_bad_cap_with_exit_2(capsys, monkeypatch, argv, message):
    monkeypatch.delenv("REPST_LIMITS", raising=False)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["--c", "1", "--k", "100000000"],
     "error: k=100000000 exceeds the enumeration cap 40; raise REPST_LIMITS to allow it"),
    (["--c", "1", "--k", "-1"], "error: k must be nonnegative, got -1"),
    (["--k"], "error: argument --k: expected at least one argument"),
    (["--c"], "error: argument --c: expected at least one argument"),
])
def test_thresholds_rejects_a_large_or_missing_budget_with_exit_2(argv, message):
    """A k of 10^8 ran past any timeout, computing floor(C n^k) before its
    first partition, and a bare --c or --k printed an empty table."""
    done = run_cli_process("thresholds", "--n-max", "3", *argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.splitlines()[-1].endswith(message)


def test_thresholds_checks_every_k_before_any_scan(capsys, monkeypatch):
    monkeypatch.delenv("REPST_LIMITS", raising=False)
    calls = []
    monkeypatch.setattr(bounds, "lemma_scan", lambda c, k, n: calls.append((c, k, n)) or [])
    code, out, err = run_cli(capsys, "thresholds", "--n-max", "40", "--c", "1", "--k", "1", "41")
    assert (code, out, calls) == (2, "", [])
    assert err == "error: k=41 exceeds the enumeration cap 40; raise REPST_LIMITS to allow it\n"


@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("budgets, message", [
    (["--c", "1", "1", "--k", "1"], "--c repeats 1"),
    (["--c", "2", "1", "2/1", "--k", "1"], "--c repeats 2"),
    (["--c", "1", "--k", "0", "1", "0"], "--k repeats 0"),
    (["--c", "1", "1", "--k", "1", "1"], "--c repeats 1"),
], ids=["c", "equal-fractions", "k", "both"])
def test_thresholds_rejects_a_repeated_budget_before_any_scan(capsys, monkeypatch, budgets, message, extra):
    """A repeated --c or --k scanned the same budget again and printed its row twice."""
    calls = []
    monkeypatch.setattr(bounds, "find_threshold", lambda c, k, n_max: calls.append((c, k, n_max)) or (1, []))
    code, out, err = run_cli(capsys, "thresholds", "--n-max", "5", *budgets, *extra)
    assert (code, out, err, calls) == (2, "", f"error: {message}\n", [])


@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
def test_thresholds_rejects_an_n_max_below_1_with_exit_2(capsys, extra):
    """An --n-max below 1 scans no n, so there is no threshold to report."""
    code, out, err = run_cli(capsys, "thresholds", "--n-max", "0", "--c", "1", "--k", "1", *extra)
    assert (code, out, err) == (2, "", "error: n_max must be >= 1, got 0\n")


@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("c", ["0", "-3"])
def test_thresholds_rejects_a_budget_constant_that_is_not_positive(capsys, monkeypatch, c, extra):
    """A budget C * n^k with C <= 0 admits no irreducible, so the threshold 1
    it used to report said nothing; argparse refuses it before any scan."""
    calls = []
    monkeypatch.setattr(bounds, "find_threshold", lambda c, k, n_max: calls.append((c, k, n_max)) or (1, []))
    with pytest.raises(SystemExit) as exc:
        cli.main(["thresholds", "--n-max", "5", "--c", c, "--k", "1", *extra])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, calls) == (2, "", [])
    assert captured.err.endswith(f"error: argument --c: not a positive rational number: '{c}'\n")


# small arguments for every subcommand, so that each handler runs its own imports
_EVERY_COMMAND = {
    "dim": ["--lambda", "2,1"],
    "pieri": ["--lambda", "1"],
    "omega": ["--lambda", "2,1", "--t-eval", "5"],
    "omega-m": ["--lambda", "1", "--rho", "0,1"],
    "class-size": ["--rho", "1"],
    "hilbert": ["--h", "1,2", "--deg", "2"],
    "verma": ["--lambda", "1", "--N", "3", "--t-max", "4"],
    "branch": ["--lambda", "1", "--N", "2", "--max-size", "2"],
    "stirling": ["--max-m", "2"],
    "bounds": ["--max-n", "4"],
    "thresholds": ["--n-max", "8", "--c", "1", "--k", "1"],
    "tables": ["--max-size", "2", "--max-m", "2"],
    "verify": ["--suite", "pieri", "--max-size", "2"],
}


def _subcommands():
    return cli.build_parser()._subparsers._group_actions[0].choices


def test_every_subcommand_is_covered():
    assert set(_EVERY_COMMAND) == set(_subcommands())


@pytest.mark.parametrize("command", sorted(_EVERY_COMMAND))
def test_every_subcommand_prints_json(capsys, command):
    code, out, err = run_cli(capsys, command, *_EVERY_COMMAND[command], "--json")
    assert (code, err) == (0, "")
    assert isinstance(json.loads(out), dict)


def test_verify_suite_choices_name_every_suite():
    suite = next(action for action in _subcommands()["verify"]._actions if action.dest == "suite")
    assert suite.choices == sorted(verify.SUITES) + ["all"]


def test_no_command_but_verify_loads_the_oracle():
    """Every subcommand but verify runs in one process, which then has not
    imported snoracle: only the checks consult the oracle."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    commands = [[name, *argv, "--json"] for name, argv in sorted(_EVERY_COMMAND.items())
                if name != "verify"]
    script = ("import sys\n"
              "from repst.cli import main\n"
              f"codes = [main(argv) for argv in {commands!r}]\n"
              "print(codes, 'repst.snoracle' in sys.modules, file=sys.stderr)\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, timeout=60)
    assert result.stderr == f"{[0] * len(commands)} False\n"


def test_a_cold_dim_loads_only_what_it_runs():
    """`repst dim` needs neither the verify suites, nor schurweyl, bounds or
    groupalg, nor the snoracle oracle, nor dataclasses (which pulls in inspect)."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    script = ("import sys\n"
              "from repst.cli import main\n"
              "code = main(['dim', '--lambda', '2', '--json'])\n"
              "print(sorted({'repst.verify', 'repst.schurweyl', 'repst.bounds', 'repst.groupalg',"
              " 'repst.snoracle', 'dataclasses', 'inspect'} & set(sys.modules)), file=sys.stderr)\n"
              "sys.exit(code)\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env, timeout=20)
    assert result.returncode == 0
    assert json.loads(result.stdout)["lambda"] == "2"
    assert result.stderr == "[]\n"
