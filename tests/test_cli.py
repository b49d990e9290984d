"""Command-line frontend: fixtures, exit codes, JSON determinism."""

import json
import os
import subprocess
import sys

import pytest

from madic.cli import main
from madic.parse import MAX_POWER_BITS
from helpers import budget

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "problems")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_elkik_golden_f(capsys):
    code, out, _ = run(capsys, "elkik", fx("elkik_f.madic"), "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["comparison_equal"] is True
    assert blob["member"]["z^3"] is True
    assert blob["radical_member"]["z"] is True


def test_elkik_golden_h(capsys):
    code, out, _ = run(capsys, "elkik", fx("elkik_h.madic"), "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["comparison_equal"] is True
    assert blob["member"]["z^3"] is False
    assert blob["radical_member"]["z"] is True


def test_module_entry_point_prints_what_main_prints(capsys):
    # `python -m madic` from a checkout, with src on the path
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-m", "madic", "elkik", fx("elkik_f.madic"), "--json"],
        capture_output=True, text=True, env=env,
    )
    code, out, _ = run(capsys, "elkik", fx("elkik_f.madic"), "--json")
    assert done.returncode == code == 0, done.stderr
    assert done.stdout == out


def test_solve_certified(capsys):
    code, out, _ = run(capsys, "solve", fx("solve_basic.madic"), "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["certificate"]["status"] == "certified-to-precision"


def test_solve_insufficient_residual(capsys):
    code, _, err = run(capsys, "solve", fx("solve_insufficient.madic"))
    assert code == 2
    assert "insufficient residual order" in err


def test_refine_residual_not_a_multiple_is_not_called_insufficient_order(capsys, tmp_path):
    problem = tmp_path / "not_multiple.madic"
    problem.write_text(
        "field: Q\nseries_vars: x y\nunknowns: z\nequation: z^2 - x^2*y^2\n"
        "approx: x*y + x^3 + O(m^16)\ntarget_order: 1\n"
    )
    code, _, err = run(capsys, "refine", str(problem))
    assert code == 2
    assert "residual is not an exact multiple of the squared minor" in err
    assert "insufficient residual order" not in err


def test_refine_precision_shortfall_is_not_called_not_a_multiple(capsys, tmp_path):
    # the squared minor 9*z^4 has order r = 8 at the approximation, so at
    # N = 16 <= 2r + 1 the division refuses for precision, which says
    # nothing about the residual
    problem = tmp_path / "short.madic"
    problem.write_text(
        "series_vars: x y\nunknowns: z\nequation: z^3 - x^3\n"
        "approx: x*y + x^3 + O(m^16)\ntarget_order: 1\n"
    )
    code, _, err = run(capsys, "refine", str(problem))
    assert code == 2
    assert "precision too low for series division" in err
    assert "not an exact multiple" not in err


def test_refine_matches_solve_on_unit_free_case(capsys):
    code, out, _ = run(capsys, "refine", fx("solve_basic.madic"), "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["certificate"]["status"] == "certified-to-precision"


def test_bounds_table(capsys):
    code, out, _ = run(capsys, "bounds", fx("bounds_basic.madic"), "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["report"]["elkik_degree_bound"] == "11718750003"


def test_prepare_fixture(capsys):
    code, out, _ = run(capsys, "prepare", fx("prepare_example.madic"), "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["distinguished"]["r"] == 2


def test_divide_fixture(capsys):
    code, out, _ = run(capsys, "divide", fx("divide_example.madic"), "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["quotient"].startswith("y")
    assert blob["remainders"][1].startswith("x")


@pytest.mark.parametrize(
    "command, text",
    [
        ("prepare", "series: 1 + x + O(m^8)\n"),
        ("divide", "dividend: x^3 + O(m^8)\ndivisor: x^2 + x^3 + O(m^8)\n"),
    ],
)
def test_prepare_and_divide_in_one_variable_are_parse_errors(tmp_path, capsys, command, text):
    # Weierstrass preparation is in y over k[[x]]: a file over k[[x]] alone
    # has the wrong shape, which is a parse error (exit 3), not a refusal
    bad = tmp_path / "one_var.madic"
    bad.write_text("series_vars: x\n" + text)
    code, out, err = run(capsys, command, str(bad))
    assert (code, out) == (3, "")
    assert f"{command} needs two series_vars" in err


def test_probe_fixture(capsys):
    code, out, _ = run(capsys, "probe", fx("probe_family.madic"), "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["report"]["defect_count"] == 0
    assert len(blob["report"]["rows"]) == 5


def test_json_output_deterministic(capsys):
    _, a, _ = run(capsys, "solve", fx("solve_basic.madic"), "--json")
    _, b, _ = run(capsys, "solve", fx("solve_basic.madic"), "--json")
    assert a == b


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.madic"
    bad.write_text("unknown_key: 1\n")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 3
    assert "unknown key" in err


@pytest.mark.parametrize(
    "names, approx, message",
    [
        ("series_vars: x y\nunknowns: z z\n", 2, "unknowns names 'z' twice"),
        ("series_vars: x x\nunknowns: z\n", 1, "series_vars names 'x' twice"),
        ("series_vars: x y\nunknowns: x z\n", 2, "unknowns names the series variable 'x'"),
    ],
)
def test_repeated_or_clashing_names_are_parse_errors(tmp_path, capsys, names, approx, message):
    bad = tmp_path / "names.madic"
    bad.write_text(
        "field: Q\n" + names + "equation: z^2 - x^2*y^2\n"
        + "approx: x*y + x^3*y^3 + O(m^12)\n" * approx + "target_order: 1\n"
    )
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 3
    assert message in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent/file.madic")
    assert code == 3


def test_human_output_has_timing(capsys):
    code, out, _ = run(capsys, "bounds", fx("bounds_basic.madic"))
    assert code == 0
    assert "elapsed:" in out


def test_field_env_var(tmp_path, capsys, monkeypatch):
    prob = tmp_path / "gf.madic"
    prob.write_text(
        "series_vars: x\n"
        "unknowns: z\n"
        "equation: z^2 - x^2\n"
        "approx: x + x^4 + O(m^12)\n"
        "target_order: 3\n"
    )
    monkeypatch.setenv("MADIC_FIELD", "GF(7)")
    code, out, _ = run(capsys, "solve", str(prob), "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["certificate"]["status"] == "certified-to-precision"


def test_duplicate_key_rejected(tmp_path, capsys):
    bad = tmp_path / "dup.madic"
    bad.write_text("m: 4\nm: 5\n")
    code, _, err = run(capsys, "bounds", str(bad))
    assert code == 3
    assert "duplicate" in err


def test_bounds_past_the_cap_exit_4(tmp_path, capsys):
    big = tmp_path / "big.madic"
    big.write_text("m: 8\nd: 2\n")
    code, out, err = run(capsys, "bounds", str(big), "--json")
    assert code == 4
    assert out == ""
    assert "capacity error" in err


def test_precision_above_written_is_refused(capsys):
    # the fixture writes O(m^16); O(m^20) would claim digits it does not fix
    code, out, err = run(
        capsys, "prepare", fx("prepare_example.madic"), "--precision", "20", "--json"
    )
    assert code == 2
    assert out == ""
    assert "exceeds the written O(m^16)" in err


def test_prepare_of_a_series_zero_to_precision_is_a_precondition_failure(capsys):
    # every term of the fixture has degree >= 2, so at O(m^2) it is 0: no
    # shear can regularize it, and more precision is what the user can give
    code, out, err = run(capsys, "prepare", fx("prepare_example.madic"), "--precision", "2")
    assert (code, out) == (2, "")
    assert err == "precondition failed: series is zero to precision; cannot prepare\n"


def test_precision_below_written_truncates(capsys):
    code, out, _ = run(
        capsys, "prepare", fx("prepare_example.madic"), "--precision", "8", "--json"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["unit"].endswith("O(m^8)")
    assert all(c.endswith("O(m^8)") for c in blob["distinguished"]["coeffs"])


def test_solve_precision_above_written_is_refused(capsys):
    # the approximation is written to O(m^24): 40 is not silently capped
    code, out, err = run(
        capsys, "solve", fx("solve_basic.madic"), "--precision", "40", "--json"
    )
    assert code == 2
    assert out == ""
    assert "exceeds the written O(m^24)" in err


def test_solve_precision_below_written_truncates(capsys):
    code, out, _ = run(
        capsys, "solve", fx("solve_basic.madic"), "--precision", "16", "--json"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["status"] == "certified-to-precision"
    assert {s["precision"] for s in blob["certificate"]["refined"]} == {16}


def test_seed_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", fx("solve_basic.madic"), "--seed", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


UNREAD_FLAGS = [
    (command, flag)
    for command, flags in {
        "elkik": ("--precision", "--target-order", "--strategy"),
        "colon": ("--precision", "--target-order", "--strategy"),
        "groebner": ("--precision", "--target-order", "--strategy"),
        "prepare": ("--target-order", "--strategy"),
        "divide": ("--target-order", "--strategy"),
        "refine": ("--strategy",),
        "bounds": ("--precision", "--strategy"),
        "probe": ("--target-order",),
    }.items()
    for flag in flags
]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_flags_a_command_does_not_read_are_refused(capsys, command, flag):
    # each command takes only the flags its handler reads
    value = "newton" if flag == "--strategy" else "3"
    with pytest.raises(SystemExit) as exc:
        main([command, fx("elkik_f.madic"), flag, value])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_seed_key_is_rejected(tmp_path, capsys):
    bad = tmp_path / "seeded.madic"
    bad.write_text("seed: 3\n")
    code, _, err = run(capsys, "bounds", str(bad))
    assert code == 3
    assert "unknown key 'seed'" in err


@pytest.mark.parametrize("key", ["k", "inner_constant", "precision", "ideal"])
def test_dead_keys_are_rejected(tmp_path, capsys, key):
    # no command ever read these keys, so a file using them is refused
    # instead of having the value silently ignored
    bad = tmp_path / "dead.madic"
    bad.write_text(f"m: 1\n{key}: 3\n")
    code, out, err = run(capsys, "bounds", str(bad))
    assert code == 3
    assert out == ""
    assert f"unknown key {key!r}" in err


@pytest.mark.parametrize(
    "command, fixture", [("solve", "solve_basic.madic"), ("probe", "probe_family.madic")]
)
def test_unknown_strategy_key_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command, fixture):
    # the univariate probe never reaches the reduced-system solver, and the
    # bivariate solve reaches it only with a live reduced equation: the
    # key is checked when it is read, whatever the instance
    from madic import cli

    def no_work(*args, **kwargs):
        raise AssertionError("the solver ran with an unknown strategy")

    monkeypatch.setattr(cli, "approximate_solve", no_work)
    monkeypatch.setattr(cli, "artin_probe", no_work)
    with open(fx(fixture), encoding="utf-8") as fh:
        text = fh.read()
    problem = tmp_path / "bogus.madic"
    problem.write_text(text + "strategy: bogus\n")
    code, out, err = run(capsys, command, str(problem), "--json")
    assert code == 3
    assert out == ""
    assert "unknown strategy 'bogus'" in err


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("m: 1\nd: 2\nprecision: 4\n", 3, "unknown key 'precision'"),
        ("m: 1\nm: 2\n", 2, "duplicate key 'm'"),
        ("m: 1\njust words\n", 2, "expected 'key: value'"),
    ],
)
def test_problem_file_errors_name_the_line_without_a_column(tmp_path, capsys, text, line, message):
    bad = tmp_path / "bad.madic"
    bad.write_text(text)
    code, _, err = run(capsys, "bounds", str(bad))
    assert code == 3
    assert f"parse error: line {line}: {message}" in err
    assert "col None" not in err


@pytest.mark.parametrize(
    "command, text",
    [
        ("groebner", "# the example of the docs\nfield: Q\nunknowns: x y\n\norder: lex\nequation: x +* y\n"),
        ("solve", "series_vars: x y\nunknowns: z\nequation: z^2 - x^2\napprox:   x +* y + O(m^8)\ntarget_order: 1\n"),
        ("elkik", "unknowns: x y\nequation: x*y\ncompare: x^2\n  compare: x^2 +* y  # the second\n"),
    ],
    ids=["equation", "approx", "compare"],
)
def test_a_parse_error_names_the_file_line_and_the_column_in_it(tmp_path, capsys, command, text):
    # each was reported at line 1 with its column inside the value
    bad = tmp_path / "bad.madic"
    bad.write_text(text)
    line = next(i for i, raw in enumerate(text.splitlines(), start=1) if "+*" in raw)
    col = text.splitlines()[line - 1].index("*") + 1
    code, out, err = run(capsys, command, str(bad))
    assert code == 3
    assert out == ""
    assert err == f"parse error: line {line}, col {col}: expected a term\n"
    if command == "groebner":
        assert (line, col) == (6, 14)


def test_a_parse_error_in_a_family_line_names_the_line_alone(tmp_path, capsys):
    # {k} is replaced before the line is read, so a column would not be one
    bad = tmp_path / "family.madic"
    bad.write_text("series_vars: x\nunknowns: z\nequation: z^2 - x^2\nfamily: x +* x^{k} + O(m^30)\nfamily_range: 4 5\ntargets: 3\n")
    code, out, err = run(capsys, "probe", str(bad))
    assert code == 3
    assert out == ""
    assert err == "parse error: line 4: expected a term\n"


def test_a_power_past_the_cap_ends_with_exit_4_at_once(tmp_path, capsys):
    # (1+x+y)^400 ran past 20 s while every power was expanded
    big = tmp_path / "power.madic"
    big.write_text("unknowns: x y\nequation: (1+x+y)^400\n")
    with budget(2):
        code, out, err = run(capsys, "groebner", str(big))
    assert code == 4
    assert out == ""
    assert err == f"capacity error: a power of more than {MAX_POWER_BITS} bits\n"


def test_a_product_past_the_cap_ends_with_exit_4_at_once(tmp_path, capsys):
    # the factors were multiplied one by one, at a cost about cubic in their
    # count: 100 of them took 0.34 s
    big = tmp_path / "product.madic"
    big.write_text("unknowns: x y\nequation: " + "*".join(["(1+x+y)"] * 400) + "\n")
    with budget(2):
        code, out, err = run(capsys, "groebner", str(big))
    assert code == 4
    assert out == ""
    assert err == f"capacity error: a product of more than {MAX_POWER_BITS} bits\n"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no digit limit in this interpreter")
@pytest.mark.parametrize("text", ["{}*x", "x^{}"], ids=["literal", "exponent"])
def test_an_integer_past_the_digit_limit_is_a_parse_error_at_its_column(tmp_path, capsys, text):
    # int() raised an untyped ValueError past the interpreter's digit limit
    limit = sys.get_int_max_str_digits()
    prob = tmp_path / "digits.madic"
    prob.write_text("unknowns: x\nequation: " + text.format("1" * (limit + 700)) + "\n")
    code, out, err = run(capsys, "groebner", str(prob))
    assert code == 3
    assert out == ""
    col = 11 + text.index("{")
    assert err == f"parse error: line 2, col {col}: an integer literal of more than {limit} digits\n"


@pytest.mark.parametrize("jet_length", ["0", "-1"])
def test_jet_length_below_one_is_a_parse_error(tmp_path, capsys, jet_length):
    # the GF(2) instance of test_live_reduced_jet_search_is_pinned: 0 was
    # dropped (a search at the default length 4), -1 crashed the search
    prob = tmp_path / "jets.madic"
    prob.write_text(
        "field: GF(2)\nseries_vars: x y\nunknowns: z\nequation: z^2 + x*z - y^2\n"
        f"approx: y + x^3 + O(m^6)\ntarget_order: 1\njet_length: {jet_length}\n"
    )
    code, out, err = run(capsys, "solve", str(prob), "--strategy", "jet-search")
    assert code == 3
    assert out == ""
    assert "jet_length must be at least 1" in err and jet_length in err


@pytest.mark.parametrize("K", ["0", "-1"])
@pytest.mark.parametrize(
    "command, fixture", [("probe", "probe_family.madic"), ("solve", "solve_basic.madic")]
)
def test_K_below_one_is_a_parse_error(tmp_path, capsys, command, fixture, K):
    # K = -1 made the probe's rhs_exponent a float ("2.5"), K = 0 made it
    # d^0 * (dist + 1)
    with open(fx(fixture), encoding="utf-8") as fh:
        text = fh.read()
    prob = tmp_path / "k.madic"
    prob.write_text(text + f"K: {K}\n")
    code, out, err = run(capsys, command, str(prob), "--json")
    assert code == 3
    assert out == ""
    assert "K must be at least 1" in err and K in err


@pytest.mark.parametrize(
    "command, fixture, read",
    [
        ("solve", "solve_basic.madic", lambda p: p["certificate"]["target_order"]),
        ("refine", "solve_basic.madic", lambda p: p["certificate"]["target_order"]),
        ("bounds", "bounds_basic.madic", lambda p: p["report"]["inputs"]["c"]),
    ],
)
def test_target_order_zero_is_read(capsys, command, fixture, read):
    # `--target-order 0` was dropped for the file's value (3 and c = 1)
    code, out, _ = run(capsys, command, fx(fixture), "--target-order", "0", "--json")
    assert code == 0
    assert read(json.loads(out)) == 0


def test_elkik_hard_ends_within_five_seconds(capsys):
    # 47 raw generators of H up to degree 16, a basis of six: about 35 s
    # while generators entered in the order given and pairs by lcm alone
    with budget(5):
        code, out, _ = run(capsys, "elkik", fx("elkik_hard.madic"), "--json")
    assert code == 0
    assert len(json.loads(out)["generators"]) == 6


@pytest.mark.parametrize("key, value, least", [("m", 0, 1), ("d", 1, 2), ("n", 0, 1), ("s", 0, 1), ("K", 0, 1)])
def test_bounds_key_below_its_minimum_is_a_parse_error(tmp_path, capsys, key, value, least):
    # s: 0 ended as an untyped "need s >= 1 and c >= 0" (exit 2)
    keys = {"m": 1, "d": 2, "n": 1, "s": 1, "c": 1, key: value}
    prob = tmp_path / "bounds.madic"
    prob.write_text("".join(f"{k}: {v}\n" for k, v in keys.items()))
    code, out, err = run(capsys, "bounds", str(prob), "--json")
    assert code == 3
    assert out == ""
    assert f"parse error: {key} must be at least {least}" in err and f"got {value}" in err


SOLVE_BODY = (
    "series_vars: x y\nunknowns: z\nequation: z^2 - x^2\n"
    "approx: x + x^4 + O(m^24)\ntarget_order: 3\n"
)


def test_a_large_prime_field_is_decided_at_once(tmp_path, capsys):
    # 2^61 - 1 is prime; trial division up to its square root ran for minutes
    prob = tmp_path / "big.madic"
    prob.write_text("field: GF(2305843009213693951)\n" + SOLVE_BODY)
    with budget(1):
        code, out, _ = run(capsys, "solve", str(prob), "--json")
    assert code == 0
    assert json.loads(out)["certificate"]["status"] == "certified-to-precision"


@pytest.mark.parametrize("p", ["1", "4", "561"])
def test_a_field_that_is_not_prime_is_a_parse_error(tmp_path, capsys, p):
    # 561 = 3 * 11 * 17 is a Carmichael number
    prob = tmp_path / "field.madic"
    prob.write_text(f"field: GF({p})\n" + SOLVE_BODY)
    code, out, err = run(capsys, "solve", str(prob))
    assert code == 3
    assert out == ""
    assert f"parse error: field must be Q or GF(p) for a prime p; not a prime: {p}" in err


PROBE_BODY = (
    "series_vars: x\nunknowns: z\nequation: z^2 - x^2\n"
    "family: x + x^{k} + O(m^30)\nfamily_range: 4 5\n"
)


NEG_TARGET = ["--target-order", "-2"]


@pytest.mark.parametrize(
    "command, text, flags, where, least, value",
    [
        ("solve", SOLVE_BODY.replace("target_order: 3", "target_order: -2"), [], "target_order", 0, -2),
        ("solve", SOLVE_BODY, NEG_TARGET, "--target-order", 0, -2),
        ("refine", SOLVE_BODY.replace("target_order: 3", "target_order: -2"), [], "target_order", 0, -2),
        ("refine", SOLVE_BODY, NEG_TARGET, "--target-order", 0, -2),
        ("bounds", "m: 1\nd: 2\nc: -2\n", [], "c", 0, -2),
        ("bounds", "m: 1\nd: 2\n", NEG_TARGET, "--target-order", 0, -2),
        ("probe", PROBE_BODY + "targets: 3 -2\n", [], "targets", 0, -2),
        ("probe", PROBE_BODY + "target_order: -2\n", [], "target_order", 0, -2),
        # a precision below 1 ended as an untyped "precision must be positive"
        ("solve", SOLVE_BODY, ["--precision", "0"], "--precision", 1, 0),
        ("refine", SOLVE_BODY, ["--precision", "-3"], "--precision", 1, -3),
        ("probe", PROBE_BODY + "targets: 3\n", ["--precision", "0"], "--precision", 1, 0),
        ("prepare", "series_vars: x y\nseries: y^2 - x + O(m^8)\n", ["--precision", "0"], "--precision", 1, 0),
        ("divide", "series_vars: x y\ndividend: y^3 + O(m^8)\ndivisor: y^2 - x + O(m^8)\n",
         ["--precision", "0"], "--precision", 1, 0),
    ],
    ids=["solve-key", "solve-flag", "refine-key", "refine-flag", "bounds-c", "bounds-flag",
         "probe-targets", "probe-key", "solve-precision", "refine-precision", "probe-precision",
         "prepare-precision", "divide-precision"],
)
def test_a_negative_target_order_is_a_parse_error(tmp_path, capsys, command, text, flags, where, least, value):
    # refine certified with -2 while solve failed in bounds.gamma, untyped
    prob = tmp_path / "neg.madic"
    prob.write_text(text)
    code, out, err = run(capsys, command, str(prob), "--json", *flags)
    assert code == 3
    assert out == ""
    assert err == f"parse error: {where} must be at least {least} in {prob}, got {value}\n"


def test_a_field_past_the_primality_bound_is_a_capacity_error(tmp_path, capsys):
    prob = tmp_path / "huge.madic"
    prob.write_text("field: GF(3317044064679887385961981)\n" + SOLVE_BODY)
    code, out, err = run(capsys, "solve", str(prob))
    assert code == 4
    assert out == ""
    assert "exact only below 3317044064679887385961981" in err


def test_a_target_that_is_not_an_integer_is_a_parse_error(tmp_path, capsys):
    # `targets: 3 x` raised an untyped ValueError
    prob = tmp_path / "targets.madic"
    prob.write_text(PROBE_BODY + "targets: 3 x\n")
    code, out, err = run(capsys, "probe", str(prob))
    assert code == 3
    assert out == ""
    assert "targets must be an integer, got 'x'" in err
    # so was `family_range: 1 x`
    prob.write_text(PROBE_BODY.replace("family_range: 4 5", "family_range: 1 x") + "targets: 3\n")
    code, out, err = run(capsys, "probe", str(prob))
    assert code == 3
    assert out == ""
    assert err == "parse error: family_range must be an integer, got 'x'\n"
