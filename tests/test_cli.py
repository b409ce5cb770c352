"""Command-line surface: grammars, exit codes, stable JSON."""
from __future__ import annotations

import json

import pytest

from greenhrt import macaulay, verifiers
from greenhrt.cli import COMMANDS, Group, main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rep_human_and_json(capsys):
    code, out, _ = run(capsys, ["rep", "8", "3"])
    assert code == 0
    assert out.strip() == "8 = C(4,3)+C(3,2)+C(1,1)"
    code, out, _ = run(capsys, ["rep", "8", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"a": 8, "d": 3, "numerators": [4, 3, 1], "delta": 1}


def test_kappa_command(capsys):
    code, out, _ = run(capsys, ["kappa", "8", "3", "--format", "json"])
    assert code == 0
    assert json.loads(out)["kappa"] == 2


def test_kappa_of_a_huge_value_is_exact(capsys):
    # 10^30 is far past the cached binomial rows. The value is pinned from a
    # bisection for the largest C(m, i) <= rem at each degree.
    code, out, _ = run(capsys, ["kappa", str(10**30), "4", "--format", "json"])
    assert code == 0
    assert json.loads(out)["kappa"] == 999999942851192434021569196250


def test_kappa_at_a_huge_degree_prints_at_once(capsys):
    # Its representation is 10^8 unit picks C(j, j), which add 0 and are
    # never listed (this once ended in a MemoryError traceback).
    assert run(capsys, ["kappa", "100000000", "100000000"]) == (
        0, "kappa(100000000,100000000) = 0\n", "")


def test_bound_green(capsys):
    code, out, _ = run(capsys, ["bound", "green", "5", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out)["bound"] == 2


def test_bound_module(capsys):
    code, out, _ = run(
        capsys,
        ["bound", "module", "--n", "2", "--degrees", "0,1", "--m", "2", "--h", "4",
         "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 1 and payload["pivot"] == 1
    assert payload["capacities"] == [3, 2]


def test_bound_module_capacity_error_is_input_error(capsys):
    code, _, err = run(
        capsys,
        ["bound", "module", "--n", "2", "--degrees", "0", "--m", "2", "--h", "99"],
    )
    assert code == 2
    assert "exceeds" in err


def test_bound_scaled(capsys):
    code, out, _ = run(
        capsys, ["bound", "scaled", "--n", "3", "--d", "2", "--h", "6", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["numerator"], payload["denominator"]) == (3, 1)


def test_level_analyze(capsys):
    code, out, _ = run(capsys, ["level", "analyze", "--h", "1,3,3,3,2", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["hGM"] == [1, 3, 2, 1]
    assert payload["hG"] == [1, 2, 3, 2]
    assert payload["win_positions"] == [2]


def test_level_table_passes(capsys):
    code, out, _ = run(capsys, ["level", "table", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] and payload["total"] == 21


def test_level_table_custom_data_failure(capsys, tmp_path):
    bad = tmp_path / "rows.csv"
    bad.write_text("2;1,3,3,3,2;1,3,2,2;1,2,3,2\n")
    code, out, _ = run(capsys, ["level", "table", "--data", str(bad), "--format", "json"])
    assert code == 1
    assert not json.loads(out)["all_ok"]


def test_level_table_bad_data_is_input_error(capsys, tmp_path):
    missing = tmp_path / "nope.csv"
    code, out, err = run(capsys, ["level", "table", "--data", str(missing)])
    assert code == 2 and out == ""
    assert err.startswith("error: level table dataset: ") and str(missing) in err

    malformed = tmp_path / "rows.csv"
    malformed.write_text("# header\n2;1,3,3,3,2;1,3,2,1;1,2,3,2\n2;1,3;1\n")
    code, out, err = run(capsys, ["level", "table", "--data", str(malformed)])
    assert code == 2 and out == ""
    assert err.startswith("error: level table dataset: line 3: expected 4 fields")


def test_sweep_counterexamples_exit_one_and_print_at_most_ten(capsys, monkeypatch):
    found = [{"h": h, "lhs": h + 1, "rhs": h} for h in range(12)]

    def failing_rank2(n, d1, d2):
        return verifiers.VerificationOutcome("rank2", {"n": n}, cases=12, counterexamples=found)

    monkeypatch.setattr(verifiers, "check_rank2", failing_rank2)
    code, out, _ = run(capsys, ["verify", "rank2", "--n", "2", "--d1", "1", "--d2", "1"])
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "rank2: 12 cases, 12 counterexamples"
    assert lines[1:] == [str(c) for c in found[:10]]

    code, out, _ = run(capsys, ["verify", "rank2", "--n", "2", "--d1", "1", "--d2", "1",
                                "--format", "json"])
    assert code == 1 and len(json.loads(out)["counterexamples"]) == 12


def test_verify_rank2(capsys):
    code, out, _ = run(
        capsys, ["verify", "rank2", "--n", "3", "--d1", "3", "--d2", "2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["statement"] == "rank2"
    assert payload["counterexamples"] == []
    assert payload["cases"] > 0


def test_verify_kappa_lemma_small(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "kappa-lemma", "--a-max", "60", "--d-max", "3", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out)["counterexamples"] == []


def test_verify_herz_and_lex(capsys):
    code, out, _ = run(
        capsys, ["verify", "herz", "--a-max", "50", "--d-max", "3", "--format", "json"]
    )
    assert code == 0
    code, out, _ = run(
        capsys, ["verify", "lex-restriction", "--n", "3", "--d", "2", "--format", "json"]
    )
    assert code == 0
    assert json.loads(out)["statement"] == "lex-restriction"


def test_verify_higher_and_scaled(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "higher", "--n", "2", "--d-max", "3", "--r-max", "2",
         "--samples", "20", "--seed", "1", "--format", "json"],
    )
    assert code == 0
    code, out, _ = run(
        capsys,
        ["verify", "scaled", "--n-max", "2", "--r-max", "1", "--d-max", "2",
         "--samples", "1", "--format", "json"],
    )
    assert code == 0


def test_oracle_commands(capsys, tmp_path):
    module_file = tmp_path / "module.json"
    module_file.write_text(
        json.dumps({"n": 3, "degrees": [0], "components": [[[2, 0, 0]]]})
    )
    code, out, _ = run(
        capsys, ["oracle", "restrict", "--module", str(module_file), "--m", "2",
                 "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["generic_dim"] == 2 and payload["bound"] == 2
    assert payload["holds"] and payload["equality"]

    code, out, _ = run(
        capsys, ["oracle", "certify", "--module", str(module_file), "--m", "2",
                 "--format", "json"]
    )
    assert code == 0

    # Full stdout and exit code of both commands, byte for byte, on a lex
    # top slice, a non-top module, a zero module and a one-variable module.
    pinned = [
        ({"n": 2, "degrees": [0, 1], "components": [[[1, 1], [2, 0]], []]}, 2,
         [1, 1, 1], 1, True),
        ({"n": 2, "degrees": [0, 1], "components": [[[0, 2]], []]}, 2, [1, 1, 1], 1, False),
        ({"n": 3, "degrees": [0, 1, 1], "components": [[], [], []]}, 3,
         [10, 10, 10], 10, True),
        ({"n": 1, "degrees": [0, 3], "components": [[[3]], []]}, 3, [1, 1, 1], 1, True),
    ]
    for data, m, dims, dim, top in pinned:
        module_file.write_text(json.dumps(data))
        json_line = (
            f'{{"m": {m}, "p": 32003, "trials": 3, "seed": 0, "dims": {dims}, '
            f'"generic_dim": {dim}, "bound": {dim}, "holds": true, "equality": true}}\n'
        )
        human = {
            "restrict": f"generic restriction dim = {dim} (trials {dims}), bound = {dim},"
                        f" holds = True, equality = True\n",
            "certify": f"certified: generic dim {dim} vs bound {dim}"
                       f" (top-slice equality expected: {top})\n",
        }
        for kind in ("restrict", "certify"):
            argv = ["oracle", kind, "--module", str(module_file), "--m", str(m)]
            assert run(capsys, argv) == (0, human[kind], ""), (data, kind)
            assert run(capsys, [*argv, "--format", "json"]) == (0, json_line, ""), (data, kind)


@pytest.mark.parametrize(
    "module,m,expected",
    [
        # A generator far above degree m divides nothing there.
        ({"n": 2, "degrees": [0], "components": [[[10**30, 0], [0, 1]]]}, 3,
         {"dims": [0, 0, 0], "generic_dim": 0, "bound": 0}),
        # One variable: the degree m - f_i is unbounded.
        ({"n": 1, "degrees": [0, 0, 2], "components": [[[3]], [[10**30]], []]}, 10**20,
         {"dims": [0, 0, 0], "generic_dim": 0, "bound": 0}),
    ],
)
def test_oracle_keeps_wide_integers_exact(capsys, tmp_path, module, m, expected):
    module_file = tmp_path / "module.json"
    module_file.write_text(json.dumps(module))
    for kind in ("restrict", "certify"):
        code, out, _ = run(
            capsys, ["oracle", kind, "--module", str(module_file), "--m", str(m),
                     "--format", "json"]
        )
        assert code == 0, kind
        assert json.loads(out) == {"m": m, "p": 32003, "trials": 3, "seed": 0, **expected,
                                   "holds": True, "equality": True}, kind


def test_oracle_bad_file_and_json(capsys, tmp_path):
    code, _, err = run(
        capsys, ["oracle", "restrict", "--module", str(tmp_path / "nope.json"), "--m", "2"]
    )
    assert code == 2 and "cannot read" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, ["oracle", "restrict", "--module", str(bad), "--m", "2"])
    assert code == 2 and "not valid JSON" in err

    wide = tmp_path / "wide.json"  # an exponent past Python's int parsing limit
    wide.write_text('{"n": 1, "degrees": [0], "components": [[[1' + "0" * 5000 + "]]]}")
    code, _, err = run(capsys, ["oracle", "certify", "--module", str(wide), "--m", "2"])
    assert code == 2 and err.startswith(f"error: module file {wide} is not valid JSON: ")

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"n": 2, "degrees": [0]}))
    code, _, err = run(capsys, ["oracle", "restrict", "--module", str(missing), "--m", "2"])
    assert code == 2 and "components" in err

    boolean = tmp_path / "bool.json"
    boolean.write_text(json.dumps({"n": True, "degrees": [0], "components": [[[True]]]}))
    code, _, err = run(capsys, ["oracle", "certify", "--module", str(boolean), "--m", "0"])
    assert code == 2 and "'n'" in err


@pytest.mark.parametrize("kind", ["restrict", "certify"])
@pytest.mark.parametrize(
    "content,message",
    [
        (b"[" * 100_000 + b"]" * 100_000, "nested too deeply"),
        (b"\xff\xfe{}", "can't decode byte 0xff"),
    ],
    ids=["deep", "not-utf8"],
)
def test_oracle_unreadable_module_file_names_it(capsys, tmp_path, kind, content, message):
    module_file = tmp_path / "module.json"
    module_file.write_bytes(content)
    code, out, err = run(capsys, ["oracle", kind, "--module", str(module_file), "--m", "2"])
    assert code == 2 and out == ""
    assert err.startswith(f"error: module file {module_file}: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "make,field",
    [
        (lambda: {"n": [0] * 10**6, "degrees": [0], "components": [[]]}, "'n'"),
        (lambda: {"n": 2, "degrees": [0], "components": [[[1, 0], [0] * 10**6]]},
         "'components[0][1]'"),
        (lambda: {"n": 2, "degrees": list(range(10**5, 0, -1)), "components": [[]] * 10**5},
         "'degrees'"),
        (lambda: {"n": 2, "degrees": [], "components": []}, "'degrees'"),
    ],
    ids=["n-list", "long-vector", "unsorted-degrees", "empty-degrees"],
)
def test_oversized_module_field_is_named_not_echoed(capsys, tmp_path, make, field):
    # Each of these once wrote the whole offending value to stderr: 3 MB
    # for the two 10^6-entry lists.
    module_file = tmp_path / "module.json"
    module_file.write_text(json.dumps(make()))
    code, out, err = run(capsys, ["oracle", "certify", "--module", str(module_file), "--m", "2"])
    assert code == 2 and out == ""
    assert f"field {field}" in err and len(err.encode()) < 1024, err[:200]


def test_oracle_modulus_too_large_is_input_error(capsys, tmp_path):
    # Checked before any work, also where no block would need a rank.
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"n": 2, "degrees": [0], "components": [[]]}))
    for m in ("0", "2"):
        code, _, err = run(
            capsys, ["oracle", "certify", "--module", str(zero), "--m", m, "--p", "2147483659"]
        )
        assert code == 2, m
        assert "modulus 2147483659 too large for int64 arithmetic" in err, m


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["bound", "unknown-kind"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    # A long flag binds only when spelled in full, never by a unique prefix.
    for argv in (["verify", "higher", "--r", "2"],
                 ["verify", "kappa-lemma", "--a-m", "10", "--d-m", "2"],
                 ["kappa", "8", "3", "--form", "json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize(
    "argv, field",
    [
        (["verify", "herz", "--d-max", "0"], "d_max"),
        (["verify", "herz", "--d-max", "-3"], "d_max"),
        (["verify", "higher", "--samples", "-1"], "samples"),
        (["verify", "higher", "--d-max", "0"], "d_max"),
        (["verify", "higher", "--r-max", "0"], "r_max"),
        (["verify", "scaled", "--n-max", "0"], "n_max"),
        (["verify", "scaled", "--r-max", "0"], "r_max"),
        (["verify", "scaled", "--samples", "-2"], "samples"),
        (["verify", "scaled", "--d-max", "-1"], "d_max"),
        (["verify", "scaled", "--n-max", "1", "--d-max", "0"], "d_max"),
        (["bound", "scaled", "--n", "1", "--d", "0", "--h", "1"], "d"),
        (["verify", "kappa-lemma", "--d-max", "0"], "d_max"),
        (["verify", "kappa-lemma", "--a-max", "0"], "a_max"),
    ],
)
def test_vacuous_sweeps_are_input_errors(capsys, argv, field):
    # Each of these once passed with 0 cases, echoed a negative count or
    # (bound scaled at n = 1, d = 0) ended in a ZeroDivisionError traceback.
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {field} ")


def test_herz_range_errors_name_the_value(capsys):
    for flag, value, line in (
        ("--a-max", "1", "error: a_max must be at least 2, got 1"),
        ("--d-max", "0", "error: d_max must be at least 1, got 0"),
    ):
        code, out, err = run(capsys, ["verify", "herz", flag, value])
        assert (code, out, err) == (2, "", line + "\n")


@pytest.mark.parametrize(
    "argv, fit, message",
    [
        (["verify", "higher", "--n", "2", "--d-max", "2", "--r-max", "2", "--samples", "3"], 31,
         "d_max, r_max and samples too large: d_max=2, r_max=2, samples=3 give more than 30 cases"),
        (["verify", "rank2", "--n", "2", "--d1", "2", "--d2", "1"], 12,
         "n, d1 and d2 too large: n=2, d1=2, d2=1 give more than 11 cases"),
        (["verify", "herz", "--a-max", "49", "--d-max", "2"], 98,
         "a_max and d_max too large: a_max=49, d_max=2 give more than 97 cases"),
        (["verify", "kappa-lemma", "--a-max", "12", "--d-max", "3"], 546,
         "a_max and d_max too large: a_max=12, d_max=3 give more than 545 cases"),
    ],
    ids=["higher", "rank2", "herz", "kappa-lemma"],
)
def test_sweep_cases_are_capped(capsys, monkeypatch, argv, fit, message):
    # higher runs 2 x (2 + 3) + 3 x (4 + 3) = 31 cases, rank2 (3 + 1) x (2 + 1)
    # = 12, herz 49 x 2 = 98 and kappa-lemma 3 x (13^2 + 13) = 546. A ceiling
    # of exactly that many runs them (the ceiling is inclusive); one fewer is
    # an input error, not a partial run.
    monkeypatch.setattr(verifiers, "_MAX_CASES", fit)
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert (code, err) == (0, "")
    assert json.loads(out)["cases"] == fit
    monkeypatch.setattr(verifiers, "_MAX_CASES", fit - 1)
    assert run(capsys, argv + ["--format", "json"]) == (2, "", f"error: {message}\n")


def _no_binomial(n, d):
    raise AssertionError(f"dim S_{d} in n={n} variables computed before the case ceiling")


def _no_table(A, d_max):
    raise AssertionError(f"kappa tables for a <= {A} at {d_max} degrees built before the ceiling")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "higher", "--n", "3", "--d-max", "60", "--r-max", "8", "--samples", "0"],
         "d_max, r_max and samples too large: d_max=60, r_max=8, samples=0 give more than "
         "67108864 cases"),
        (["verify", "higher", "--n", "1", "--d-max", "1", "--r-max", "10000000000000"],
         "d_max, r_max and samples too large: d_max=1, r_max=10000000000000, samples=100 give "
         "more than 67108864 cases"),
        (["verify", "rank2", "--n", "50", "--d1", "50", "--d2", "50"],
         "n, d1 and d2 too large: n=50, d1=50, d2=50 give more than 67108864 cases"),
        (["verify", "rank2", "--n", "1000000", "--d1", "1000000", "--d2", "1"],
         "n, d1 and d2 too large: n=1000000, d1=1000000, d2=1 give more than 67108864 cases"),
        (["verify", "kappa-lemma", "--a-max", "200000", "--d-max", "1"],
         "a_max and d_max too large: a_max=200000, d_max=1 give more than 67108864 cases"),
        (["verify", "kappa-lemma", "--a-max", "10000000", "--d-max", "2"],
         "a_max and d_max too large: a_max=10000000, d_max=2 give more than 67108864 cases"),
        (["verify", "herz", "--a-max", "3000", "--d-max", "100000"],
         "a_max and d_max too large: a_max=3000, d_max=100000 give more than 67108864 cases"),
        # Past both ceilings the case count is named.
        (["verify", "kappa-lemma", "--a-max", "10", "--d-max", "10000000"],
         "a_max and d_max too large: a_max=10, d_max=10000000 give more than 67108864 cases"),
        (["verify", "kappa-lemma", "--a-max", "1", "--d-max", "262145"],
         "d_max too large: d_max=262145 gives more than 262144 degrees"),
        (["verify", "herz", "--a-max", "2", "--d-max", "262145"],
         "d_max too large: d_max=262145 gives more than 262144 degrees"),
        (["verify", "higher", "--n", "2", "--d-max", "1000000", "--r-max", "1", "--samples", "0"],
         "d_max and r_max too large: d_max=1000000, r_max=1 give more than 262144 degree tuples"),
        (["verify", "higher", "--n", "2", "--d-max", "1000", "--r-max", "2", "--samples", "30"],
         "d_max and r_max too large: d_max=1000, r_max=2 give more than 262144 degree tuples"),
    ],
    ids=["higher-d", "higher-r", "rank2-square", "rank2-huge-n", "kappa-lemma-a",
         "kappa-lemma-table", "herz-d", "kappa-lemma-cases-first", "kappa-lemma-degrees",
         "herz-degrees", "higher-degree-tuples", "higher-degree-pairs"],
)
def test_huge_sweeps_are_refused_before_any_case(capsys, monkeypatch, argv, message):
    # Each once ran for minutes or more (higher at d_max = 60, r_max = 8 was
    # building ~4e9 degree tuples; rank2 at n = d = 50 has ~C(99, 50)^2
    # cases; kappa-lemma at a_max = 200000 has ~4e10). rank2 refuses these from
    # 2^min(d, n - 1) <= dim S_d, before any binomial; higher stops summing
    # its count once it passes the ceiling; kappa-lemma and herz never ask
    # for a kappa table. Past the case ceiling, each degree (kappa-lemma,
    # herz) or degree tuple (higher) still costs a table, a bound profile or
    # a kappa memo however few cases it holds: higher at d_max = 10^6,
    # r_max = 1 has 2M cases but took ~20 s and ~900 MB, and kappa-lemma at
    # a_max = 1, d_max = 300000 ~12 s.
    built = []
    monkeypatch.setattr(verifiers, "nonincreasing_tuples", lambda *args: built.append(args))
    monkeypatch.setattr(verifiers, "_kappa_tables", _no_table)
    if argv[1] == "rank2":
        monkeypatch.setattr(verifiers, "_dim_s", _no_binomial)
    assert run(capsys, argv) == (2, "", f"error: {message}\n")
    assert built == []


@pytest.mark.parametrize(
    "argv, fit, message",
    [
        (["verify", "kappa-lemma", "--a-max", "3", "--d-max", "4"], 4,
         "d_max too large: d_max=4 gives more than 3 degrees"),
        (["verify", "herz", "--a-max", "5", "--d-max", "3"], 3,
         "d_max too large: d_max=3 gives more than 2 degrees"),
        (["verify", "higher", "--n", "2", "--d-max", "3", "--r-max", "2", "--samples", "1"], 9,
         "d_max and r_max too large: d_max=3, r_max=2 give more than 8 degree tuples"),
    ],
    ids=["kappa-lemma", "herz", "higher"],
)
def test_sweep_degrees_are_capped(capsys, monkeypatch, argv, fit, message):
    # higher has 3 + 6 = 9 degree tuples. The ceiling is inclusive, as the
    # case ceiling is.
    monkeypatch.setattr(verifiers, "_MAX_DEGREES", fit)
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert (code, err) == (0, "")
    if argv[1] == "higher":
        assert json.loads(out)["ranges"]["tuples"] == fit
    monkeypatch.setattr(verifiers, "_MAX_DEGREES", fit - 1)
    assert run(capsys, argv + ["--format", "json"]) == (2, "", f"error: {message}\n")


def _no_greedy(a, d):
    raise AssertionError("Macaulay pass started before the degree ceiling")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["kappa", "100000000000000", "10000000"],
         "a and d too large: a=100000000000000, d=10000000 give more than 262144 degrees"),
        (["kappa", "1000000000000", "1000000"],
         "a and d too large: a=1000000000000, d=1000000 give more than 262144 degrees"),
        (["bound", "green", "100000000000000", "10000000"],
         "h and d too large: h=100000000000000, d=10000000 give more than 262144 degrees"),
        (["rep", "10000000", "10000000"],
         "a and d too large: a=10000000, d=10000000 give more than 262144 degrees"),
    ],
    ids=["kappa", "kappa-1e12", "bound-green", "rep"],
)
def test_long_macaulay_passes_are_refused_before_any_pick(capsys, monkeypatch, argv, message):
    # Each once ended in a MemoryError traceback with exit 1 under a 2 GB
    # address-space limit (kappa 10^12 in base 10^6 took 2.3 s and 320 MB).
    # A pass visits at most min(d, isqrt(2a)) degrees, and a representation
    # lists at most min(a, d) numerators; both are known before any pick.
    monkeypatch.setattr(macaulay, "_greedy", _no_greedy)
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, fit, message",
    [
        (["kappa", "50", "20"], 10, "a and d too large: a=50, d=20 give more than 9 degrees"),
        (["kappa", "50", "7"], 7, "a and d too large: a=50, d=7 give more than 6 degrees"),
        (["bound", "green", "72", "20"], 12,
         "h and d too large: h=72, d=20 give more than 11 degrees"),
        (["rep", "9", "20"], 9, "a and d too large: a=9, d=20 give more than 8 degrees"),
        (["rep", "30", "6"], 6, "a and d too large: a=30, d=6 give more than 5 degrees"),
        (["bound", "module", "--n", "3", "--degrees", "0", "--m", "20", "--h", "72"], 12,
         "h and m too large: h=72, m=20 give more than 11 degrees"),
        (["bound", "module", "--n", "2", "--degrees", "0,1", "--m", "30", "--h", "40"], 4,
         "h and m too large: h=40, m=30 give more than 3 degrees"),
    ],
    ids=["kappa-a", "kappa-d", "bound-green", "rep-a", "rep-d", "bound-module",
         "bound-module-pivot"],
)
def test_macaulay_pass_degrees_are_capped(capsys, monkeypatch, argv, fit, message):
    # isqrt(100) = 10, isqrt(144) = 12. bound module counts its head's pass:
    # at n = 2, m = 30 the capacities are (31, 30), so h = 40 fills the
    # second component and leaves a head of 10 at d = 30, isqrt(20) = 4. The
    # ceiling is inclusive, as the sweeps' are; invalid input keeps its own
    # error line.
    monkeypatch.setattr(verifiers, "_MAX_DEGREES", fit)
    code, out, err = run(capsys, argv + ["--format", "json"])
    assert (code, err) == (0, "") and out
    monkeypatch.setattr(verifiers, "_MAX_DEGREES", fit - 1)
    assert run(capsys, argv + ["--format", "json"]) == (2, "", f"error: {message}\n")
    monkeypatch.setattr(verifiers, "_MAX_DEGREES", 0)
    module = ["bound", "module", "--n", "2", "--degrees", "0,1", "--m", "2"]
    for bad, error in ((["kappa", "-1", "5"], "cannot represent negative integer -1"),
                       (["rep", "5", "0"], "representation base must be >= 1, got d=0"),
                       (["bound", "green", "-1", "5"], "dimension must be non-negative, got h=-1"),
                       (module + ["--h", "-1"], "dimension must be non-negative, got h=-1"),
                       (module + ["--h", "6"], "h=6 exceeds dim F_2 = 5")):
        assert run(capsys, bad) == (2, "", f"error: {error}\n")
    assert run(capsys, ["bound", "green", "5", "0"]) == (0, "green_bound(5,0) = 5\n", "")


def test_bound_module_head_pass_is_refused_before_it_runs(capsys, monkeypatch):
    # It once ended in a MemoryError traceback with exit 1 under a 2 GB
    # address-space limit: kappa(10^15, 10^8) picks about 10^7 times. The
    # full term kappa(N_1, 10^8) is one pick and may run; the head's may not.
    real_greedy = macaulay._greedy

    def greedy(a, d):
        assert a != 10**15, "head pass started before the degree ceiling"
        return real_greedy(a, d)

    monkeypatch.setattr(macaulay, "_greedy", greedy)
    argv = ["bound", "module", "--n", "3", "--degrees", "0", "--m", "100000000",
            "--h", "1000000000000000"]
    assert run(capsys, argv) == (2, "", "error: h and m too large: h=1000000000000000, "
                                        "m=100000000 give more than 262144 degrees\n")


class _NoNumpy:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} used before the table ceiling")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "herz", "--a-max", "10000000000", "--d-max", "2"],
        ["verify", "kappa-lemma", "--a-max", "100000000000", "--d-max", "2"],
        ["verify", "herz", "--a-max", "3000", "--d-max", "100000"],
    ],
    ids=["herz-a", "kappa-lemma-a", "herz-d"],
)
def test_huge_kappa_tables_are_refused_before_numpy(capsys, monkeypatch, argv):
    # Each once ended in numpy's _ArrayMemoryError traceback with exit 1, the
    # counterexample code. The ceiling is checked before numpy is touched.
    monkeypatch.setattr(macaulay, "np", _NoNumpy())
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: a_max and d_max too large: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, n",
    [
        (["verify", "higher", "--n", "-1", "--d-max", "1", "--r-max", "1"], -1),
        (["verify", "rank2", "--n", "-3", "--d1", "2", "--d2", "1"], -3),
    ],
    ids=["higher", "rank2"],
)
def test_negative_variable_count_is_named(capsys, argv, n):
    # Both once ended with math.comb's "n must be a non-negative integer",
    # which also suggested that n = 0 was allowed.
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, "", f"error: need at least one variable, got n={n}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "0", "--d", "2"], "need at least one variable, got n=0"),
        (["--n", "2", "--d", "-1"], "degree must be non-negative, got d=-1"),
    ],
    ids=["n", "d"],
)
def test_lex_restriction_range_errors_are_named(capsys, argv, message):
    code, out, err = run(capsys, ["verify", "lex-restriction", *argv])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_json_output_is_byte_stable(capsys):
    argv = ["level", "analyze", "--h", "1,3,3,3,2", "--format", "json"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def _leaf_paths(node, path=()):
    if isinstance(node, Group):
        for name, child in node.children.items():
            yield from _leaf_paths(child, path + (name,))
    else:
        yield path


def test_every_subcommand_has_json_path(capsys, tmp_path):
    module_file = tmp_path / "module.json"
    module_file.write_text(
        json.dumps({"n": 3, "degrees": [0], "components": [[[2, 0, 0]]]})
    )
    module = ["--module", str(module_file), "--m", "2"]
    cases = {
        ("rep",): ["5", "2"],
        ("kappa",): ["5", "2"],
        ("bound", "green"): ["3", "2"],
        ("bound", "module"): ["--n", "2", "--degrees", "0", "--m", "2", "--h", "1"],
        ("bound", "scaled"): ["--n", "2", "--d", "1", "--h", "2"],
        ("level", "analyze"): ["--h", "1,2"],
        ("level", "table"): [],
        ("verify", "kappa-lemma"): ["--a-max", "20", "--d-max", "2"],
        ("verify", "herz"): ["--a-max", "20", "--d-max", "2"],
        ("verify", "rank2"): ["--n", "2", "--d1", "2", "--d2", "1"],
        ("verify", "higher"): ["--n", "2", "--d-max", "2", "--r-max", "2", "--samples", "2"],
        ("verify", "lex-restriction"): ["--n", "2", "--d", "2"],
        ("verify", "scaled"): ["--n-max", "2", "--r-max", "1", "--d-max", "1",
                               "--samples", "1"],
        ("oracle", "restrict"): module,
        ("oracle", "certify"): module,
    }
    # Read from the command table, so a new leaf without a case fails here.
    assert sorted(cases) == sorted(_leaf_paths(COMMANDS))
    for path, argv in cases.items():
        code = main([*path, *argv, "--format", "json"])
        out = capsys.readouterr().out
        json.loads(out)  # must parse
        assert code == 0, path


def test_repeated_main_calls_share_no_state(capsys):
    # The argument parser is built once per process; nothing a call parses
    # may leak into the next one.
    higher = ["verify", "higher", "--n", "2", "--d-max", "2", "--r-max", "1",
              "--samples", "3"]
    code, out, _ = run(capsys, higher + ["--seed", "3", "--format", "json"])
    assert code == 0 and json.loads(out)["ranges"]["seed"] == 3
    code, out, _ = run(capsys, higher + ["--format", "json"])
    assert code == 0 and json.loads(out)["ranges"]["seed"] == 0

    code, out, _ = run(capsys, ["kappa", "8", "3", "--format", "json"])
    assert code == 0 and json.loads(out) == {"a": 8, "d": 3, "kappa": 2}
    code, out, _ = run(capsys, ["kappa", "8", "3"])
    assert code == 0 and out == "kappa(8,3) = 2\n"

    good = ["bound", "module", "--n", "2", "--degrees", "0,1", "--m", "2", "--h", "3",
            "--format", "json"]
    _, first, _ = run(capsys, good)
    code, _, err = run(capsys, ["bound", "module", "--n", "2", "--degrees", "0",
                                "--m", "2", "--h", "99"])
    assert code == 2 and err.startswith("error:")
    with pytest.raises(SystemExit) as exc:
        main(["bound", "module", "--n", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, second, _ = run(capsys, good)
    assert code == 0 and second == first
