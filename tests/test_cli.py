"""Document round-trips and CLI behaviour (determinism, exit codes)."""

import json

import pytest

from midconv.cli import main
from midconv.documents import (
    dumps_canonical,
    matrix_to_json,
    parse_document,
    parse_scalar_flag,
    scalar_from_json,
    scalar_to_json,
    serialize_document,
    system_from_document,
    system_to_document,
)
from midconv.errors import ParseError, ValidationError
from midconv.exactalg import Matrix, gr
from midconv.systems import PrincipalPart, System, scalar_system



@pytest.fixture
def triple(nilpotent_triple):
    return nilpotent_triple


@pytest.fixture
def triple_file(tmp_path, triple):
    path = tmp_path / "triple.sys"
    path.write_text(serialize_document(triple))
    return str(path)


def run_cli(capsys, *args):
    status = main(list(args))
    out = capsys.readouterr().out
    return status, json.loads(out) if out else None


class TestDocuments:
    def test_minimal_rank_one_document(self):
        doc = {
            "kind": "system",
            "dimension": 1,
            "constant": [[{"re": "0/1", "im": "0/1"}]],
            "parts": [
                {
                    "point": {"re": "0/1", "im": "0/1"},
                    "coefficients": [[[{"re": "3/1", "im": "0/1"}]]],
                }
            ],
        }
        sys_ = system_from_document(doc)
        assert sys_ == scalar_system({0: [3]})

    def test_duplicate_poles_rejected(self):
        doc = system_to_document(scalar_system({0: [3]}))
        doc["parts"] = doc["parts"] * 2
        with pytest.raises(ValidationError):
            system_from_document(doc)

    def test_parse_error_carries_location(self):
        with pytest.raises(ParseError) as info:
            parse_document("{ not json }")
        assert info.value.line == 1

    def test_round_trips(self, triple):
        text = serialize_document(triple)
        parsed = parse_document(text)
        assert serialize_document(parsed) == text
        assert parsed == triple

    def test_name_key_is_ignored_and_not_written_back(self, triple):
        named = {"kind": "system", "name": "rigid-triple", **system_to_document(triple)}
        parsed = parse_document(dumps_canonical(named))
        assert parsed == triple
        assert serialize_document(parsed) == serialize_document(triple)

    def test_declaration_round_trip(self):
        s = System(2, Matrix.diagonal([2, 2]), (), declaration=((gr(2), 1),))
        text = serialize_document(s)
        parsed = parse_document(text)
        assert parsed.declaration == ((gr(2), 1),)

    def test_declaration_violation_rejected(self):
        s = System(2, Matrix.diagonal([2, 2]), (), declaration=((gr(2), 1),))
        doc = system_to_document(s)
        doc["constant"][0][0]["re"] = "3/1"
        with pytest.raises(ValidationError):
            system_from_document(doc)

    def test_zero_pair_round_trip(self):
        from midconv.systems import zero_pair

        text = serialize_document(zero_pair())
        assert parse_document(text) == zero_pair()
        assert serialize_document(parse_document(text)) == text

    def test_random_system_round_trips(self, rng):
        from midconv.checks import random_system

        for _ in range(25):
            sys_ = random_system(rng, constant=rng.choice(["zero", "diagonal", "full"]))
            text = serialize_document(sys_)
            parsed = parse_document(text)
            assert parsed == sys_
            assert serialize_document(parsed) == text


class TestOversizedIntegers:
    """Integers of more than 4300 decimal digits, CPython's default int <->
    str limit, are refused by the documents layer itself: the same
    ValidationError when reading and when writing, on every version."""

    LIMIT = "integers in documents are limited to 4300 decimal digits"
    LONGEST = 10**4300 - 1

    @pytest.mark.parametrize(
        "value", [LONGEST, -LONGEST, gr(1, LONGEST) / LONGEST], ids=["positive", "negative", "denominator"]
    )
    def test_4300_digits_round_trip(self, value):
        x = gr(value)
        assert scalar_from_json(scalar_to_json(x)) == x

    @pytest.mark.parametrize(
        "value", [LONGEST + 1, -LONGEST - 1, gr(0, 1) / (LONGEST + 1)], ids=["positive", "negative", "denominator"]
    )
    def test_writing_more_digits_is_refused(self, value):
        with pytest.raises(ValidationError, match=self.LIMIT):
            scalar_to_json(gr(value))

    @pytest.mark.parametrize(
        "re",
        ["1" * 4301 + "/1", "-" + "9" * 4301 + "/1", "1/" + "7" * 4301, "0" * 4300 + "1/1"],
        ids=["numerator", "negative", "denominator", "leading-zeros"],
    )
    def test_reading_more_digits_is_refused(self, re):
        with pytest.raises(ValidationError, match=self.LIMIT):
            scalar_from_json({"re": re, "im": "0/1"})

    def test_reading_4300_digits_with_separators_is_accepted(self):
        # CPython counts the digits, not the sign, blanks or underscores
        assert scalar_from_json({"re": " -" + "_".join("1" * 4300) + "/1", "im": "0/1"}) == gr(-(self.LONGEST // 9))

    def test_a_json_integer_or_a_flag_with_more_digits_is_refused(self):
        with pytest.raises(ValidationError, match=self.LIMIT):
            parse_document('{"kind": "system", "dimension": ' + "1" * 4301 + "}")
        with pytest.raises(ValidationError, match=self.LIMIT):
            parse_scalar_flag("1," + "1" * 4301)


def _rank_one_document(**changes) -> bytes:
    doc = system_to_document(scalar_system({0: [3]}))
    doc.update(changes)
    return dumps_canonical(doc).encode()


UNREADABLE = {
    "dimension-not-a-number": _rank_one_document(dimension="abc"),
    "dimension-fractional": _rank_one_document(dimension=1.5),
    "dimension-boolean": _rank_one_document(dimension=True),
    "row-not-a-list": _rank_one_document(constant=[1]),
    "part-not-an-object": _rank_one_document(parts=[[1]]),
    "kind-not-a-string": b'{"kind": []}',
    "not-utf-8": b'{"kind": "system", "name": "\xff"}',
    "missing-file": None,
}


@pytest.mark.parametrize("case", sorted(UNREADABLE))
def test_unreadable_input_is_a_validation_report(capsys, tmp_path, case):
    path = tmp_path / "in.sys"
    if UNREADABLE[case] is not None:
        path.write_bytes(UNREADABLE[case])
    status, report = run_cli(capsys, "irred", str(path))
    assert status == 1
    assert report["error"]["type"] == "ValidationError"


@pytest.mark.parametrize(
    "flags",
    [("dr", "--lambda", "1e999999999"), ("stab-dim", "--point", "1e9,0"), ("dr", "--lambda", "0.5")],
)
def test_scalar_flag_is_an_integer_or_ratio(capsys, triple_file, flags):
    status, report = run_cli(capsys, *flags, triple_file)
    assert status == 1
    assert report["error"]["type"] == "ValidationError"


def _declared_jordan_document(order: int) -> dict:
    doc = system_to_document(System(2, Matrix.from_rows([[2, 1], [0, 2]]), ()))
    doc["declarations"] = {"points": [{"re": "2/1", "im": "0/1"}], "orders": [order]}
    return doc


def test_huge_declared_order_is_checked_at_the_dimension(tmp_path):
    # (S - s)^l is formed with l capped at n, so l = 10^8 costs as much as l = 2
    import os
    import pathlib
    import subprocess
    import sys

    import midconv

    path = tmp_path / "in.sys"
    path.write_text(dumps_canonical(_declared_jordan_document(100_000_000)))
    src = str(pathlib.Path(midconv.__file__).resolve().parent.parent)
    child = subprocess.run(
        [sys.executable, "-m", "midconv.cli", "irred", str(path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    assert json.loads(child.stdout)["result"] == {"irreducible": False}


@pytest.mark.parametrize("constant", [[[2, 1], [0, 3]], [[3, 0], [0, 3]]])
def test_declaration_violated_past_the_dimension_is_rejected(constant):
    for order in (2, 3, 50):
        doc = _declared_jordan_document(order)
        doc["constant"] = matrix_to_json(Matrix.from_rows(constant))
        with pytest.raises(ValidationError):
            system_from_document(doc)


def test_declaration_below_the_dimension_is_still_checked():
    with pytest.raises(ValidationError):
        system_from_document(_declared_jordan_document(1))
    assert system_from_document(_declared_jordan_document(2)).declaration == ((gr(2), 2),)


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_check_without_trials_is_rejected(capsys, triple_file, trials):
    status, report = run_cli(capsys, "check", "--trials", trials, triple_file)
    assert status == 1
    assert report["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("parts", [{}, {0: [1], 1: [2]}], ids=["no-pole", "two-poles"])
def test_missing_point_report_covers_every_pole_count(capsys, tmp_path, parts):
    path = tmp_path / "in.sys"
    path.write_text(serialize_document(scalar_system(parts)))
    status, report = run_cli(capsys, "stab-dim", str(path))
    assert status == 1
    assert report["error"] == {
        "type": "ValidationError",
        "message": "--point is required unless the system has exactly one pole",
    }


class TestCli:
    def test_add_keeps_a_declared_input_valid(self, capsys, tmp_path):
        decl = tmp_path / "decl.sys"
        decl.write_text(serialize_document(System(1, Matrix.from_rows([[1]]), (), ((1, 1),))))
        alpha = tmp_path / "alpha.sys"
        alpha.write_text(serialize_document(scalar_system({0: [1]}, constant=2)))
        status, report = run_cli(capsys, "add", str(decl), "--alpha", str(alpha))
        assert status == 0
        out = system_from_document(report["result"])
        assert out.declaration == ((gr(3), 1),)

    def test_rigidity_of_fixture(self, capsys, triple_file):
        status, report = run_cli(capsys, "rigidity", triple_file)
        assert status == 0
        assert report["result"] == {"rigidity_index": 0, "rigid": True}

    def test_katz_step_rejects_a_parameter_of_rank_two(self, capsys, triple_file):
        status, report = run_cli(capsys, "katz-step", triple_file, "--alpha", triple_file)
        assert status == 1
        assert report["error"] == {"type": "DimensionMismatch", "message": "addition parameter must have rank 1"}

    def test_mc_reproduces_entry_formula(self, capsys, tmp_path):
        alpha_file = tmp_path / "in.sys"
        alpha_file.write_text(serialize_document(scalar_system({0: [1, 1]})))
        lam_file = tmp_path / "lam.sys"
        lam_file.write_text(serialize_document(scalar_system({0: [1]})))
        status, report = run_cli(capsys, "mc", "--alpha", str(lam_file), str(alpha_file))
        assert status == 0
        out = system_from_document(report["result"])
        part = out.part_at(gr(0))
        assert part.coefficients[1] == Matrix.from_rows([[1, 2], [0, 0]])
        assert part.coefficients[0] == Matrix.from_rows([[1, 0], [1, 2]])

    def test_hd_twice_then_equiv(self, capsys, tmp_path, triple, triple_file):
        status, report = run_cli(capsys, "hd", triple_file)
        assert status == 0
        first = tmp_path / "hd1.sys"
        first.write_text(dumps_canonical(report["result"]))
        status, report = run_cli(capsys, "hd", str(first))
        assert status == 0
        second = tmp_path / "hd2.sys"
        second.write_text(dumps_canonical(report["result"]))
        status, report = run_cli(capsys, "equiv", str(second), triple_file)
        assert status == 0
        assert report["result"]["equivalent"] is True
        assert "witness" in report["result"]

    def test_canon_then_phi_inverts(self, capsys, tmp_path, triple, triple_file):
        status, report = run_cli(capsys, "canon", triple_file)
        assert status == 0
        datum_file = tmp_path / "datum.json"
        datum_file.write_text(dumps_canonical(report["result"]))
        status, report = run_cli(capsys, "phi", str(datum_file))
        assert status == 0
        assert system_from_document(report["result"]) == triple
        status, report = run_cli(capsys, "stable", str(datum_file))
        assert status == 0 and report["result"]["stable"] is True

    def test_canon_of_dimension_zero_is_the_zero_datum(self, capsys, tmp_path):
        from midconv.systems import zero_pair

        path = tmp_path / "zero.sys"
        path.write_text(serialize_document(zero_pair()))
        status, report = run_cli(capsys, "canon", str(path))
        assert status == 0
        assert report["result"] == {"kind": "datum", "dimension": 0, "constant": [], "blocks": []}

    def test_stabilizer_and_orbit_of_an_irrational_residue(self, capsys, tmp_path):
        # one Fuchsian pole with eigenvalues +-sqrt(2): the linear mode answers
        part = PrincipalPart(gr(0), (Matrix.from_rows([[0, 1], [2, 0]]),))
        path = tmp_path / "sqrt2.sys"
        path.write_text(serialize_document(System(2, Matrix.zeros(2, 2), (part,))))
        assert run_cli(capsys, "stab-dim", str(path)) == (0, {
            "command": "stab-dim", "result": {"stabilizer_dimension": 2}})
        assert run_cli(capsys, "orbit-dim", str(path)) == (0, {
            "command": "orbit-dim", "result": {"orbit_dimension": 2}})

    def test_select_alpha_of_an_irrational_residue(self, capsys, tmp_path):
        # the +-sqrt(2) residue: the zero candidate is the only one in Q(i)
        part = PrincipalPart(gr(0), (Matrix.from_rows([[0, 1], [2, 0]]),))
        path = tmp_path / "sqrt2.sys"
        path.write_text(serialize_document(System(2, Matrix.zeros(2, 2), (part,))))
        status, report = run_cli(capsys, "select-alpha", "--point", "0", str(path))
        assert status == 0
        assert report["result"] == system_to_document(scalar_system({0: [0]}))

    def test_katz_reduce_trace(self, capsys, triple_file):
        status, report = run_cli(capsys, "katz-reduce", triple_file)
        assert status == 0
        steps = report["result"]["steps"]
        assert len(steps) == 1
        assert steps[0]["rank_before"] == 2 and steps[0]["rank_after"] == 1

    def test_normal_form_and_friends(self, capsys, triple_file):
        status, report = run_cli(capsys, "normal-form", "--point", "0", triple_file)
        assert status == 0
        assert report["result"]["spectra"][0]["dimension"] == 2
        status, report = run_cli(capsys, "stab-dim", "--point", "0", triple_file)
        assert report["result"]["stabilizer_dimension"] == 2
        status, report = run_cli(capsys, "select-alpha", "--point", "0", triple_file)
        assert status == 0
        status, report = run_cli(capsys, "orbit-dim", triple_file)
        assert report["result"]["orbit_dimension"] == 6
        status, report = run_cli(capsys, "irred", triple_file)
        assert report["result"]["irreducible"] is True

    def test_dr_subcommand(self, capsys, triple_file):
        status, report = run_cli(capsys, "dr", "--lambda", "1", triple_file)
        assert status == 0
        assert report["result"]["dimension"] == 4

    def test_gaussian_point_flag(self, capsys, tmp_path):
        from midconv.systems import PrincipalPart, System

        up = Matrix.from_rows([[0, 1], [0, 0]])
        sys_ = System(
            2,
            Matrix.zeros(2, 2),
            (PrincipalPart(gr(0, 1), (up,)), PrincipalPart(gr(0, -1), (up.transpose(),))),
        )
        path = tmp_path / "gauss.sys"
        path.write_text(serialize_document(sys_))
        status, report = run_cli(capsys, "stab-dim", "--point", "0,1", str(path))
        assert status == 0
        assert report["result"]["stabilizer_dimension"] == 2

    def test_okubo_subcommand(self, capsys, tmp_path):
        doc = {
            "kind": "okubo",
            "dimension": 2,
            "t_matrix": matrix_to_json(Matrix.diagonal([0, 1])),
            "r_matrix": matrix_to_json(Matrix.from_rows([[1, 1], [1, 1]])),
        }
        path = tmp_path / "okubo.json"
        path.write_text(dumps_canonical(doc))
        status, report = run_cli(capsys, "okubo", str(path))
        assert status == 0
        assert report["result"]["dimension"] == 1

    def test_check_is_deterministic(self, capsys, triple_file):
        s1, r1 = run_cli(capsys, "check", "--seed", "5", "--trials", "2", triple_file)
        s2, r2 = run_cli(capsys, "check", "--seed", "5", "--trials", "2", triple_file)
        assert s1 == s2 == 0
        assert r1 == r2
        assert all(c["passed"] for c in r1["result"]["checks"])

    def test_check_skips_normal_form_checks_without_a_normal_form(self, capsys, tmp_path):
        # the order-2 pole's leading coefficient J_2 is nilpotent: no normal form
        j2 = Matrix.from_rows([[0, 1], [0, 0]])
        path = tmp_path / "j2.sys"
        part = PrincipalPart(gr(0), (Matrix.diagonal([1, 0]), j2))
        path.write_text(serialize_document(System(2, Matrix.zeros(2, 2), (part,))))
        status, report = run_cli(capsys, "check", "--trials", "2", str(path))
        assert status == 0
        checks = {c["name"]: c for c in report["result"]["checks"]}
        skipped = ["stabilizer_two_modes", "kernel_two_modes_and_katz_inequality", "normal_form_gauge_invariance"]
        for name in skipped:
            assert checks[name] == {"name": name, "passed": True, "trials": 0, "detail": "skipped: NoNormalForm"}
        assert all(c["passed"] and not c["detail"] for name, c in checks.items() if name not in skipped)

    def test_draw_free_checks_run_once(self, monkeypatch):
        # the two stabilizer cross-checks draw nothing from the rng, so one
        # trial each stands for all five; only stabilizer_two_modes runs the
        # linear mode, the Katz inequality reads the formula on its normal form
        import pathlib

        import midconv.checks as checks
        from midconv.normalform import stabilizer_dim_linear

        calls = []

        def counted(part):
            calls.append(part)
            return stabilizer_dim_linear(part)

        monkeypatch.setattr(checks, "stabilizer_dim_linear", counted)
        text = (pathlib.Path(__file__).parent / "golden" / "inputs" / "three-level.sys").read_text()
        results = checks.run_checks(parse_document(text), 0, 5)
        assert len(calls) == 1
        assert all(r.passed and r.trials == 5 and not r.detail for r in results)

    @pytest.mark.parametrize(
        "command, stem, forms",
        # a stalled reduction reads its step's forms for the rigidity index, and
        # the Katz inequality reads the form its kernel check computed
        [("katz-reduce", "sqrt2-triple", 3), ("check", "three-level", 12)],
    )
    def test_normal_forms_are_not_recomputed(self, capsys, monkeypatch, command, stem, forms):
        import pathlib
        import sys

        from midconv import normalform

        original = normalform.compute_normal_form
        calls = []

        def counted(part):
            calls.append(part.point)
            return original(part)

        for module in [m for name, m in sys.modules.items() if name.startswith("midconv.")]:
            if getattr(module, "compute_normal_form", None) is original:
                monkeypatch.setattr(module, "compute_normal_form", counted)
        path = pathlib.Path(__file__).parent / "golden" / "inputs" / f"{stem}.sys"
        run_cli(capsys, command, str(path))
        assert len(calls) == forms

    def test_katz_inequality_at_a_residue_with_an_irrational_pair(self, capsys, tmp_path):
        # spectrum {1, +-sqrt(2)}: no alpha outside Q(i) can win, so the
        # inequality is checked, its stabilizer side by the linear mode
        part = PrincipalPart(gr(0), (Matrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 2, 0]]),))
        path = tmp_path / "sqrt2-rank3.sys"
        path.write_text(serialize_document(System(3, Matrix.zeros(3, 3), (part,))))
        status, report = run_cli(capsys, "check", "--trials", "2", str(path))
        checks = {c["name"]: c for c in report["result"]["checks"]}
        name = "kernel_two_modes_and_katz_inequality"
        assert status == 0 and checks[name] == {"name": name, "passed": True, "trials": 2, "detail": ""}

    def test_failed_check_is_reported_and_exits_1(self, capsys, monkeypatch, triple_file):
        import midconv.checks as checks
        from midconv.systems import TruncatedGauge

        monkeypatch.setattr(checks, "gauge_compose", lambda g, h: TruncatedGauge(g.point, h.coefficients))
        status, report = run_cli(capsys, "check", "--trials", "2", triple_file)
        assert status == 1
        failed = [c for c in report["result"]["checks"] if not c["passed"]]
        assert failed == [
            {"name": "gauge_group_law", "passed": False, "trials": 0, "detail": "gauge action is not a group action"}
        ]

    def test_check_failures_survive_optimize(self, triple_file):
        # a wrong gauge composition must fail gauge_group_law under -O too
        import os
        import pathlib
        import subprocess
        import sys

        import midconv

        code = """
import json, sys
import midconv.checks as checks
from midconv.documents import parse_document
from midconv.systems import TruncatedGauge

def wrong_compose(g, h):
    return TruncatedGauge(g.point, h.coefficients)

checks.gauge_compose = wrong_compose
with open(sys.argv[1], encoding="utf-8") as fh:
    results = checks.run_checks(parse_document(fh.read()), 0, 2)
print(json.dumps({"debug": __debug__, "passed": {r.name: r.passed for r in results}}))
"""
        src = str(pathlib.Path(midconv.__file__).resolve().parent.parent)
        child = subprocess.run(
            [sys.executable, "-O", "-c", code, triple_file],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        )
        report = json.loads(child.stdout)
        assert report["debug"] is False
        assert report["passed"]["gauge_group_law"] is False
        assert report["passed"]["rank_nullity"] is True

    def test_domain_error_exit_one(self, capsys, tmp_path):
        bad_alpha = tmp_path / "alpha.sys"
        bad_alpha.write_text(serialize_document(scalar_system({5: [1]})))
        target = tmp_path / "in.sys"
        target.write_text(serialize_document(scalar_system({0: [1, 1]})))
        status, report = run_cli(capsys, "mc", "--alpha", str(bad_alpha), str(target))
        assert status == 1
        assert report["error"]["type"] == "PoleMismatch"

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 2

    def test_byte_identical_reports(self, capsys, triple_file):
        status1 = main(["rigidity", triple_file])
        out1 = capsys.readouterr().out
        status2 = main(["rigidity", triple_file])
        out2 = capsys.readouterr().out
        assert status1 == status2 == 0
        assert out1 == out2

    def test_shipped_fixture_parses_and_is_rigid(self, capsys):
        import pathlib

        path = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "rigid-triple.sys"
        text = path.read_text()
        parsed = parse_document(text)
        doc = json.loads(text)
        del doc["name"]  # outside the schema: read past, not written back
        assert serialize_document(parsed) == dumps_canonical(doc)
        status, report = run_cli(capsys, "rigidity", str(path))
        assert status == 0
        assert report["result"]["rigidity_index"] == 0

    def test_shipped_rank1_mc_matches_formula(self, capsys):
        import pathlib

        base = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
        status, report = run_cli(
            capsys,
            "mc",
            "--alpha",
            str(base / "alpha-simple.sys"),
            str(base / "rank1-irregular.sys"),
        )
        assert status == 0
        out = system_from_document(report["result"])
        part = out.part_at(gr(0))
        assert part.coefficients[1] == Matrix.from_rows([[1, 2], [0, 0]])
        assert part.coefficients[0] == Matrix.from_rows([[1, 0], [1, 2]])
