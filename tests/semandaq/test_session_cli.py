"""Tests for the Semandaq session workflow and the CLI front end."""

import pytest

from repro import obs
from repro.datagen.customer import CustomerGenerator
from repro.datagen.noise import inject_noise
from repro.detection.cfd_detect import detect_cfd_violations
from repro.errors import ReproError
from repro.relational.csvio import read_csv, relation_to_csv
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, RelationSchema
from repro.semandaq.cli import main as semandaq_main
from repro.semandaq.session import SemandaqSession

CFD_BLOCK = """
# semantics of the customer relation
customer([cc='44', zip] -> [street])
customer([cc='44', zip] -> [city])
customer([cc='01', ac='908'] -> [city='mh'])
"""

ROWS = [
    {"cc": "44", "ac": "131", "phn": "1111", "city": "edi", "zip": "EH8", "street": "mayfield"},
    {"cc": "44", "ac": "131", "phn": "2222", "city": "edi", "zip": "EH8", "street": "mayfield"},
    {"cc": "44", "ac": "131", "phn": "3333", "city": "ldn", "zip": "EH8", "street": "crichton"},
    {"cc": "01", "ac": "908", "phn": "4444", "city": "nyc", "zip": "07974", "street": "mtn ave"},
]

SCHEMA = RelationSchema("customer", [
    Attribute("cc"), Attribute("ac"), Attribute("phn"),
    Attribute("city"), Attribute("zip"), Attribute("street"),
])


@pytest.fixture
def session():
    relation = Relation.from_dicts(SCHEMA, ROWS)
    session = SemandaqSession(relation)
    session.register_cfds(CFD_BLOCK)
    return session


class TestSemandaqSession:
    def test_register_from_block(self, session):
        assert len(session.cfds) == 3

    def test_detect_and_report(self, session):
        report = session.detect()
        assert not report.is_clean()
        text = session.report()
        assert "violations" in text and "customer" in text

    def test_consistency_check(self, session):
        analysis = session.check_consistency()
        assert analysis["satisfiable"] and analysis["conflicts"] == []

    def test_detect_without_constraints_rejected(self):
        relation = Relation.from_dicts(SCHEMA, ROWS)
        with pytest.raises(ReproError):
            SemandaqSession(relation).detect()

    def test_propose_repair_does_not_modify_data(self, session):
        before = session.database.relation("customer").to_dicts()
        repair = session.propose_repair("customer")
        assert repair.changes
        assert session.database.relation("customer").to_dicts() == before

    def test_apply_repair_cleans_relation(self, session):
        session.apply_repair("customer")
        relation = session.database.relation("customer")
        assert detect_cfd_violations(relation, session.cfds).is_clean()

    def test_confirm_cell_steers_repair(self, session):
        # the user asserts that 'crichton' (tuple 2) is the correct street
        session.confirm_cell(2, "street", "customer")
        session.confirm_cell(2, "city", "customer")
        session.apply_repair("customer")
        relation = session.database.relation("customer")
        assert relation.value(2, "street") == "crichton"
        assert relation.value(0, "street") == "crichton"

    def test_override_cell_locks_user_value(self, session):
        session.override_cell(3, "city", "mh", "customer")
        assert ("customer", 3, "city") in session.locked_cells()
        session.apply_repair("customer")
        assert session.database.relation("customer").value(3, "city") == "mh"

    def test_resolve_relation_requires_name_when_ambiguous(self):
        database = Database()
        database.add(Relation.from_dicts(SCHEMA, ROWS))
        database.add(Relation(SCHEMA.renamed_relation("backup")))
        session = SemandaqSession(database)
        session.register_cfds(CFD_BLOCK)
        with pytest.raises(ReproError):
            session.propose_repair()

    def test_cind_registration(self):
        database = Database()
        cd = RelationSchema("cd", [Attribute("album"), Attribute("price"), Attribute("genre")])
        book = RelationSchema("book", [Attribute("title"), Attribute("price"), Attribute("format")])
        database.create_from_dicts(cd, [{"album": "x", "price": "9", "genre": "a-book"}])
        database.create_from_dicts(book, [])
        session = SemandaqSession(database)
        session.register_cinds(
            "cd(album, price; genre='a-book') SUBSET book(title, price; format='audio')")
        report = session.detect()
        assert len(report.cind_violations()) == 1

    def test_lock_reweights_only_its_own_relation(self):
        database = Database()
        schema = [Attribute("zip"), Attribute("city")]
        database.create_from_dicts(RelationSchema("a", schema), [{"zip": "9", "city": "q"}])
        database.create_from_dicts(RelationSchema("b", schema), [
            {"zip": "1", "city": "x"}, {"zip": "1", "city": "y"}, {"zip": "1", "city": "y"}])
        session = SemandaqSession(database)
        session.register_cfds("b([zip] -> [city])")
        before = session.propose_repair("b").changes
        assert [(c.tid, c.new_value) for c in before] == [(0, "y")]
        # a's tid 0 is locked, not b's: b's repair must not change
        session.confirm_cell(0, "city", "a")
        assert session.propose_repair("b").changes == before

    def test_end_to_end_on_generated_data(self):
        generator = CustomerGenerator(seed=19)
        clean = generator.generate(200)
        dirty = inject_noise(clean, rate=0.04, attributes=["street", "city"], seed=2).dirty
        session = SemandaqSession(dirty)
        session.register_cfds(generator.canonical_cfds())
        assert not session.detect().is_clean()
        session.apply_repair("customer")
        assert detect_cfd_violations(
            session.database.relation("customer"), generator.canonical_cfds()).is_clean()


class TestSessionDiscovery:
    def test_discover_cfds(self):
        relation = CustomerGenerator(seed=3).generate(120)
        session = SemandaqSession(relation)
        discovered = session.discover_cfds(min_support=5, max_lhs_size=2)
        assert discovered
        assert session.cfds == []  # not registered by default

    def test_discover_and_register(self):
        relation = CustomerGenerator(seed=3).generate(120)
        session = SemandaqSession(relation)
        discovered = session.discover_cfds(min_support=5, max_lhs_size=2,
                                           constant_only=True, register=True)
        assert [repr(c) for c in session.cfds] == [repr(c) for c in discovered]
        report = session.detect()  # everything discovered holds on the data
        assert report.is_clean()


class TestSemandaqCLI:
    def _write_inputs(self, tmp_path):
        relation = Relation.from_dicts(SCHEMA, ROWS)
        data_path = tmp_path / "customer.csv"
        relation_to_csv(relation, data_path)
        constraints_path = tmp_path / "cfds.txt"
        constraints_path.write_text(CFD_BLOCK, encoding="utf-8")
        return data_path, constraints_path

    def test_detect_only(self, tmp_path, capsys):
        data_path, constraints_path = self._write_inputs(tmp_path)
        exit_code = semandaq_main([str(data_path), str(constraints_path)])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "violations" in captured

    def test_detect_and_repair(self, tmp_path, capsys):
        data_path, constraints_path = self._write_inputs(tmp_path)
        output_path = tmp_path / "repaired.csv"
        exit_code = semandaq_main([str(data_path), str(constraints_path),
                                   "--repair", str(output_path)])
        assert exit_code == 0
        assert output_path.exists()
        repaired = read_csv(output_path, "customer")
        session = SemandaqSession(repaired)
        cfds = session.register_cfds(CFD_BLOCK)
        assert detect_cfd_violations(repaired, cfds).is_clean()

    def test_discover_without_constraints_file(self, tmp_path, capsys):
        relation = CustomerGenerator(seed=3).generate(120)
        data_path = tmp_path / "customer.csv"
        relation_to_csv(relation, data_path)
        exit_code = semandaq_main([str(data_path), "--discover",
                                   "--min-support", "5", "--engine", "serial"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "discovered" in captured and "CFD(s)" in captured

    def test_missing_constraints_without_discover_rejected(self, tmp_path):
        relation = Relation.from_dicts(SCHEMA, ROWS)
        data_path = tmp_path / "customer.csv"
        relation_to_csv(relation, data_path)
        with pytest.raises(SystemExit):
            semandaq_main([str(data_path)])

    @pytest.mark.parametrize("flag", ["--min-support", "--max-lhs-size"])
    def test_discovery_bound_below_one_is_a_usage_error(self, tmp_path, capsys, flag):
        data_path, _ = self._write_inputs(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            semandaq_main([str(data_path), "--discover", flag, "0"])
        assert exit_info.value.code == 2
        errors = capsys.readouterr().err.splitlines()
        assert errors[-1] == f"semandaq: error: argument {flag}: must be at least 1, got 0"
        assert not any("Traceback" in line for line in errors)

    def test_missing_data_file_is_one_line_and_exit_66(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        exit_code = semandaq_main([str(missing), "--sql", "SELECT phn FROM missing"])
        assert exit_code == 66
        captured = capsys.readouterr()
        assert captured.err == (f"semandaq: error: cannot read {missing}: "
                                "No such file or directory\n")
        assert captured.out == ""

    def test_missing_constraints_file_is_one_line_and_exit_66(self, tmp_path, capsys):
        data_path, _ = self._write_inputs(tmp_path)
        missing = tmp_path / "missing.txt"
        exit_code = semandaq_main([str(data_path), str(missing)])
        assert exit_code == 66
        assert capsys.readouterr().err == (f"semandaq: error: cannot read {missing}: "
                                           "No such file or directory\n")

    def test_malformed_constraints_are_one_line_and_exit_65(self, tmp_path, capsys):
        data_path, constraints_path = self._write_inputs(tmp_path)
        constraints_path.write_text("customer([zip] -> [street]\n", encoding="utf-8")
        exit_code = semandaq_main([str(data_path), str(constraints_path)])
        assert exit_code == 65
        assert capsys.readouterr().err == (
            "semandaq: error: line 1: cannot parse CFD: 'customer([zip] -> [street]'\n")

    def test_failing_sql_is_one_line_and_exit_65(self, tmp_path, capsys):
        data_path, _ = self._write_inputs(tmp_path)
        exit_code = semandaq_main([str(data_path), "--sql", "SELECT nope FROM customer"])
        assert exit_code == 65
        assert capsys.readouterr().err == "semandaq: error: unknown column 'nope'\n"

    def test_unwritable_repair_output_is_one_line_and_exit_73(self, tmp_path, capsys):
        data_path, constraints_path = self._write_inputs(tmp_path)
        target = tmp_path / "no" / "such" / "dir" / "out.csv"
        exit_code = semandaq_main([str(data_path), str(constraints_path),
                                   "--repair", str(target)])
        assert exit_code == 73
        assert capsys.readouterr().err == (f"semandaq: error: cannot write {target}: "
                                           "No such file or directory\n")
        assert not target.exists()

    def test_unwritable_stats_output_is_one_line_and_exit_73(self, tmp_path, capsys,
                                                              monkeypatch):
        monkeypatch.setattr(obs, "enabled", obs.enabled)  # --stats switches it on
        data_path, _ = self._write_inputs(tmp_path)
        target = tmp_path / "no" / "such" / "dir" / "s.json"
        exit_code = semandaq_main([str(data_path), "--sql", "SELECT phn FROM customer",
                                   "--stats", str(target)])
        assert exit_code == 73
        assert capsys.readouterr().err == (f"semandaq: error: cannot write {target}: "
                                           "No such file or directory\n")

    def test_sql_syntax_error_is_one_line_and_exit_65(self, tmp_path, capsys):
        data_path, _ = self._write_inputs(tmp_path)
        exit_code = semandaq_main([str(data_path), "--sql",
                                   "SELECT phn FROM customer WHERE " + "(" * 5000])
        assert exit_code == 65
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("semandaq: error: expression nests")


class TestSessionSQL:
    def test_sql_runs_through_the_session(self, session):
        result = session.sql(
            "SELECT zip, COUNT(*) AS n FROM customer GROUP BY zip ORDER BY zip")
        assert [(t["zip"], t["n"]) for t in result] == [("07974", 1), ("EH8", 3)]

    def test_sql_result_name(self, session):
        result = session.sql("SELECT phn FROM customer", result_name="phones")
        assert result.schema.name == "phones"

    def test_sql_engine_is_cached(self, session):
        session.sql("SELECT phn FROM customer")
        first = session._sql_engine
        session.sql("SELECT phn FROM customer")
        assert session._sql_engine is first

    def test_sql_honours_engine_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_THRESHOLD", "0")
        relation = CustomerGenerator(seed=11).generate(60)
        sequential = SemandaqSession(relation.copy())
        parallel = SemandaqSession(relation.copy(), engine="parallel", workers=2)
        query = ("SELECT city, COUNT(*) AS n, MIN(zip) AS z FROM customer "
                 "WHERE cc >= '0' GROUP BY city ORDER BY city")
        expected = [t.values for t in sequential.sql(query)]
        assert [t.values for t in parallel.sql(query)] == expected
        assert parallel._sql_engine.last_plan == "code"

    def test_sql_sees_repairs(self, session):
        before = session.sql(
            "SELECT COUNT(DISTINCT street) AS s FROM customer WHERE zip = 'EH8'")
        assert before.tuples()[0]["s"] == 2
        session.apply_repair("customer")
        after = session.sql(
            "SELECT COUNT(DISTINCT street) AS s FROM customer WHERE zip = 'EH8'")
        assert after.tuples()[0]["s"] == 1


class TestCLISql:
    def _data(self, tmp_path):
        relation = Relation.from_dicts(SCHEMA, ROWS)
        data_path = tmp_path / "customer.csv"
        relation_to_csv(relation, data_path)
        return data_path

    def test_sql_without_constraints(self, tmp_path, capsys):
        data_path = self._data(tmp_path)
        exit_code = semandaq_main([
            str(data_path), "--sql",
            "SELECT zip, COUNT(*) AS n FROM customer GROUP BY zip ORDER BY zip"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "EH8" in captured and "(2 row(s))" in captured
        assert "violations" not in captured  # no detection without constraints

    def test_sql_with_constraints_still_detects(self, tmp_path, capsys):
        data_path = self._data(tmp_path)
        constraints_path = tmp_path / "cfds.txt"
        constraints_path.write_text(CFD_BLOCK, encoding="utf-8")
        exit_code = semandaq_main([
            str(data_path), str(constraints_path),
            "--sql", "SELECT phn FROM customer WHERE city = 'edi'"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "(2 row(s))" in captured and "violations" in captured

    def test_sql_with_repair_but_no_constraints_rejected(self, tmp_path):
        data_path = self._data(tmp_path)
        with pytest.raises(SystemExit):
            semandaq_main([str(data_path), "--sql", "SELECT phn FROM customer",
                           "--repair", str(tmp_path / "out.csv")])
        assert not (tmp_path / "out.csv").exists()

    def test_sql_with_engine_knobs(self, tmp_path, capsys):
        data_path = self._data(tmp_path)
        exit_code = semandaq_main([
            str(data_path), "--engine", "serial",
            "--sql", "SELECT COUNT(*) AS n FROM customer WHERE zip >= 'A'"])
        captured = capsys.readouterr().out
        assert exit_code == 0 and "(1 row(s))" in captured
