import json

import pytest

from cealg.cli import main, parse_field


class TestFieldParsing:
    def test_prime(self):
        f = parse_field("3")
        assert (f.p, f.k) == (3, 1)

    def test_extension(self):
        f = parse_field("3^2")
        assert (f.p, f.k) == (3, 2)

    def test_char0(self):
        assert parse_field("0") is None

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            parse_field("4")


class TestGroupsCommand:
    def test_list(self, capsys):
        assert main(["groups", "list"]) == 0
        out = capsys.readouterr().out
        assert "Q8" in out and "prop29:<p>" in out

    def test_info_text(self, capsys):
        assert main(["groups", "info", "Q8"]) == 0
        out = capsys.readouterr().out
        assert "order" in out and "8" in out
        assert "nilpotency_class" in out

    def test_info_json(self, capsys):
        assert main(["groups", "info", "prop29:2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["order"] == 32
        assert data["z_chain"] == [1, 2, 8, 32]
        assert data["z2_self_centralizing"] is True

    def test_info_d16_flags(self, capsys):
        assert main(["groups", "info", "D16", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["nilpotency_class"] == 3
        assert data["central_coset_condition"] is False
        assert data["z2_self_centralizing"] is False

    def test_info_parse_failure(self, capsys):
        assert main(["groups", "info", "banana"]) == 2


class TestCheckCommand:
    def test_q8_essential_exit_zero(self, capsys):
        assert main(["check", "--group", "Q8", "--field", "2"]) == 0
        assert "centrally_essential" in capsys.readouterr().out

    def test_socle_negative_exit_one(self, capsys):
        code = main(["check", "--group", "prop29:3", "--field", "3",
                     "--method", "socle", "--format", "json"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "not_centrally_essential"
        assert data["witnesses"]

    def test_char0_structural(self, capsys):
        assert main(["check", "--group", "S3", "--field", "0"]) == 1

    def test_char0_abelian(self):
        assert main(["check", "--group", "C6", "--field", "0"]) == 0

    def test_budget_refusal(self, capsys):
        code = main(["check", "--group", "prop29:2", "--field", "2", "--method", "oracle"])
        assert code == 2
        assert "budget" in capsys.readouterr().err

    def test_socle_on_non_p_group_refused(self, capsys):
        assert main(["check", "--group", "S3", "--field", "2", "--method", "socle"]) == 2

    def test_method_field_compatibility(self):
        assert main(["check", "--group", "Q8", "--field", "2", "--method", "char0"]) == 2
        assert main(["check", "--group", "Q8", "--field", "0", "--method", "oracle"]) == 2

    def test_unknown_group(self):
        assert main(["check", "--group", "nope:1", "--field", "2"]) == 2

    def test_structural_undecided(self, capsys):
        assert main(["check", "--group", "D16", "--field", "2",
                     "--method", "structural"]) == 2

    def test_oracle_method_report(self, capsys):
        code = main(["check", "--group", "S3", "--field", "2", "--method", "oracle",
                     "--format", "json"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["method"] == "oracle"
        assert data["witnesses"][0]["kind"] == "oracle_counterexample"

    def test_json_byte_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            code = main(["check", "--group", "prop29:2", "--field", "2",
                         "--format", "json", "--output", str(p)])
            assert code == 1
        assert p1.read_bytes() == p2.read_bytes()

    def test_timings_flag_adds_block(self, tmp_path):
        p = tmp_path / "t.json"
        main(["check", "--group", "Q8", "--field", "2", "--format", "json",
              "--timings", "--output", str(p)])
        assert "timings" in json.loads(p.read_text())

    def test_json_group_input(self, tmp_path):
        desc = {"name": "S3-file", "degree": 3,
                "generators": [[1, 0, 2], [1, 2, 0]]}
        path = tmp_path / "s3.json"
        path.write_text(json.dumps(desc))
        assert main(["check", "--group", str(path), "--field", "2"]) == 1
        assert main(["check", "--group", str(path), "--field", "0"]) == 1

    def test_malformed_json_group(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["check", "--group", str(path), "--field", "2"]) == 2

    @pytest.mark.parametrize("doc", [
        {"degree": 3, "generators": [1, 2]},
        [1, 2],
        {"degree": 3, "generators": [[0, 1]]},
    ])
    def test_malformed_group_file_refused(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "--group", str(path), "--field", "2"]) == 2

    def test_huge_degree_refused_before_building(self, tmp_path, monkeypatch):
        def build(*args):
            raise AssertionError("group built from a refused description")

        monkeypatch.setattr("cealg.cli.group_from_generators", build)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"degree": 10**12, "generators": []}))
        assert main(["check", "--group", str(path), "--field", "2"]) == 2

    def test_file_named_like_catalog_spec(self, tmp_path, monkeypatch):
        (tmp_path / "Q8").write_text("not a group description")
        monkeypatch.chdir(tmp_path)
        assert main(["check", "--group", "Q8", "--field", "2"]) == 0

    def test_crossvalidate_flag(self, capsys):
        assert main(["check", "--group", "Q8", "--field", "2", "--crossvalidate"]) == 0
        assert "oracle" in capsys.readouterr().out


class TestReproduceCommand:
    def test_prop29(self, capsys):
        assert main(["reproduce", "prop29"]) == 0
        out = capsys.readouterr().out
        assert out.count("not_centrally_essential") == 2
        assert "all assertions hold" in out

    def test_remark31(self, capsys):
        assert main(["reproduce", "remark31"]) == 0
        out = capsys.readouterr().out
        assert out.count("centrally_essential") == 14
        assert out.count("socle_inside_center") == 3

    def test_thm11(self, capsys):
        assert main(["reproduce", "thm11"]) == 0
        out = capsys.readouterr().out
        assert "all assertions hold" in out
        assert "sylow_decomposition_failed" in out

    def test_json_format(self, tmp_path):
        p = tmp_path / "r.json"
        assert main(["reproduce", "prop29", "--format", "json",
                     "--output", str(p)]) == 0
        doc = json.loads(p.read_text())
        assert doc["failures"] == []
        assert len(doc["rows"]) == 2
        assert all(r["verdict"] == "not_centrally_essential" for r in doc["rows"])
