import hashlib
import json
import shlex

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

    @pytest.mark.parametrize("field, method", [
        ("2", "oracle"), ("2", "socle"), ("2", "structural"), ("0", "char0"), ("0", "auto"),
    ])
    def test_crossvalidate_refused_where_it_would_do_nothing(self, capsys, field, method):
        code = main(["check", "--group", "S3", "--field", field, "--method", method,
                     "--crossvalidate"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--crossvalidate" in captured.err


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


# stdout SHA-256 and exit code of `check ... --format json` and
# `reproduce prop29 --format json`: each reason tag once, both crossvalidate
# shapes (socle and oracle; socle only when the oracle is over budget), a
# GF(4) op and every route's own `details`
REPORT_DIGESTS = [
    ("check --group Q8 --field 2", 0,
     "9cc778d888de63ba07e9aa76129c06726e0771b91308dbc3d5ae235631dbf633"),
    ("check --group S3 --field 2", 1,
     "d11cab06625a62f45dda63dc9d06fa0d63debbba7135dddd463c0502e0a6283b"),
    ("check --group D16 --field 2", 0,
     "65c11c74738df29b1e36a5effce22e3fd3c2010c201abb7c744c7d7cc5e39541"),
    ("check --group prop29:3 --field 3", 1,
     "678115e060a3d54250568da3427fa02d73a9907b3ce9a915dd0d9d2cc4064cbf"),
    ("check --group prop29:2 --field 2 --method structural", 1,
     "1c0f7189c95f014dab85577f1975cf99cb6cdca29bd3073812cf7ef0d6482316"),
    ("check --group Q8 --field 2 --method structural", 0,
     "692ad76417e37a8108c7e9433b67e37414782dd48ddc7122120987bfbba4f426"),
    ("check --group S3 --field 3 --method structural", 1,
     "bbb011982ae7029076cd8c25b7f709264e8152fed4864b82b3b058a9df51a594"),
    ("check --group Q8 --field 2 --method oracle", 0,
     "90e9da7b68b606ce1d43846d3f22643eb07b2e1fcc7c22c0b98e6359b1c39e9e"),
    ("check --group S3 --field 2 --method oracle", 1,
     "df48cb16a830e4c71769715dd24b1506216bc29e644bbacf952e6f74f61a1480"),
    ("check --group order16:7 --field 2 --method socle", 0,
     "de324915aa1968ec01d1cb69f7c2f7bdfde8bc10ec467d956f1d6be7f7a81cf6"),
    ("check --group prop29:2 --field 2 --method socle", 1,
     "157c74674f264f95a514db5c0c6a9e4678531134eab47a6e7676109ffd96b3ad"),
    ("check --group C6 --field 0", 0,
     "a91ac7d6b677e4fe656767ab2cda597a6ee44fb5cbeaf1761f2beb9be7e0bf40"),
    ("check --group S3 --field 0 --method char0", 1,
     "98761f514caff8402dfc5fda6b28f73d1e66c29592825567be03042cffc4d408"),
    ("check --group D8 --field 2 --crossvalidate", 0,
     "53fb11d7966f107de7f2bf749901a0cffd3055934af08f62c751f11da76fba31"),
    ("check --group 'Q8 x C3' --field 2 --crossvalidate", 0,
     "91a0e49db1e5b7610424105a5a84567648b03d19a3c74d4813823e6dd3e74aaa"),
    ("check --group D8 --field 2^2 --method socle", 0,
     "4c53c05bfd4b4ff8730efec47f8c725de9d87ec223a234bd54e0c24612e6c3fc"),
    ("reproduce prop29", 0,
     "c20078c8c7762abec021fe8d69693e69816dbe5822a2d50d9dd2719a92804d8f"),
]


@pytest.mark.parametrize("cmd, code, digest", REPORT_DIGESTS,
                         ids=[c for c, _, _ in REPORT_DIGESTS])
def test_report_bytes_pinned(capsys, cmd, code, digest):
    assert main(shlex.split(cmd) + ["--format", "json"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
