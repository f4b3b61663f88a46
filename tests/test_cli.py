import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cealg
from cealg import catalog
from cealg.algebra import GroupAlgebra
from cealg.cli import main, parse_field
from cealg.decision import candidate_admits_central_multiple
from cealg.fields import field_make
from cealg.groups import ORDER_CAP
from reference import admits_central_multiple_stacked, from_support, index_of_label


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

    def test_index_limit_refusal(self, capsys):
        # 2^64 candidates: refused at once whatever the budget
        code = main(["check", "--group", "D64", "--field", "2", "--method", "oracle",
                     "--budget", str(2**128)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "2^63" in err[0]

    @pytest.mark.parametrize("budget, listed", [(256, True), (255, False)])
    def test_crossvalidate_runs_the_oracle_exactly_within_budget(self, capsys, budget, listed):
        # D8 over GF(2) has 2^8 = 256 candidates
        assert main(["check", "--group", "D8", "--field", "2", "--crossvalidate",
                     "--budget", str(budget)]) == 0
        out = capsys.readouterr().out
        assert ("agrees   oracle: centrally_essential" in out) == listed
        assert "agrees   socle: centrally_essential" in out

    @pytest.mark.parametrize("spec", ["Q8 x C3", "D8 x C3"])
    def test_theorem_11_positive_on_a_product_by_the_definition(self, capsys, spec):
        # G = P x H with P non-abelian of class 2 and H = C3 != 1: Theorem
        # 1.1 says FG is centrally essential over GF(2), and the oracle
        # checks it on all 2^24 - 1 nonzero elements
        assert main(["check", "--group", spec, "--field", "2", "--crossvalidate",
                     "--budget", str(2**24), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["verdict"], doc["reason"]) == ("centrally_essential", "nc_le_2")
        assert doc["details"]["p_part_class"] == 2
        assert doc["details"]["decomposition"]["p_prime_part_size"] == 3
        assert doc["cross_checks"] == [["socle", "centrally_essential"],
                                       ["oracle", "centrally_essential"]]

    def test_socle_on_non_p_group_refused(self, capsys):
        assert main(["check", "--group", "S3", "--field", "2", "--method", "socle"]) == 2

    def test_method_field_compatibility(self, capsys):
        # decide refuses both pairs; the CLI adds no check of its own
        for field, method, message in [
            ("2", "char0", "method 'char0' needs characteristic zero, not GF(2)"),
            ("0", "oracle", "method 'oracle' needs a finite field"),
        ]:
            assert main(["check", "--group", "Q8", "--field", field, "--method", method]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {message}\n")

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

    def test_text_byte_determinism(self, capsys):
        argv = ["check", "--group", "Q8 x C3", "--field", "2", "--crossvalidate"]
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert "time " not in outs[0]
        assert main(argv + ["--timings"]) == 0
        assert "time     total:" in capsys.readouterr().out

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

    @pytest.mark.parametrize("bad", [10**20, -1, 40000, (1 << 16) + 1])
    def test_generator_entries_refused_before_narrowing_them(self, tmp_path, capsys, bad):
        # cast to uint16 first, 2^16 + 1 would read 1 and make [1, 0, 2] a transposition
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"degree": 3, "generators": [[bad, 0, 2]]}))
        assert main(["check", "--group", str(path), "--field", "2"]) == 2
        assert "is not a permutation of 0..2" in capsys.readouterr().err

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

    @pytest.mark.parametrize("exc", [MemoryError(), RuntimeError("boom\nsecond line"),
                                     IndexError()])
    def test_crash_exits_2_never_1(self, capsys, monkeypatch, exc):
        # exit 1 means "not centrally essential": a crash must not read as it
        from cealg import cli

        def crash(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_check", crash)
        assert main(["check", "--group", "S3", "--field", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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

    @pytest.mark.parametrize("budget", ["0", "1"])
    def test_thm11_refuses_a_budget_that_admits_no_instance(self, capsys, budget):
        # 2 candidates, C1 over GF(2), is the least the oracle can check
        assert main(["reproduce", "thm11", "--budget", budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: budget {budget} admits no thm11 instance; the "
                                "smallest, C1 over GF(2), needs a budget of 2\n")

    def test_thm11_at_the_least_budget_checks_c1(self, capsys):
        assert main(["reproduce", "thm11", "--budget", "2"]) == 0
        header, row, verdict = capsys.readouterr().out.splitlines()
        assert row.split() == ["C1", "1", "GF(2)", "structural", "nc_le_2",
                               "centrally_essential"]
        assert verdict == "all assertions hold"

    def test_json_format(self, tmp_path):
        p = tmp_path / "r.json"
        assert main(["reproduce", "prop29", "--format", "json",
                     "--output", str(p)]) == 0
        doc = json.loads(p.read_text())
        assert doc["failures"] == []
        assert len(doc["rows"]) == 2
        assert all(r["verdict"] == "not_centrally_essential" for r in doc["rows"])


# stdout SHA-256 and exit code of `check ... --format json` and the three
# `reproduce ... --format json` tables: each reason tag once, both
# crossvalidate shapes (socle and oracle; socle only when the oracle is over
# budget), a GF(4) op, every route's own `details`, and each shape of the
# decision pipeline: a crossvalidated class > 2 positive, a failed Sylow
# split and a negative with both witnesses, a structural class <= 2 p-part
# of a product, and an auto negative on a p-part of a product
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
    ("check --group D16 --field 2 --crossvalidate", 0,
     "17544f5c85031ac8484097d50b531267a40a30c4e4f14a22339fb575a785eade"),
    ("check --group S3 --field 2 --crossvalidate", 1,
     "6712e21ddd66999abe82e99c760cbc057d4ecdcbaf669b92bc99a4f8fffc5fd0"),
    ("check --group prop29:2 --field 2 --crossvalidate", 1,
     "f32c1d433e0358338cc7500f644e7ced25608c6e935d6d72135a32ad9183a09b"),
    ("check --group 'Q8 x C3' --field 2 --method structural", 0,
     "3ba018e880d944391f8a8b73e93b2d16b068e0a4038b6e8d403bae5515c1a10c"),
    ("check --group 'prop29:2 x C3' --field 2", 1,
     "3b03883aa3d0d3f8ffd2ff4b46c331d5c5f243cd6021a8c77c57be57a33dfd58"),
    # extension fields on both sides of fields.TABLE_ORDER
    ("check --group S3 --field 2^8 --method oracle --budget 281474976710656", 1,
     "bebe601489b0c312dc800402018aa4d577d31afebfad33673f3583fcd5608870"),
    ("check --group S3 --field 3^6 --method oracle --budget 4611686018427387904", 1,
     "e8893838f135df972e0730e5761fb60f75f1dad4627ddc03cc04692d6d4b9960"),
    ("check --group prop29:2 --field 2^8 --method socle", 1,
     "0d81e7ad55cd78ce72078fcc198376af04ee01e1a58327ed6d6ec678d2007c82"),
    ("check --group H3 --field 3^6 --method socle", 0,
     "018783b5dff3c34a60df5c69292984666be98c6b1b01a629f27987a5dd9922c6"),
    ("check --group prop29:3 --field 3^6", 1,
     "0acd35479d5417c42eaea7a43e27180cd5b7f7f39b2ca113ff3254a176a181ad"),
    ("check --group D16 --field 2^10 --crossvalidate", 0,
     "666ea1f7d31f11a3910474939b56d70f91667b4580cd51fe2c28df439fa6a0c3"),
    # the socle route over extension fields up to GF(2^16), and the
    # verifier on products over GF(p^k) and on the default route's largest
    # pinned witness
    ("check --group D256 --field 2^8 --method socle", 0,
     "0aa870074a8a91fefed99e4af03cb42fa57a4a190dc18b3efd237611feafb0a4"),
    ("check --group 'H5 x C5' --field 5^2 --method socle", 0,
     "db702985dd0594bcc52ebc4fcde821eb00b6c9c47aa3ce307ae5462d9ac73f0a"),
    ("check --group D512 --field 2^16 --method socle", 0,
     "3cd8e8f17cdfc72725a3da2e680f591ff7860b1602ca29b8e3a12cbf314fed96"),
    ("check --group 'prop29:2 x E2^4' --field 2^4", 1,
     "a2f825687432c8369ed38c20b7b1040e45366513e1f99be36326a6aacbca2c79"),
    ("check --group 'prop29:3 x C2' --field 3^2 --crossvalidate", 1,
     "f1de18d74824cb4a9759efd7794f75d678e10ae954a5e81decd978c9daae439b"),
    ("check --group 'prop29:2 x E2^6' --field 2", 1,
     "24dadb210dff8585eefa323ea3fa0f828545fac2c0cc4bcb2f036a43dfb3d4b1"),
    # the center, the series and G' in `groups info`, on semidirect
    # products, dihedral and quasidihedral 2-groups and direct products
    # with an abelian or a non-nilpotent factor, and two routes that read them
    ("groups info H11", 0,
     "5b09caf53fd9a41c7043b3eab80eabab02dc266dbcb2063e736b998109b2312a"),
    ("groups info prop29:5", 0,
     "eb16a3470ffe335edf8e25451ac8cb9b3ddfc5078ee54ef56f8ab30fe5cfa512"),
    ("groups info D512", 0,
     "32f1e8d0f8b91e945e19c2dbfa78e1a422b59c101232361dc4102258242c6f5f"),
    ("groups info 'H7 x C9'", 0,
     "2202b55c12c500df018f9d98c408fe4e31149122a8d44c6dcd70ffdbab97377f"),
    ("groups info 'H3 x S3'", 0,
     "b4643772c8dae92a019a69ccf2d3ef86a628bc6c1f6c9c9e572dd7c93cbfea45"),
    ("groups info order16:13", 0,
     "0a18801f89f55d4172f72f58373c81b63bcb3cc3a4be225b9e8485f1af464c95"),
    ("groups info 'prop29:2 x E2^4'", 0,
     "d0a8606fd5b1a3b1f2611a149f9c8d43bd209ee85d2852f24d58855f01c212c3"),
    ("groups info QD16", 0,
     "27bd8ad788efaac47bb2c6d33ae953f2ca43d691724fdacc2beed991aa7b36ab"),
    ("groups info H13", 0,
     "16f656f1995ecf33660036dcb2298a71e1aef6fcd59104f973fd71895086b23d"),
    ("check --group H13 --field 13", 0,
     "3485a62304cf43465841f5ed6b0eac6a854a08c468d26cf690091dd00198710f"),
    ("check --group prop29:5 --field 5 --method structural", 1,
     "1481142f9960dc2b3bc71b8e4c6c84cd40404c12229d501b5967ace03dd0d4fb"),
    ("reproduce prop29", 0,
     "c20078c8c7762abec021fe8d69693e69816dbe5822a2d50d9dd2719a92804d8f"),
    ("reproduce thm11", 0,
     "7fa19c1527e96adf892980ac1b49b9e217df7675945e5c192549a70bec7ee9ef"),
    ("reproduce remark31", 0,
     "b414426d4208bc47d1e2f06f6e466f746247990a5a7cf4fe99c4d6962882e3de"),
]


@pytest.mark.parametrize("cmd, code, digest", REPORT_DIGESTS,
                         ids=[c for c, _, _ in REPORT_DIGESTS])
def test_report_bytes_pinned(capsys, cmd, code, digest):
    assert main(shlex.split(cmd) + ["--format", "json"]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_groups_list_bytes_pinned(capsys):
    assert main(["groups", "list"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a5bf82a2847e5886c25bb0f8f817220a35672aaf5ea7691152b75e9b63d1faa9")


# the one stderr line of a refused `check`: specs the grammar refuses, a
# builder's own refusal, a non-prime characteristic and an undecided
# structural run
REFUSAL_LINES = [
    ("check --group X9 --field 2", "unknown group spec 'X9'"),
    ("check --group Q --field 2", "unknown group spec 'Q'"),
    ("check --group E2 --field 2", "unknown group spec 'E2'"),
    ("check --group order16: --field 2", "unknown group spec 'order16:'"),
    ("check --group D7 --field 2", "dihedral group order must be even and >= 2"),
    ("check --group C2 --field 4", "field characteristic must be prime, got 4"),
    ("check --group C2 --field ''", 'field spec must be "p", "p^k" or "0", got \'\''),
    ("check --group C2 --field 2^", 'field spec must be "p", "p^k" or "0", got \'2^\''),
    ("check --group C2 --field two", 'field spec must be "p", "p^k" or "0", got \'two\''),
    ("check --group D16 --field 2 --method structural",
     "structural rules do not settle D16: class > 2 without the central-coset condition"),
]


@pytest.mark.parametrize("cmd, message", REFUSAL_LINES, ids=[c for c, _ in REFUSAL_LINES])
def test_refusal_bytes_pinned(capsys, cmd, message):
    assert main(shlex.split(cmd)) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


# negative checks whose witnesses are read back from the report: the pinned
# oracle, auto, structural and socle cases, then extension fields that no
# digest covers
SHIPPED_WITNESS_CASES = [
    "check --group S3 --field 2 --method oracle",
    "check --group prop29:3 --field 3",
    "check --group prop29:2 --field 2 --method structural",
    "check --group prop29:2 --field 2 --method socle",
    "check --group S3 --field 2^2 --method oracle",
    "check --group prop29:2 --field 2^2 --method socle",
    "check --group prop29:3 --field 3^2",
]


@pytest.mark.parametrize("cmd", SHIPPED_WITNESS_CASES)
def test_shipped_witnesses_check_from_their_report_bytes(capsys, cmd):
    # each witness's [label, coefficient] pairs as a row of the reported
    # group: not central, no central multiple, and the report's ranks, the
    # same by the stacked rank of the reference
    assert main(shlex.split(cmd) + ["--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    g = catalog.get(doc["group"]["name"])
    alg = GroupAlgebra(g, field_make(doc["field"]["p"], doc["field"]["k"]))
    assert doc["witnesses"]
    for w in doc["witnesses"]:
        row = from_support(alg, [(index_of_label(g, lab), v) for lab, v in w["element"]])
        assert not alg.is_central(row)
        admits, art = candidate_admits_central_multiple(alg, row)
        assert not admits
        keys = ("rank_rC", "rank_sum", "center_dim", "intersection_dim")
        assert {k: art[k] for k in keys} == {k: w["checks"][k] for k in keys}
        assert (admits, art) == admits_central_multiple_stacked(alg, row)


# -- the names the benchmark's tracer wraps -------------------------------------

# analyses the tracer rewraps as cached_property, so they still compute once
TRACED_CACHED = {
    ("groups", "FiniteGroup.conjugacy"),
    ("groups", "FiniteGroup.upper_central_series"),
    ("algebra", "GroupAlgebra.center_basis"),
    ("algebra", "GroupAlgebra.center_matrix"),
}


def _tracer_wrapped() -> list[tuple[str, str]]:
    """Every (module, qualname) that perfbench/tracing.py wraps.  The tracer
    module is loaded by path and not installed."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    wrapped = [(mod, qual) for _, mod, qual in tracing.SPANS + tracing.COUNTERS]
    wrapped += [("decision", qual) for qual in tracing.ORACLE_SCANS]
    wrapped.append(("decision", "_projective_mask"))
    return wrapped


def test_tracer_names_resolve():
    """Every (module, qualname) that perfbench/tracing.py wraps still exists
    in cealg: a callable, and a method of a class a plain function or, where
    it was one, a cached_property."""
    import functools
    import importlib
    import inspect

    wrapped = _tracer_wrapped()
    for mod, qual in wrapped:
        owner = importlib.import_module(f"cealg.{mod}")
        if "." not in qual:
            assert callable(getattr(owner, qual, None)), (mod, qual)
            continue
        cls_name, attr = qual.split(".")
        target = getattr(owner, cls_name).__dict__.get(attr)
        if (mod, qual) in TRACED_CACHED:
            assert isinstance(target, functools.cached_property), (mod, qual)
        else:
            assert inspect.isfunction(target), (mod, qual)
    assert TRACED_CACHED <= set(wrapped)


# -- the package surface ----------------------------------------------------------


def _package_sources() -> dict[str, str]:
    """Module name -> source text of every module of the cealg package."""
    return {p.stem: p.read_text() for p in Path(cealg.__file__).parent.glob("*.py")}


def _unreferenced(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, qualname) of every public top-level function or class, and
    every public method of a top-level class, in `sources` that nothing in
    any of the modules reads outside the definition itself: a method by an
    attribute of its spelling, a top-level name by a name or an attribute.
    Matching goes by spelling alone, so a read of another object's
    attribute of the same name counts."""
    defs, reads = [], []
    for mod, text in sources.items():
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((mod, node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(mod, f"{node.name}.{m.name}", m) for m in node.body
                         if isinstance(m, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((mod, node.id, node.lineno, False))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((mod, node.attr, node.lineno, True))
    out = set()
    for mod, qual, node in defs:
        if node.name.startswith("_"):
            continue
        method, own = "." in qual, range(node.lineno, node.end_lineno + 1)
        if not any(name == node.name and (attr or not method) and not (m == mod and line in own)
                   for m, name, line, attr in reads):
            out.add((mod, qual))
    return out


def test_package_surface_has_no_uncalled_names():
    """Every public function, method and class in src/cealg is referred to
    elsewhere in src or is wrapped by perfbench's tracer; every name that
    __init__.py exports resolves."""
    sources = _package_sources()
    unreferenced = _unreferenced(sources)
    assert unreferenced - set(_tracer_wrapped()) == set()
    exports = [alias.asname or alias.name for node in ast.parse(sources["__init__"]).body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert exports and all(hasattr(cealg, name) for name in exports)


def test_surface_guard_flags_an_uncalled_def():
    extra = {
        "orphan": "def uncalled(x):\n    return uncalled(x - 1) if x else 0\n\n\n"
                  "class Holder:\n    def used(self):\n        return 1\n\n"
                  "    def shadowed(self):\n        return 2\n",
        "caller": "def run(h):\n    return h.used(), shadowed\n\n\nrun(None)\n",
    }
    found = _unreferenced(dict(_package_sources(), **extra))
    # a recursive call is no caller, nor is a bare name for a method; a
    # call from another module is
    assert found - _unreferenced(_package_sources()) == {
        ("orphan", "uncalled"), ("orphan", "Holder"), ("orphan", "Holder.shadowed")}


# -- fuzzing JSON group files -------------------------------------------------------

_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-(10**20), 10**20),
                     st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4))
_ANY_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=8,
)


def _perms(degree: int):
    return st.permutations(range(degree))


@st.composite
def _well_formed(draw) -> str:
    """Generators at degree <= 6, duplicates and identities included."""
    degree = draw(st.integers(1, 6))
    gens = draw(st.lists(_perms(degree) | st.just(list(range(degree))), max_size=3))
    if gens and draw(st.booleans()):
        gens.append(gens[0])
    doc = {"degree": degree, "generators": gens}
    if draw(st.booleans()):
        doc["name"] = draw(_ANY_JSON)
    return json.dumps(doc)


@st.composite
def _malformed(draw) -> str:
    degree = draw(st.integers(1, 6))
    gens = draw(st.lists(_perms(degree), max_size=2))
    kind = draw(st.sampled_from(["not_object", "degree", "not_int_lists", "length",
                                 "not_permutation", "deep", "truncated"]))
    if kind == "not_object":
        return json.dumps(draw(_ANY_JSON.filter(lambda x: not isinstance(x, dict))))
    if kind == "degree":
        bad = (st.booleans() | st.floats(allow_nan=True) | st.just(float("nan"))
               | st.integers(max_value=0) | st.integers(min_value=ORDER_CAP + 1)
               | st.text(max_size=3) | st.lists(st.integers(1, 6), max_size=2))
        doc = {"generators": gens}
        if draw(st.booleans()):  # else the degree is missing
            doc["degree"] = draw(bad)
        return json.dumps(doc)
    if kind == "not_int_lists":
        # a non-int entry in a generator, a generator that is not a list, or
        # generators that are not a list
        gen = draw(st.lists(st.integers(0, degree - 1), min_size=degree, max_size=degree))
        gen[draw(st.integers(0, degree - 1))] = draw(
            _SCALARS.filter(lambda x: type(x) is not int) | st.lists(st.integers(), max_size=2))
        gens = draw(st.sampled_from([gens + [gen], gens + [draw(_SCALARS)], draw(_SCALARS)]))
    elif kind == "length":
        other = draw(st.integers(0, 8).filter(lambda m: m != degree))
        gens = gens + [draw(_perms(other))]
    elif kind == "not_permutation":
        gens = gens + [draw(st.lists(st.integers(-3, degree + 3), min_size=degree, max_size=degree)
                            .filter(lambda g: sorted(g) != list(range(degree))))]
    elif kind == "deep":
        depth = draw(st.integers(2, 10**5))
        nested = "[" * depth + "]" * depth
        return draw(st.sampled_from([nested, f'{{"degree": {degree}, "generators": {nested}}}']))
    else:
        text = json.dumps({"degree": degree, "generators": gens})
        return text[: draw(st.integers(0, len(text) - 1))]
    return json.dumps({"degree": degree, "generators": gens})


def _check_group_file(text: str, field: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of `check --group <file>.json`."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "group.json")
        with open(path, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", "--group", path, "--field", field])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_malformed(), st.sampled_from(["2", "3", "0"]))
def test_malformed_group_file_exits_2_on_one_line(text, field):
    code, out, err = _check_group_file(text, field)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_well_formed(), st.sampled_from(["2", "3", "0"]))
def test_well_formed_group_file_gets_a_verdict(text, field):
    code, out, err = _check_group_file(text, field)
    assert code in (0, 1) and err == ""
    assert "verdict" in out


def _child_env() -> dict:
    """The environment with this package's src first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(cealg.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


# calls that share the one parser in turn: two refusals, the help text (which
# exits 0 through SystemExit) and a verdict
REUSE_RUNS = [["groups", "info"], ["check", "--group", "C2", "--field", "4"], ["--help"],
              ["check", "--group", "Q8", "--field", "2"]]


def _main_exit(argv: list[str]) -> int:
    """main's exit code, or the code of the SystemExit that argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_reused_parser_prints_what_a_fresh_process_prints(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help to
    for argv in REUSE_RUNS:
        code = _main_exit(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "cealg.cli", *argv],
                               env=dict(_child_env(), COLUMNS="80"),
                               capture_output=True, text=True, timeout=60)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_main_builds_no_parser_after_its_first_call(capsys, monkeypatch):
    _main_exit(REUSE_RUNS[0])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for i in range(10):
        _main_exit(REUSE_RUNS[i % len(REUSE_RUNS)])
    capsys.readouterr()
    assert built == []


def test_socle_and_crossvalidate_runs_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call, tens of milliseconds;
    # the quotients, normality tests and commutator subgroups avoid it
    script = "\n".join([
        "import contextlib, io, sys",
        "from cealg.cli import main",
        "for argv in sys.argv[1:]:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert main(argv.split(',')) in (0, 1)",
        "print('numpy.ma' in sys.modules)",
    ])
    runs = ["check,--group,prop29:3,--field,3,--method,socle",
            "check,--group,H3 x C3,--field,3^2,--method,socle",
            "check,--group,D8,--field,2,--crossvalidate",
            "check,--group,prop29:2,--field,2,--crossvalidate",
            "groups,info,H11"]
    done = subprocess.run([sys.executable, "-c", script, *runs], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "False\n"


# inputs whose caps were checked only after trial division of a huge p or
# after forming a huge p^k; each ran past 15 s
FAR_OVER_THE_CAPS = [
    "check,--group,C2,--field,1000000000000000003",
    "check,--group,C2,--field,3^1000000000",
    "groups,info,E1000000000000000003^1",
    "groups,info,E3^1000000000",
    "groups,info,H1000000000000000003",
    "groups,info,prop29:1000000000000000003",
]


def test_inputs_far_over_the_caps_exit_2_at_once():
    # one child runs them all, so that a regression times out instead of
    # hanging the suite; it reports each run's CPU time and its peak RSS
    # (VmHWM: ru_maxrss would keep the forking parent's peak across exec)
    script = "\n".join([
        "import contextlib, io, json, sys, time",
        "from cealg.cli import main",
        "runs = []",
        "for argv in sys.argv[1:]:",
        "    err, t0 = io.StringIO(), time.process_time()",
        "    with contextlib.redirect_stderr(err):",
        "        code = main(argv.split(','))",
        "    runs.append([code, time.process_time() - t0, err.getvalue()])",
        "hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM')]",
        "print(json.dumps([runs, int(hwm[0].split()[1])]))",
    ])
    done = subprocess.run([sys.executable, "-c", script, *FAR_OVER_THE_CAPS], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    runs, peak_kb = json.loads(done.stdout)
    for argv, (code, cpu, err) in zip(FAR_OVER_THE_CAPS, runs):
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert "exceeds" in err and cpu < 1.0, (argv, err, cpu)
    assert peak_kb < 100 * 1024
