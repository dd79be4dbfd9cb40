import json

import pytest

from filteralg.cli import main
from filteralg.filters import Filter


@pytest.fixture
def sym_file(tmp_path):
    path = tmp_path / "sym.json"
    Filter([(1, 1)], (2, 0)).save(path)
    return str(path)


@pytest.fixture
def tv_file(tmp_path):
    path = tmp_path / "tv.json"
    Filter([(2, 2)], (1, 1)).save(path)
    return str(path)


def test_lr_expansion_text(capsys):
    assert main(["lr", "--mu", "1", "--lam", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["(2)=1", "(1,1)=1"]


def test_lr_single_coefficient(capsys):
    assert main(["lr", "--mu", "2,1", "--lam", "2,1", "--nu", "3,2,1"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_lr_json_deterministic(capsys):
    assert main(["lr", "--mu", "2,1", "--lam", "1", "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["lr", "--mu", "2,1", "--lam", "1", "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["terms"] == [
        {"nu": [3, 1], "coeff": 1},
        {"nu": [2, 2], "coeff": 1},
        {"nu": [2, 1, 1], "coeff": 1},
    ]


def test_dims_text_and_json(capsys):
    assert main(["dims", "--lambda", "2,1", "--k", "2", "--l", "0"]) == 0
    assert capsys.readouterr().out.strip() == "f=2 schur=2 w=4"
    assert main(["dims", "--lambda", "7^3,2^4", "--k", "2", "--l", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lambda"] == [7, 7, 7, 2, 2, 2, 2]
    assert data["w"] == data["f"] * data["schur"]


def test_filter_member_exit_codes(sym_file, capsys):
    assert main(["filter", "member", "--file", sym_file, "--lambda", "3,2"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert main(["filter", "member", "--file", sym_file, "--lambda", "5"]) == 1
    assert capsys.readouterr().out.strip() == "false"


def test_filter_minimize_and_complement(sym_file, capsys):
    assert main(["filter", "minimize", "--file", sym_file]) == 0
    assert capsys.readouterr().out.splitlines() == ["(1,1)"]
    assert main(["filter", "complement", "--file", sym_file, "--n", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == ["(3)"]


def test_filter_hr_and_pi(sym_file, capsys):
    assert main(["filter", "hr", "--file", sym_file]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["filter", "pi", "--file", sym_file]) == 0
    assert capsys.readouterr().out.strip() == "c=1"
    assert main(["filter", "pi", "--file", sym_file, "--super"]) == 0
    assert capsys.readouterr().out.strip() == "b=2"


def test_filter_pi_negative(tmp_path, capsys):
    path = tmp_path / "free.json"
    Filter([(1, 1, 1)], (2, 0)).save(path)
    assert main(["filter", "pi", "--file", str(path)]) == 1
    assert capsys.readouterr().out.strip() == "not-pi"


def test_series_formats(tv_file, capsys):
    assert main(["series", "--file", tv_file, "--n-max", "4", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0,1",
        "1,2",
        "2,4",
        "3,8",
        "4,16",
    ]
    assert main(["series", "--file", tv_file, "--n-max", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"k": 1, "l": 1, "n_max": 3, "values": [1, 2, 4, 8]}


def test_growth_json_and_exit(sym_file, capsys):
    assert main(["growth", "--file", sym_file, "--n-max", "30"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["alpha"] == 1 and data["verdict"] == "PASS"


def test_oracle_decompose(capsys):
    assert main(["oracle", "decompose", "--k", "2", "--l", "1", "--n", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("PASS total=27")


def test_oracle_check_ideal(sym_file, capsys):
    assert main(["oracle", "check-ideal", "--file", sym_file, "--n-max", "3"]) == 0
    assert capsys.readouterr().out.strip() == "PASS"


def test_oracle_identity(sym_file, tmp_path, capsys):
    assert main(
        ["oracle", "identity", "--file", sym_file, "--poly", "commutators:1", "--n", "4"]
    ) == 0
    assert capsys.readouterr().out.strip() == "PASS"
    path = tmp_path / "pi2.json"
    Filter([(2, 2)], (2, 0)).save(path)
    assert main(
        ["oracle", "identity", "--file", str(path), "--poly", "commutators:1", "--n", "2"]
    ) == 1
    assert capsys.readouterr().out.strip() == "FAIL"


def test_oracle_ee(capsys):
    assert main(["oracle", "ee", "--poly", "popov5a"]) == 0
    assert capsys.readouterr().out.strip() == "PASS"
    assert main(["oracle", "ee", "--poly", "s4"]) == 1
    assert capsys.readouterr().out.strip() == "FAIL"
    # Degree 9, decided over every subset pair.
    assert main(["oracle", "ee", "--poly", "s3cube", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {"poly": "s3cube", "degree": 9, "verdict": "PASS"}


def test_usage_errors(tmp_path, sym_file, capsys):
    assert main(["lr", "--mu", "1,2", "--lam", "1"]) == 2
    assert main(["filter", "member", "--file", str(tmp_path / "absent.json")]) == 2
    assert main(["nonsense"]) == 2
    assert main(["filter", "member", "--file", str(tmp_path / "absent.json"), "--lambda", "1"]) == 2
    assert main(["oracle", "decompose", "--k", "2", "--l", "1"]) == 2
    assert main(["oracle", "ee"]) == 2
    assert main(["oracle", "identity", "--poly", "s4", "--n", "4"]) == 2
    assert main(["oracle", "check-ideal", "--file", str(tmp_path / "absent.json")]) == 2
    assert main(["dims", "--lambda", "3", "--k", "-1", "--l", "0"]) == 2
    assert main(["growth", "--file", sym_file, "--n-max", "-3"]) == 2
    assert main(["series", "--file", sym_file, "--n-max", "-1"]) == 2
    assert "n_max must be nonnegative" in capsys.readouterr().err
    assert main(["filter", "complement", "--file", sym_file, "--n", "-1"]) == 2
    assert "n must be nonnegative" in capsys.readouterr().err
    # commutators:30 has 2^30 monomials; its degree 60 is read from the name.
    assert main(["oracle", "ee", "--poly", "commutators:30"]) == 2
    assert "degree 60" in capsys.readouterr().err
    assert main(["filter", "complement", "--file", sym_file]) == 2
    assert main(["filter", "hr", "--file", sym_file, "--super"]) == 2


def test_identity_degree_above_n_is_refused_before_building(sym_file, capsys):
    # commutators:30 has 2^30 monomials; its degree 60 is read from the name.
    argv = ["oracle", "identity", "--file", sym_file, "--poly", "commutators:30", "--n", "4"]
    assert main(argv) == 2
    assert "degree 60" in capsys.readouterr().err
    argv = ["oracle", "identity", "--file", sym_file, "--poly", "br-cube", "--n", "5"]
    assert main(argv) == 2


def test_cap_exit_code(tmp_path, capsys):
    path = tmp_path / "sym.json"
    Filter([(1, 1)], (2, 0)).save(path)
    assert main(
        ["oracle", "identity", "--file", str(path), "--poly", "commutators:1", "--n", "13"]
    ) == 3
