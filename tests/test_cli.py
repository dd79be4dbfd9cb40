import contextlib
import io
import json
import os
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filteralg import cli
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
    # The check would pass vacuously over an empty range of degrees.
    assert main(["oracle", "check-ideal", "--file", sym_file, "--n-max", "-1"]) == 2
    assert "n_max must be nonnegative" in capsys.readouterr().err


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


def test_cap_refuses_a_huge_degree_without_the_power(capsys):
    # 3**(10**7) has 15.8M bits and takes seconds to build; a degree past
    # the cap's bit length is refused without taking the power.
    start = time.perf_counter()
    assert main(["oracle", "decompose", "--k", "2", "--l", "1", "--n", "10000000"]) == 3
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and "3**10000000 exceeds cap" in err


# Exit code, stdout and stderr of every subcommand in each format it
# accepts, recorded while each command still printed its own output, so
# the one printer in ``main`` must reproduce them byte for byte.
# ``{sym}`` and ``{tv}`` name the fixture files.
GOLDEN = [
    ('lr --mu 2,1 --lam 1', 0, '(3,1)=1\n(2,2)=1\n(2,1,1)=1\n', ''),
    ('lr --mu 2,1 --lam 1 --format json', 0, '{"mu": [2, 1], "lam": [1], "degree": 4, "terms": [{"nu": [3, 1], "coeff": 1}, {"nu": [2, 2], "coeff": 1}, {"nu": [2, 1, 1], "coeff": 1}]}\n', ''),
    ('lr --mu 2,1 --lam 2,1 --nu 3,2,1', 0, '2\n', ''),
    ('lr --mu 2,1 --lam 2,1 --nu 3,2,1 --format json', 0, '{"mu": [2, 1], "lam": [2, 1], "nu": [3, 2, 1], "coefficient": 2}\n', ''),
    ('dims --lambda 2,1 --k 2 --l 0', 0, 'f=2 schur=2 w=4\n', ''),
    ('dims --lambda 2,1 --k 2 --l 0 --format json', 0, '{"lambda": [2, 1], "k": 2, "l": 0, "f": 2, "schur": 2, "w": 4}\n', ''),
    ('filter minimize --file {sym}', 0, '(1,1)\n', ''),
    ('filter minimize --file {sym} --format json', 0, '{"k": 2, "l": 0, "generators": [[1, 1]]}\n', ''),
    ('filter member --file {sym} --lambda 3,2', 0, 'true\n', ''),
    ('filter member --file {sym} --lambda 3,2 --format json', 0, '{"member": true}\n', ''),
    ('filter member --file {sym} --lambda 5', 1, 'false\n', ''),
    ('filter member --file {sym} --lambda 5 --format json', 1, '{"member": false}\n', ''),
    ('filter complement --file {sym} --n 4', 0, '(4)\n', ''),
    ('filter complement --file {sym} --n 4 --format json', 0, '{"n": 4, "complement": [[4]]}\n', ''),
    ('filter hr --file {sym}', 0, '2\n', ''),
    ('filter hr --file {sym} --format json', 0, '{"hr": 2}\n', ''),
    ('filter pi --file {sym}', 0, 'c=1\n', ''),
    ('filter pi --file {sym} --format json', 0, '{"pi": true, "c": 1}\n', ''),
    ('filter pi --file {sym} --super', 0, 'b=2\n', ''),
    ('filter pi --file {sym} --super --format json', 0, '{"pi": true, "b": 2}\n', ''),
    ('series --file {sym} --n-max 6', 0, '   0 1\n   1 2\n   2 3\n   3 4\n   4 5\n   5 6\n   6 7\n', ''),
    ('series --file {sym} --n-max 6 --format json', 0, '{"k": 2, "l": 0, "n_max": 6, "values": [1, 2, 3, 4, 5, 6, 7]}\n', ''),
    ('series --file {sym} --n-max 6 --format csv', 0, '0,1\n1,2\n2,3\n3,4\n4,5\n5,6\n6,7\n', ''),
    ('growth --file {sym} --n-max 12', 0, '{"alpha": 1, "slope": 0.2137457797884614, "verdict": "PASS"}\n', ''),
    ('oracle check-ideal --file {sym} --n-max 3', 0, 'PASS\n', ''),
    ('oracle check-ideal --file {sym} --n-max 3 --format json', 0, '{"n_max": 3, "verdict": "PASS"}\n', ''),
    ('oracle identity --file {sym} --poly commutators:1 --n 4', 0, 'PASS\n', ''),
    ('oracle identity --file {sym} --poly commutators:1 --n 4 --format json', 0, '{"poly": "commutators:1", "n": 4, "verdict": "PASS"}\n', ''),
    ('filter minimize --file {tv}', 0, '(2,2)\n', ''),
    ('filter minimize --file {tv} --format json', 0, '{"k": 1, "l": 1, "generators": [[2, 2]]}\n', ''),
    ('filter member --file {tv} --lambda 3,2', 0, 'true\n', ''),
    ('filter member --file {tv} --lambda 3,2 --format json', 0, '{"member": true}\n', ''),
    ('filter member --file {tv} --lambda 5', 1, 'false\n', ''),
    ('filter member --file {tv} --lambda 5 --format json', 1, '{"member": false}\n', ''),
    ('filter complement --file {tv} --n 4', 0, '(4)\n(3,1)\n(2,1,1)\n(1,1,1,1)\n', ''),
    ('filter complement --file {tv} --n 4 --format json', 0, '{"n": 4, "complement": [[4], [3, 1], [2, 1, 1], [1, 1, 1, 1]]}\n', ''),
    ('filter hr --file {tv}', 0, '3\n', ''),
    ('filter hr --file {tv} --format json', 0, '{"hr": 3}\n', ''),
    ('filter pi --file {tv}', 2, '', 'error: classical test requires an ambient with l == 0\n'),
    ('filter pi --file {tv} --format json', 2, '', 'error: classical test requires an ambient with l == 0\n'),
    ('filter pi --file {tv} --super', 1, 'not-pi\n', ''),
    ('filter pi --file {tv} --super --format json', 1, '{"pi": false, "b": null}\n', ''),
    ('series --file {tv} --n-max 6', 0, '   0  1\n   1  2\n   2  4\n   3  8\n   4 16\n   5 32\n   6 64\n', ''),
    ('series --file {tv} --n-max 6 --format json', 0, '{"k": 1, "l": 1, "n_max": 6, "values": [1, 2, 4, 8, 16, 32, 64]}\n', ''),
    ('series --file {tv} --n-max 6 --format csv', 0, '0,1\n1,2\n2,4\n3,8\n4,16\n5,32\n6,64\n', ''),
    ('growth --file {tv} --n-max 12', 0, '{"alpha": 2, "slope": 0.6931471805599453, "verdict": "PASS"}\n', ''),
    ('oracle check-ideal --file {tv} --n-max 3', 0, 'PASS\n', ''),
    ('oracle check-ideal --file {tv} --n-max 3 --format json', 0, '{"n_max": 3, "verdict": "PASS"}\n', ''),
    ('oracle identity --file {tv} --poly commutators:1 --n 4', 1, 'FAIL\n', ''),
    ('oracle identity --file {tv} --poly commutators:1 --n 4 --format json', 1, '{"poly": "commutators:1", "n": 4, "verdict": "FAIL"}\n', ''),
    ('oracle decompose --k 1 --l 1 --n 3', 0, '(3) module=2 w=2\n(2,1) module=4 w=4\n(1,1,1) module=2 w=2\nPASS total=8 expected=8\n', ''),
    ('oracle decompose --k 1 --l 1 --n 3 --format json', 0, '{"k": 1, "l": 1, "n": 3, "total": 8, "expected_total": 8, "blocks": [{"lambda": [3], "module": 2, "w": 2}, {"lambda": [2, 1], "module": 4, "w": 4}, {"lambda": [1, 1, 1], "module": 2, "w": 2}], "verdict": "PASS"}\n', ''),
    ('oracle ee --poly popov5a', 0, 'PASS\n', ''),
    ('oracle ee --poly popov5a --format json', 0, '{"poly": "popov5a", "degree": 5, "verdict": "PASS"}\n', ''),
    ('oracle ee --poly s4', 1, 'FAIL\n', ''),
    ('oracle ee --poly s4 --format json', 1, '{"poly": "s4", "degree": 4, "verdict": "FAIL"}\n', ''),
]


@pytest.mark.parametrize("argv, code, out, err", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_output_pinned(argv, code, out, err, sym_file, tv_file, capsys):
    assert main([a.format(sym=sym_file, tv=tv_file) for a in argv.split()]) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"k":1,"l":1,"generators":5}', "generators must be a list"),
        ("[1,2]", "must hold a JSON object"),
        ('{"k":null,"l":1,"generators":[[2]]}', "k and l must be integers"),
    ],
    ids=["generators-not-a-list", "top-level-list", "k-null"],
)
def test_malformed_filter_file(doc, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    assert main(["filter", "hr", "--file", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


@pytest.mark.parametrize("cap, code", [("8", 3), ("x", 2), ("0", 2), ("-5", 2)])
def test_dim_cap_override(cap, code, monkeypatch, capsys):
    # 3**3 = 27 words exceed a cap of 8; the others are not positive integers.
    monkeypatch.setenv("FILTERALG_DIM_CAP", cap)
    assert main(["oracle", "decompose", "--k", "2", "--l", "1", "--n", "3"]) == code
    out, err = capsys.readouterr()
    assert out == ""
    if code == 2:
        assert "FILTERALG_DIM_CAP" in err


def test_parser_is_built_once_and_reused(monkeypatch, capsys):
    # A usage error, --help and a cap exit on the shared parser leave no
    # trace on the next call.
    lr = ["lr", "--mu", "3,1", "--lam", "2,1", "--format", "json"]
    assert main(lr) == 0
    first = capsys.readouterr().out
    assert main(["lr", "--mu", "3,1"]) == 2
    assert main(["--help"]) == 0
    monkeypatch.setenv("FILTERALG_DIM_CAP", "8")
    assert main(["oracle", "decompose", "--k", "2", "--l", "1", "--n", "3"]) == 3
    capsys.readouterr()
    assert main(lr) == 0
    assert capsys.readouterr().out == first
    assert cli.build_parser() is cli.build_parser()


def _mostly(valid, junk):
    """Draw from ``junk`` about one time in eight, else from ``valid``."""
    return st.integers(0, 7).flatmap(lambda i: valid if i < 7 else junk)


def _number(lo, hi):
    return _mostly(
        st.integers(lo, hi).map(str),
        st.one_of(st.integers(-2, -1).map(str), st.sampled_from(["", "x", "1.5"])),
    )


_PARTS = st.lists(st.integers(1, 6), max_size=3).map(lambda ps: sorted(ps, reverse=True))
_PARTITION = _mostly(
    _PARTS.map(lambda ps: ",".join(map(str, ps))),
    st.one_of(
        st.lists(st.integers(-1, 6), max_size=3).map(lambda ps: ",".join(map(str, ps))),
        st.sampled_from(["()", "(2,1)", "2^2,1", "1^0", "3,x", "^", "1^-1", "2,,1"]),
    ),
)
# s3cube is left to test_oracle_ee: its exact decision takes seconds.
_POLY = _mostly(
    st.sampled_from(
        ["commutators:1", "commutators:2", "popov5a", "popov5b", "br-cube", "s4"]
    ),
    st.sampled_from(["commutators:0", "commutators:x", "unknown"]),
)
_FLAG_VALUES = {
    "--mu": _PARTITION,
    "--lam": _PARTITION,
    "--nu": _PARTITION,
    "--lambda": _PARTITION,
    "--k": _number(0, 2),
    "--l": _number(0, 2),
    "--n": _number(0, 6),
    "--n-max": _number(0, 8),
    "--poly": _POLY,
    "--file": _mostly(st.just("filter.json"), st.just("absent.json")),
    "--format": _mostly(st.sampled_from(["text", "json"]), st.sampled_from(["csv", "xml"])),
    "--super": st.none(),
}
_COMMANDS = {
    "lr": ["--mu", "--lam", "--nu", "--format"],
    "dims": ["--lambda", "--k", "--l", "--format"],
    "filter minimize": ["--file", "--format"],
    "filter member": ["--file", "--lambda", "--format"],
    "filter complement": ["--file", "--n", "--format"],
    "filter hr": ["--file", "--format"],
    "filter pi": ["--file", "--super", "--format"],
    "series": ["--file", "--n-max", "--format"],
    "growth": ["--file", "--n-max"],
    "oracle decompose": ["--k", "--l", "--n", "--format"],
    "oracle check-ideal": ["--file", "--n-max", "--format"],
    "oracle identity": ["--file", "--poly", "--n", "--format"],
    "oracle ee": ["--poly", "--format"],
}

_JUNK = st.sampled_from([None, True, 1.5, "2", -1, [], {}, [2, "x"], [[1]]])
_AMBIENT = st.integers(0, 2)
_WELL_FORMED = st.fixed_dictionaries(
    {"k": _AMBIENT, "l": _AMBIENT, "generators": st.lists(_PARTS, max_size=3)}
)
# Mostly malformed: wrong types anywhere, no ambient, not an object, not JSON.
_MALFORMED = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            "k": st.one_of(_AMBIENT, _JUNK),
            "l": st.one_of(_AMBIENT, _JUNK),
            "generators": st.one_of(
                st.lists(st.one_of(_PARTS, st.lists(st.integers(-1, 6)), _JUNK)),
                _JUNK,
            ),
        },
    ).map(json.dumps),
    _JUNK.map(json.dumps),
    st.just("{"),
)
_FILTER_TEXT = st.booleans().flatmap(
    lambda ok: _WELL_FORMED.map(json.dumps) if ok else _MALFORMED
)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    argv = command.split()
    for flag in _COMMANDS[command]:
        if draw(_mostly(st.just(True), st.just(False))):
            value = draw(_FLAG_VALUES[flag])
            argv += [flag] if value is None else [flag, value]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(argv=_argv(), filter_text=_FILTER_TEXT)
@example(argv="oracle decompose --k 0 --l 0 --n -1".split(), filter_text="{}")
def test_argv_fuzz(argv, filter_text, fuzz_dir):
    (fuzz_dir / "filter.json").write_text(filter_text)
    argv = [str(fuzz_dir / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    # A cap of 4**4 words keeps every oracle call small and reaches exit 3.
    with mock.patch.dict(os.environ, {"FILTERALG_DIM_CAP": "256"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in {0, 1, 2, 3}
    if code >= 2:
        assert out.getvalue() == "" and err.getvalue()
    elif "json" in argv or argv[0] == "growth":
        json.loads(out.getvalue())
