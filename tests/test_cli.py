import ast
import io
import json
from pathlib import Path

import pytest
from conftest import CURVE_SUITE, DEGENERATE, SUITE

import exphodge
from exphodge.cli import run


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_analyze_json_example():
    code, out, _ = call(["analyze", "x + x^-1", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["polytope"]["nvol"] == 2
    assert doc["betti"] == [0, 2]
    assert doc["spectrum"]["rank"] == [{"lambda": "0", "mult": 1},
                                       {"lambda": "1", "mult": 1}]
    assert doc["checks"]["degeneration"]["status"] == "pass"
    assert doc["checks"]["symmetry"]["status"] == "pass"


def test_nondegen_text_and_exit_codes():
    code, out, _ = call(["nondegen", "x^2 + 2*x*y + y^2"])
    assert code == 0
    assert "degenerate" in out
    assert "face conv{(0,2),(2,0)}" in out
    assert "witness (1,-1)" in out
    code, _, err = call(["nondegen", "x^2 + 2*x*y + y^2", "--require-nondegenerate"])
    assert code == 3


def test_volume_subtorus_exit_code():
    code, _, err = call(["volume", "x*y"])
    assert code == 4
    assert "1" in err and "2" in err and "subtorus" in err


def test_parse_error_exit_code():
    code, _, err = call(["analyze", "x + + y"])
    assert code == 2
    assert "position" in err


def test_json_reproducible_modulo_timing():
    def strip_timing(text):
        doc = json.loads(text)
        doc.pop("timing_ms", None)
        return doc

    _, a, _ = call(["analyze", "x^2 + x^-1", "--json"])
    _, b, _ = call(["analyze", "x^2 + x^-1", "--json"])
    assert strip_timing(a) == strip_timing(b)


def test_text_and_json_report_same_numbers():
    code, text_out, _ = call(["analyze", "x + y + x^-1*y^-1"])
    code2, json_out, _ = call(["analyze", "x + y + x^-1*y^-1", "--json"])
    assert code == code2 == 0
    doc = json.loads(json_out)
    assert f"nvol {doc['polytope']['nvol']}" in text_out
    assert str(doc["betti"]) in text_out


@pytest.mark.parametrize("flag", [["--seed", "5"], ["--primes", "3"], ["--certify"]],
                         ids=["seed", "primes", "certify"])
def test_removed_flags_are_rejected(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        call(["nondegen", "x + y + x^-1*y^-1"] + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# each flag goes only on the subcommands that read it: --plot on analyze,
# --mode on analyze and spectrum, --require-nondegenerate on those and nondegen
REJECTED_FLAGS = [
    (command, flag)
    for command, flags in [
        ("spectrum", ["--plot"]),
        ("nondegen", ["--plot", "--mode"]),
        ("volume", ["--plot", "--mode", "--require-nondegenerate"]),
        ("curve", ["--plot", "--mode", "--require-nondegenerate"]),
        ("betti", ["--plot", "--mode", "--require-nondegenerate"]),
    ]
    for flag in flags
]
FLAG_ARGS = {"--plot": ["--plot", "p.svg"], "--mode": ["--mode", "rank"],
             "--require-nondegenerate": ["--require-nondegenerate"]}


@pytest.mark.parametrize("command,flag", REJECTED_FLAGS,
                         ids=[command + flag for command, flag in REJECTED_FLAGS])
def test_flags_rejected_where_unread(command, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        call([command, "x^2+2*x*y+y^2+x^-1*y^-1"] + FLAG_ARGS[flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "p.svg").exists()


@pytest.mark.parametrize("command,flags,code", [
    ("analyze", ["--plot", "--mode", "--require-nondegenerate"], 3),
    ("spectrum", ["--mode", "--require-nondegenerate"], 3),
    ("nondegen", ["--require-nondegenerate"], 3),
    ("analyze", ["--plot", "--mode"], 0),
    ("spectrum", ["--mode"], 0),
], ids=["analyze-guarded", "spectrum-guarded", "nondegen-guarded", "analyze", "spectrum"])
def test_flags_accepted_where_read(command, flags, code, tmp_path, monkeypatch):
    # the degenerate input exits 3 under --require-nondegenerate, 0 otherwise
    monkeypatch.chdir(tmp_path)
    argv = [command, "x^2+2*x*y+y^2+x^-1*y^-1"]
    for flag in flags:
        argv += FLAG_ARGS[flag]
    assert call(argv)[0] == code
    assert (tmp_path / "p.svg").exists() == (flags == ["--plot", "--mode"])


def test_spectrum_command_modes():
    code, out, _ = call(["spectrum", "x + y", "--mode", "euler"])
    assert code == 0 and "euler" in out and "(2, 1)" in out
    code, out, _ = call(["spectrum", "x + y", "--mode", "rank", "--json"])
    doc = json.loads(out)
    assert list(doc["spectrum"]) == ["rank"]


def test_curve_command():
    code, out, _ = call(["curve", "x^2 + x^-1"])
    assert code == 0
    assert "dims agree: True" in out
    code, _, _ = call(["curve", "x + y"])
    assert code == 2


def test_betti_command():
    code, out, _ = call(["betti", "x + y + x^-1*y^-1"])
    assert code == 0 and out.split() == ["0", "0", "3"]


def test_plot_writes_svg(tmp_path):
    target = tmp_path / "out.svg"
    code, _, _ = call(["analyze", "x + y + x^-1*y^-1", "--plot", str(target)])
    assert code == 0
    body = target.read_text()
    assert body.startswith("<svg") and "polygon" in body and "rect" in body


def test_vars_flag():
    code, out, _ = call(["betti", "y", "--vars", "x,y"])
    assert code == 4  # y alone spans a subtorus in two variables


@pytest.mark.parametrize("names", ["x,x", "x,y,x"])
def test_repeated_variable_names_exit_2(names):
    code, _, err = call(["analyze", "x + x^-1", "--vars", names])
    assert code == 2 and "repeat a name" in err


def test_no_assert_statement_in_the_package():
    # python -O strips an assert, so an integrity check written as one would
    # vanish, and one that raised would exit 1 instead of 5
    package = Path(exphodge.__file__).parent
    found = [(path.name, node.lineno) for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


CERTIFICATES = [
    # (input, witness field, certified, certificate): the edge zero (1, -1) of
    # (x + y)^2 is rational; (x^2 - 2y^2)^2 has its edge zeros over GF(7)
    # only, so the exact basis proves its claim
    ("x^2+2*x*y+y^2+x^-1*y^-1", "QQ", True, "rational witness"),
    ("x^4-4*x^2*y^2+4*y^4+x^-1*y^-1", "GF(7)", True, "exact basis"),
    ("x+y+x^-1*y^-1", None, True, "exact bases"),
]


@pytest.mark.parametrize("text,field,certified,certificate", CERTIFICATES)
def test_nondegen_json_names_the_certificate(text, field, certified, certificate):
    code, out, _ = call(["nondegen", text, "--json"])
    assert code == 0
    doc = json.loads(out)["nondegeneracy"]
    assert (doc.get("witness_field"), doc["certified"], doc["certificate"]) == \
        (field, certified, certificate)


# ---------------------------------------------------------------------------
# No float in any report
# ---------------------------------------------------------------------------

# CI's JSON inputs beyond the suite: rational and prime-denominator
# coefficients, n = 3 and n = 4 analyze, and each subcommand's own paths
CI_INPUTS = [
    ("analyze", "2/3*x^2 + y^2 - 5/7*z^2 + x^-1*y^-1*z^-1"),
    ("analyze", "x^2*y + x*y^2 + x^-1*y^-1 + z^3 + w^3 + z^-2*w^-2"),
    ("analyze", "x + y + z + 1/2147483647*x^-1*y^-1*z^-1"),
    ("analyze", "x + 1/2147483647*x^-1"),
    ("analyze", "2/3*x^2 - 5/7*x^-1"),
    ("analyze", "x^5 + x^-3"),
    ("betti", "x + y + 1/2147483647*x^-1*y^-1"),
    ("curve", "123457/3*x^3 - 98765/7*x^-2"),
    ("nondegen", "36*x^2+12*x*y+y^2+6*z^2+8*x^-1*y^-1*z^-1+6*x*z^-1+8*y^-2*z"),
    ("nondegen", "1/2*x - y - 1/3*z + 3/2*x*y*z^-1 + x^-1*y^-1*z^-1"),
    ("volume", "x + y + z + w + x^-1*y^-1*z^-1*w^-1"),
]


def _float_paths(node, path="$"):
    """Paths of the leaves of a parsed JSON document that are not an int, a
    str, a bool or None."""
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in _float_paths(v, f"{path}.{k}")]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in _float_paths(v, f"{path}[{i}]")]
    return [] if node is None or isinstance(node, (int, str)) else [f"{path} = {node!r}"]


def test_no_reported_number_is_a_float():
    suite = [text for text, _ in SUITE] + DEGENERATE
    commands = [(c, t) for t in suite for c in ("analyze", "spectrum", "nondegen", "volume",
                                                "betti", "curve")
                if c != "curve" or t in CURVE_SUITE]
    for command, text in commands + CI_INPUTS:
        code, out, err = call([command, text, "--json"])
        assert code == 0, (command, text, err)
        assert not _float_paths(json.loads(out)), (command, text)
