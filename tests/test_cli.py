import io
import json

import pytest

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

    _, a, _ = call(["analyze", "x^2 + x^-1", "--json", "--seed", "5"])
    _, b, _ = call(["analyze", "x^2 + x^-1", "--json", "--seed", "5"])
    assert strip_timing(a) == strip_timing(b)


def test_text_and_json_report_same_numbers():
    code, text_out, _ = call(["analyze", "x + y + x^-1*y^-1"])
    code2, json_out, _ = call(["analyze", "x + y + x^-1*y^-1", "--json"])
    assert code == code2 == 0
    doc = json.loads(json_out)
    assert f"nvol {doc['polytope']['nvol']}" in text_out
    assert str(doc["betti"]) in text_out


def test_env_seed_override(monkeypatch):
    monkeypatch.setenv("EXPHODGE_SEED", "42")
    _, a, _ = call(["nondegen", "x + y + x^-1*y^-1", "--json"])
    monkeypatch.delenv("EXPHODGE_SEED")
    _, b, _ = call(["nondegen", "x + y + x^-1*y^-1", "--json", "--seed", "42"])
    assert json.loads(a)["nondegeneracy"]["primes"] == \
        json.loads(b)["nondegeneracy"]["primes"]


def test_malformed_env_seed_is_malformed_input(monkeypatch):
    monkeypatch.setenv("EXPHODGE_SEED", "abc")
    code, out, err = call(["volume", "x + y"])
    assert (code, out) == (2, "")
    assert err == "error: EXPHODGE_SEED must be an integer\n"
    # an explicit --seed never reads the variable
    code, _, _ = call(["volume", "x + y", "--seed", "3"])
    assert code == 0


@pytest.mark.parametrize("value", ["0", "-2", "abc"])
def test_primes_flag_rejects_non_positive(value, capsys):
    with pytest.raises(SystemExit) as exc:
        call(["nondegen", "x + y + x^-1*y^-1", "--primes", value])
    assert exc.value.code == 2
    assert "--primes: must be an integer of at least 1" in capsys.readouterr().err


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


CERTIFICATES = [
    # (input, --certify, witness field, certified, certificate): the edge zero
    # (1, -1) of (x + y)^2 is rational; (x^2 - 2y^2)^2 has its edge zeros over
    # GF(7) only, so only the exact basis under --certify proves its claim
    ("x^2+2*x*y+y^2+x^-1*y^-1", False, "QQ", True, "rational witness"),
    ("x^2+2*x*y+y^2+x^-1*y^-1", True, "QQ", True, "rational witness"),
    ("x^4-4*x^2*y^2+4*y^4+x^-1*y^-1", False, "GF(7)", False, None),
    ("x^4-4*x^2*y^2+4*y^4+x^-1*y^-1", True, "GF(7)", True, "exact basis"),
    ("x+y+x^-1*y^-1", False, None, False, None),
    ("x+y+x^-1*y^-1", True, None, True, "exact bases"),
]


@pytest.mark.parametrize("text,certify,field,certified,certificate", CERTIFICATES)
def test_nondegen_json_names_the_certificate(text, certify, field, certified, certificate):
    code, out, _ = call(["nondegen", text, "--json"] + (["--certify"] if certify else []))
    assert code == 0
    doc = json.loads(out)["nondegeneracy"]
    assert (doc.get("witness_field"), doc["certified"], doc["certificate"]) == \
        (field, certified, certificate)
