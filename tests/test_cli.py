import json

import pytest

from charvar.cli import main, parse_complex


@pytest.mark.parametrize("text,value", [
    ("3", 3 + 0j),
    ("3+0i", 3 + 0j),
    ("2-1i", 2 - 1j),
    ("i", 1j),
    ("-i", -1j),
    ("+2.5i", 2.5j),
    ("1e-3+2i", 0.001 + 2j),
    ("-1.5", -1.5 + 0j),
    ("0.5j", 0.5j),
])
def test_parse_complex(text, value):
    assert parse_complex(text) == value


def test_parse_complex_rejects():
    for bad in ("", "xyz", "1+2"):
        with pytest.raises(ValueError):
            parse_complex(bad)


def run(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def test_catalog_command(tmp_path):
    code, out = run(["catalog", "--t", "3+0i"], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == 26
    ids = {s["id"] for s in payload["samples"]}
    assert len(ids) == 10


def test_catalog_single_component(tmp_path):
    code, out = run(["catalog", "--t", "2+0i", "--component", "X3"], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == 2


def test_catalog_excluded_t_exits_2(tmp_path):
    assert main(["catalog", "--t", "1+0i"]) == 2


def test_verify_component(tmp_path):
    code, out = run(["verify", "--t", "3+0i", "--component", "X3"], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True


def test_verify_excluded_t_exits_2(tmp_path):
    assert main(["verify", "--t", "1.7320508+0i", "--component", "X51"]) == 2


def test_parabolic_byte_stable(tmp_path):
    code1, out1 = run(["parabolic"], tmp_path, "a.json")
    code2, out2 = run(["parabolic"], tmp_path, "b.json")
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["total"] == 26
    assert payload["counts"]["X4"] == 4


def test_identities(tmp_path):
    code, out = run(["identities", "--n", "40"], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True
    assert payload["checks"]["typeI"]["pass"] is True


def test_identities_vacuous(tmp_path):
    code, out = run(["identities", "--n", "0"], tmp_path)
    assert code == 0


def test_identities_fault_injection(tmp_path):
    code, out = run(["identities", "--n", "5", "--inject-fault"], tmp_path)
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["checks"]["typeI"]["pass"] is False


def test_explore(tmp_path):
    code, out = run(["explore", "--t", "2+1i", "--attempts", "10",
                     "--seed", "1"], tmp_path)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["converged"] >= 1
    assert payload["unclassified"] == []


@pytest.mark.parametrize("args", [
    ["explore", "--t", "-0.7+1.9i", "--attempts", "10", "--seed", "1"],
    ["catalog", "--t", "-i"],
    ["catalog", "--t", "-0.7+1.9i", "--component", "X3"],
    ["verify", "--t", "-0.7+1.9i", "--component", "X3"],
    ["verify", "--t", "-2.5", "--component", "X3"],
])
def test_negative_t_as_separate_token(args, tmp_path):
    # "--t -0.7+1.9i" must report exactly what "--t=-0.7+1.9i" does
    k = args.index("--t")
    joined = args[:k] + [f"--t={args[k + 1]}"] + args[k + 2:]
    code1, out1 = run(args, tmp_path, "a.json")
    code2, out2 = run(joined, tmp_path, "b.json")
    assert code1 == code2 == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["command"] == args[0]


def test_csv_format(tmp_path):
    out = tmp_path / "out.csv"
    code = main(["catalog", "--t", "3+0i", "--format", "csv",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("id,branch,param")
    assert len(lines) > 26


def test_usage_error_exits_2():
    assert main(["catalog"]) == 2  # --t is required
    assert main(["catalog", "--t", "-x"]) == 2
    assert main(["catalog", "--t", "--format", "csv"]) == 2
