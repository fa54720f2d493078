import cmath
import json
import math
import types

import numpy as np
import pytest

import charvar
from charvar import catalog, cli
from charvar.catalog import check_admissible
from charvar.cli import main, parse_complex
from charvar.errors import ExcludedParameter

#: the package's public names: adding or removing one is an API change
PUBLIC_NAMES = {
    "COMPONENTS", "CensusReport", "ComponentSample", "Mat2", "Poly",
    "Quadruple", "ROTATION_PAIR", "SCoords", "TraceVector", "det_Sdiamond",
    "enumerate_parabolic", "excellent_quartic", "explore_solve",
    "factors_through_fig8", "has_common_eigenvector", "is_irreducible_pair",
    "is_representation", "lemma31_check", "membership_residual",
    "realize_character", "relators", "s_from_t", "sample_component",
    "solve_quadratic", "special_points", "trace_equation_residuals",
    "trace_vector_of", "typeII_residuals", "typeI_residuals"}


def test_public_names_are_pinned():
    # submodules and dunders aside, dir(charvar) is exactly PUBLIC_NAMES
    names = {n for n in dir(charvar) if not n.startswith("__")
             and not isinstance(getattr(charvar, n), types.ModuleType)}
    assert names == PUBLIC_NAMES


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


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_verify_reports_a_realization_error(fmt, tmp_path):
    # X51 at t = 3000 misses its t123 target in realization: the item
    # carries an "error" and no residuals, and the report is still written
    code, out = run(["verify", "--t", "3000", "--component", "X51",
                     "--format", fmt], tmp_path, f"out.{fmt}")
    assert code == 1
    if fmt == "json":
        payload = json.loads(out.read_text())
        assert payload["pass"] is False
        [item] = payload["blocks"][0]["items"]
        assert item["id"] == "X51" and item["pass"] is False
        assert "misses target" in item["error"]
    else:
        assert out.read_text().splitlines() == [
            "t,id,branch,relator_residual,trace_equation_residual,pass",
            "+3000+0i,X51,0,,,False"]


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


def test_usage_error_exits_2(capsys):
    assert main(["catalog"]) == 2  # --t is required
    assert main(["catalog", "--t", "-x"]) == 2
    assert main(["catalog", "--t", "--format", "csv"]) == 2
    # a negative count is a usage error, not a failed check (--n 0 is valid)
    for args in (["identities", "--n", "-3"], ["verify", "--samples", "-2"],
                 ["explore", "--t", "2+1i", "--attempts", "-4"]):
        capsys.readouterr()
        assert main(args) == 2
        assert "error: argument --" in capsys.readouterr().err
    # --seed exists only where a report reads it; the relator gate is fixed
    for args in (["catalog", "--t", "3", "--tol", "1"],
                 ["verify", "--t", "3", "--tol", "1e-7"],
                 ["parabolic", "--seed", "1"],
                 ["identities", "--n", "5", "--inject-fault", "--tol", "1"],
                 ["explore", "--t", "2+1i", "--tol", "1"]):
        capsys.readouterr()
        assert main(args) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _nan_in_third_type_i(monkeypatch):
    """The third quadruple's type I residuals get a NaN, not in front."""
    kernel, calls = cli.typeI_residuals, []

    def patched(s, normalized=False):
        out = kernel(s, normalized)
        calls.append(s)
        if len(calls) == 3:
            out[5] = complex(math.nan, math.nan)
        return out

    monkeypatch.setattr(cli, "typeI_residuals", patched)


def test_identities_report_a_nan_residual(monkeypatch, tmp_path):
    # max() keeps a NaN only when it comes first, which would leave typeI
    # at the other quadruples' 1e-15 and the check passing
    _nan_in_third_type_i(monkeypatch)
    worst, agreement = cli._identity_battery(0, 5, False)
    assert math.isnan(worst["typeI"]) and agreement == 5
    assert all(v <= 1e-8 for k, v in worst.items() if k != "typeI")
    _nan_in_third_type_i(monkeypatch)
    code, out = run(["identities", "--n", "5"], tmp_path)
    assert code == 1
    payload = json.loads(out.read_text())
    assert payload["pass"] is False
    check = payload["checks"]["typeI"]
    assert math.isnan(check["max_residual"]) and check["pass"] is False


#: the radius out to which verify's checks are tested to pass on every
#: component. Its thinnest margin, the trace-equation gate's, is 10x at
#: |t| = 4 and 1.4x at |t| = 5; at 5.5 the gate fails (ROADMAP item 1)
CHECKED_RADIUS = 4


def circle_t(rng, radius, n):
    """n admissible t on the circle |t| = radius, at uniform angles."""
    ts = []
    while len(ts) < n:
        t = radius * cmath.exp(1j * rng.uniform(0, 2 * cmath.pi))
        try:
            for cid in catalog.COMPONENTS:
                check_admissible(cid, t)
        except ExcludedParameter:
            continue
        ts.append(t)
    return ts


@pytest.mark.parametrize("radius", [3, CHECKED_RADIUS])
def test_verify_passes_out_to_the_checked_radius(radius):
    rng = np.random.default_rng(11)
    for t in circle_t(rng, radius, 40):
        ok, items = cli._verify_at(t, catalog.COMPONENTS)
        assert ok and len(items) == 26, (t, [it for it in items
                                             if not it["pass"]])


@pytest.mark.parametrize("args", [
    ["--t", "3", "--samples", "2"],
    ["--t", "3", "--samples", "3"],  # 3 is the default count
    ["--samples", "3", "--t", "3"],
    ["--t", "-0.7+1.9i", "--samples", "1"],
])
def test_verify_t_and_samples_exclude_each_other(args, capsys):
    # a fixed t draws no random t, so a count beside it would be ignored
    assert main(["verify", *args]) == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_verify_draws_admissible_random_t(tmp_path):
    # without --t, verify draws --samples admissible t (3 by default) from
    # --seed in the square |Re t|, |Im t| <= 2.5
    args = ["verify", "--seed", "100", "--component", "X4"]
    code1, out1 = run(args + ["--samples", "3"], tmp_path, "a.json")
    code2, out2 = run(args + ["--samples", "3"], tmp_path, "b.json")
    code3, out3 = run(args, tmp_path, "c.json")
    assert code1 == code2 == code3 == 0
    assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()
    blocks = json.loads(out1.read_text())["blocks"]
    assert len(blocks) == 3 and all(blk["pass"] for blk in blocks)
    for blk in blocks:
        t = parse_complex(blk["t"])
        check_admissible("X4", t)
        assert abs(t.real) <= 2.5 and abs(t.imag) <= 2.5


def test_out_into_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "p.json"
    assert main(["parabolic", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write report") and not out.exists()
