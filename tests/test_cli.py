import json
import math
import re

import numpy as np
import pytest

from bellframes import cli
from bellframes import optimizer as opt
from bellframes import polynomials as bp


def run_cli(args):
    return cli.main(args)


def test_sample_writes_histogram_and_summary(tmp_path):
    out = tmp_path / "run"
    code = run_cli([
        "sample", "--n", "3", "--family", "mermin", "--candidates", "pauli",
        "--samples", "400", "--seed", "5", "--out", str(out), "--threads", "1",
    ])
    assert code == 0
    hist = (out / "hist.csv").read_text()
    lines = hist.strip().split("\n")
    assert lines[0] == "bin_lo,bin_hi,count"
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert sum(counts) == 400
    assert "\r" not in hist

    summary = json.loads((out / "summary.json").read_text())
    assert list(summary.keys()) == [
        "n", "family", "candidates", "samples", "seed", "sign_flips",
        "lhv_violation_prob", "bounds", "mean", "min", "max",
    ]
    assert summary["n"] == 3
    assert summary["family"] == "mermin"
    assert summary["candidates"] == "pauli"
    assert summary["samples"] == 400
    assert summary["sign_flips"] is True
    assert 0.0 <= summary["lhv_violation_prob"] <= 1.0
    assert summary["min"] <= summary["mean"] <= summary["max"]
    labels = [row["label"] for row in summary["bounds"]]
    assert "GME(3)" in labels
    for row in summary["bounds"]:
        assert set(row) == {"label", "value", "prob", "stderr"}


def test_sample_byte_identical_reruns(tmp_path):
    args = ["sample", "--n", "2", "--family", "mk", "--candidates", "pauli",
            "--samples", "200", "--seed", "9"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(out1), "--threads", "1"]) == 0
    assert run_cli(args + ["--out", str(out2), "--threads", "3"]) == 0
    assert (out1 / "hist.csv").read_bytes() == (out2 / "hist.csv").read_bytes()
    assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


def test_sample_budget_overrun_is_config_error(tmp_path, capsys):
    code = run_cli([
        "sample", "--n", "3", "--family", "mermin", "--candidates", "pauli",
        "--samples", "1000", "--seed", "1", "--out", str(tmp_path / "x"),
        "--budget", "100",
    ])
    assert code == 2
    assert "budget" in capsys.readouterr().err


def test_sample_rejects_bad_flags(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sample", "--n", "7", "--family", "mermin",
                 "--candidates", "pauli", "--samples", "10",
                 "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag, value", [
    ("--samples", "0"),
    ("--bin-width", "-1"),
    ("--bin-width", "nan"),
    ("--bin-width", "inf"),
])
def test_sample_bad_config_is_config_error(tmp_path, capsys, flag, value):
    # argparse keeps the last occurrence, so the appended flag overrides.
    assert run_cli([
        "sample", "--n", "3", "--family", "mermin", "--candidates", "pauli",
        "--samples", "50", "--seed", "1", "--out", str(tmp_path / "x"),
        "--threads", "1", flag, value,
    ]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x").exists()


def test_sign_flip_switch_changes_results(tmp_path):
    base = ["sample", "--n", "2", "--family", "mk", "--candidates", "pauli",
            "--samples", "150", "--seed", "3"]
    on, off = tmp_path / "on", tmp_path / "off"
    run_cli(base + ["--out", str(on), "--sign-flips", "on"])
    run_cli(base + ["--out", str(off), "--sign-flips", "off"])
    s_on = json.loads((on / "summary.json").read_text())
    s_off = json.loads((off / "summary.json").read_text())
    assert s_on["sign_flips"] is True
    assert s_off["sign_flips"] is False
    assert s_on["mean"] >= s_off["mean"]


def test_sweep_grid_and_guarantee(tmp_path):
    out = tmp_path / "sweep"
    assert run_cli(["sweep", "--n", "3", "--family", "mermin",
                    "--grid", "64", "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().split("\n")
    assert rows[0] == "theta,primary,swapped,analytic_max,optimizer_max"
    assert len(rows) == 65
    data = np.array([[float(x) for x in row.split(",")] for row in rows[1:]])
    thetas = data[:, 0]
    assert np.allclose(thetas, 2.0 * math.pi * np.arange(64) / 64, atol=1e-12)
    # the best strategy always certifies full genuine multipartite entanglement
    assert np.all(data[:, 3] >= 2.0 ** 0.5 - 1e-12)
    assert np.all(data[:, 4] >= data[:, 3] - 1e-10)


def test_sweep_svetlichny_minimum(tmp_path):
    out = tmp_path / "sweep_s"
    assert run_cli(["sweep", "--n", "3", "--family", "svetlichny",
                    "--grid", "8", "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 8
    analytic_max = np.array([float(r.split(",")[3]) for r in rows])
    assert abs(analytic_max.min() - 1.0) < 1e-10


def test_verify_quick_passes(capsys):
    assert run_cli(["verify", "--quick"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 4
    assert "FAIL" not in out


def test_verify_detects_injected_sign_error(monkeypatch, capsys):
    good = bp.mermin_polynomial

    def broken(n):
        poly = good(n)
        flipped = tuple((mask, -coeff) for mask, coeff in poly.terms)
        return bp.BellPolynomial(poly.n, poly.family, flipped)

    monkeypatch.setattr(cli.polynomials, "mermin_polynomial", broken)
    assert run_cli(["verify", "--quick"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_bounds_output(tmp_path, capsys):
    assert run_cli(["bounds", "--n", "3", "--family", "mk"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 3 and doc["family"] == "mk"
    assert doc["lhv_bound"] == 1.0
    table = {row["label"]: row["value"] for row in doc["thresholds"]}
    assert abs(table["GME(3)"] - math.sqrt(2)) < 1e-15

    assert run_cli(["bounds", "--n", "3", "--family", "svetlichny",
                    "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    written = json.loads((tmp_path / "bounds.json").read_text())
    table = {row["label"]: row["value"] for row in written["thresholds"]}
    assert table["Sep(1)"] == 1.0

    assert run_cli(["bounds", "--n", "4", "--family", "mk"]) == 0
    doc = json.loads(capsys.readouterr().out)
    table = {row["label"]: row["value"] for row in doc["thresholds"]}
    assert table["GME(4)"] == 2.0


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"])
    assert exc.value.code == 2


def test_sample_help_names_every_candidate_kind(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # keep argparse from wrapping inside a name
    with pytest.raises(SystemExit) as exc:
        run_cli(["sample", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for kind in (opt.KIND_PAULI, opt.KIND_TETRAHEDRON, opt.KIND_TETRAHEDRON_Z, "random:K"):
        assert re.search(rf"(?<![\w-]){re.escape(kind)}(?![\w-])", text), kind
