import hashlib
import json
import math
import re

import numpy as np
import pytest

from bellframes import cli
from bellframes import optimizer as opt
from bellframes import polynomials as bp
from bellframes import restricted as rst
from bellframes import su2


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
    # Thread counts below 1 run serially.
    for threads in ("3", "0", "-2"):
        assert run_cli(args + ["--out", str(out2), "--threads", threads]) == 0
        assert (out1 / "hist.csv").read_bytes() == (out2 / "hist.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()


# sha256 of (hist.csv, summary.json) for small seeded runs: a rewrite of the
# scan or the stream must keep every byte. The digests follow the float
# rounding of the numpy/BLAS build.
GOLDEN_SAMPLES = {
    "mermin3-random7": (
        ["--n", "3", "--family", "mermin", "--candidates", "random:7",
         "--samples", "200", "--seed", "101"],
        "175759d148a186cfc595b43aa63a30a2c3cd298f4295cda28e7b62b783b73628",
        "fb02a7a2648ada70aef9ccbf071c0b4b6515b09a8f178604dc69baaef79fd09b"),
    "mk4-tetrahedron": (
        ["--n", "4", "--family", "mk", "--candidates", "tetrahedron",
         "--samples", "300", "--seed", "102"],
        "1a490b646c7de6bfc42d25a8c0bba39612510ba09a6246ade34754bf8d91d4a2",
        "513f162e403b6c80afca0f7eda5b564ca433c6a18797e990af09e10e126ed464"),
    "svetlichny5-random3": (
        ["--n", "5", "--family", "svetlichny", "--candidates", "random:3",
         "--samples", "100", "--seed", "103"],
        "669abe8302fc4a9369d28e11cd8953dd3e6c7937e815af88f28357b72079e56a",
        "6aed2c8717c965aceff5f705a5d33b36ef86fc22fd94fc69776bfd2164f7ce00"),
    "mermin4-random4-no-flips": (
        ["--n", "4", "--family", "mermin", "--candidates", "random:4",
         "--samples", "200", "--seed", "104", "--sign-flips", "off"],
        "480a5db59bd5d88ddac466a18b1f6de9c70000fcfbd254586d86af0b2cf97f16",
        "f8da19babcc879d576b986914f575f4bd0f39a7c8abe5e4a750ba1024f9d0616"),
}


@pytest.mark.parametrize("name", GOLDEN_SAMPLES)
def test_sample_outputs_match_pinned_digests(tmp_path, name):
    args, hist_sha, summary_sha = GOLDEN_SAMPLES[name]
    out = tmp_path / "run"
    assert run_cli(["sample", *args, "--threads", "1", "--out", str(out)]) == 0
    assert hashlib.sha256((out / "hist.csv").read_bytes()).hexdigest() == hist_sha
    assert hashlib.sha256((out / "summary.json").read_bytes()).hexdigest() == summary_sha


def test_sample_over_longer_outputs_writes_a_fresh_runs_bytes(tmp_path, capsys):
    # A 0.001 bin width writes a ten times longer hist.csv than the default;
    # the second run into the same directory must cut both files back.
    args = ["sample", "--n", "3", "--family", "mermin", "--candidates", "pauli",
            "--samples", "50", "--seed", "7", "--threads", "1"]
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert run_cli([*args, "--bin-width", "0.001", "--out", str(reused)]) == 0
    longer = (reused / "hist.csv").stat().st_size
    assert run_cli([*args, "--out", str(reused)]) == 0
    assert run_cli([*args, "--out", str(fresh)]) == 0
    assert (fresh / "hist.csv").stat().st_size < longer
    for name in ("hist.csv", "summary.json"):
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()


def test_sweep_over_a_longer_output_writes_a_fresh_runs_bytes(tmp_path, capsys):
    args = ["sweep", "--n", "3", "--family", "svetlichny"]
    reused, fresh = tmp_path / "reused", tmp_path / "fresh"
    assert run_cli([*args, "--grid", "500", "--out", str(reused)]) == 0
    assert run_cli([*args, "--grid", "7", "--out", str(reused)]) == 0
    assert run_cli([*args, "--grid", "7", "--out", str(fresh)]) == 0
    assert (reused / "sweep.csv").read_bytes() == (fresh / "sweep.csv").read_bytes()


def test_sample_budget_overrun_is_config_error(tmp_path, capsys):
    code = run_cli([
        "sample", "--n", "3", "--family", "mermin", "--candidates", "pauli",
        "--samples", "1000", "--seed", "1", "--out", str(tmp_path / "x"),
        "--budget", "100",
    ])
    assert code == 2
    assert "budget" in capsys.readouterr().err


def test_sample_out_of_memory_is_config_error(tmp_path, capsys, monkeypatch):
    # A raised --budget can admit a scan step larger than memory; NumPy's
    # allocation failure is raised here rather than provoked.
    def run_experiment(config, threads):
        raise MemoryError("Unable to allocate 113. GiB for an array")

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    assert run_cli([
        "sample", "--n", "5", "--family", "mermin", "--candidates", "random:40",
        "--samples", "1", "--budget", str(10**20), "--threads", "1",
        "--out", str(tmp_path / "x"),
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Unable to allocate 113. GiB for an array\n"
    assert not (tmp_path / "x").exists()


def test_sweep_out_of_memory_is_config_error(tmp_path, capsys, monkeypatch):
    # The sweep's scan chunks fail as sample's run does: exit 2, no traceback.
    def score_frames(*args):
        raise MemoryError("Unable to allocate 2.00 GiB for an array")

    monkeypatch.setattr(cli, "score_frames", score_frames)
    assert run_cli(["sweep", "--n", "3", "--family", "mk", "--grid", "64",
                    "--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Unable to allocate 2.00 GiB for an array\n"
    assert not (tmp_path / "x").exists()


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
    ("--bin-width", "1e-6"),  # 2e6 bins, more than montecarlo.MAX_BINS
    ("--bin-width", "1e-309"),  # the bin count overflows to inf
    # Would draw random:7's samples, but summary.json would echo this spelling.
    ("--candidates", "random: 7"),
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


@pytest.mark.parametrize("grid", [0, cli.MAX_GRID + 1])
def test_sweep_grid_out_of_range_is_config_error(tmp_path, capsys, grid):
    assert run_cli(["sweep", "--n", str(bp.MAX_PARTIES), "--family", "mk",
                    "--grid", str(grid), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith("error: grid must be in [1, ")
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


def sweep_column(tmp_path, family, n, grid):
    """The ``optimizer_max`` column of a ``bellframes sweep`` run."""
    out = tmp_path / f"sweep-{family}-{n}-{grid}"
    assert run_cli(["sweep", "--n", str(n), "--family", family,
                    "--grid", str(grid), "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    return np.array([float(row.split(",")[4]) for row in rows])


def per_point_sweep(family, n, grid):
    """``optimizer_max`` scored one grid point at a time by ``max_bell_value``."""
    poly = bp.make_polynomial(family, n)
    candidates = opt.inplane_candidate_set([0.0, math.pi / 2.0])
    rest = [su2.Rotation.identity()] * (n - 1)
    return np.array([
        opt.max_bell_value(poly, [rst.z_rotation(2.0 * math.pi * k / grid)] + rest,
                           candidates).bell_value
        for k in range(grid)
    ])


@pytest.mark.parametrize("bounded", [False, True])
@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("family", bp.FAMILIES)
def test_batched_sweep_equals_per_point_scan(tmp_path, monkeypatch, family, n, bounded):
    grid = 22
    if bounded:
        # A bound of five frames' party-1 option: chunks of 5, 5, 5, 5 and 2
        # frames, the last scanned two party-1 options per step.
        monkeypatch.setattr(opt, "_SCAN_ENTRIES", 5 * opt.assignment_count(2, n - 2) * 2 * 2)
    chunks = []
    scan = opt.bell_values_over_assignments
    monkeypatch.setattr(opt, "bell_values_over_assignments",
                        lambda ctensor, W, Z, last:
                        chunks.append(W.shape[0]) or scan(ctensor, W, Z, last))
    swept = sweep_column(tmp_path, family, n, grid)
    assert sum(chunks) == grid
    if bounded:
        assert chunks == [5, 5, 5, 5, 2]
    assert swept.tobytes() == per_point_sweep(family, n, grid).tobytes()


def test_sweep_conjugates_through_the_frame_kernel(tmp_path, monkeypatch):
    # The sweep hands score_frames quaternions; the kernel's own module-level
    # rotate_directions (the name perfbench/tracing.py wraps) conjugates them,
    # option-major: (1, B, n, 4) quaternions against (m, B, n, 3) directions.
    calls = []
    rotate = opt.rotate_directions
    monkeypatch.setattr(opt, "rotate_directions", lambda quats, base: (
        calls.append((quats.shape, base.shape)) or rotate(quats, base)))
    sweep_column(tmp_path, "svetlichny", 3, 10)
    assert calls == [((1, 10, 3, 4), (2, 10, 3, 3))]


def test_sweep_takes_each_strategys_closed_form_in_one_call(tmp_path, monkeypatch):
    # One array call gives both strategies, through the module-level name that
    # perfbench/tracing.py wraps.
    calls = []
    value = rst.strategy_value
    monkeypatch.setattr(rst, "strategy_value", lambda family, n, thetas: (
        calls.append(np.shape(thetas)) or value(family, n, thetas)))
    sweep_column(tmp_path, "svetlichny", 3, 10)
    assert calls == [(10,)]


# sha256 of sweep.csv, pinned from the per-point scan that preceded the
# batched sweep; the same float-rounding caveat as the sample digests holds.
GOLDEN_SWEEPS = {
    ("svetlichny", 3, 1000): "881ece48fb7d4d3adb62142ce23088106786fcc3a1aa3ea598a2c4c1b8e14036",
    ("mermin", 5, 200): "515e57afc2f6be3b8984b0057a5a981d26f47738374524e40c5885825659b54e",
    ("mk", 8, 64): "73e1abd759b1b5fd527f0c69a07929daad731a7e61b04a65cf1b4797ed22dd10",
}


@pytest.mark.parametrize("family, n, grid", GOLDEN_SWEEPS)
def test_sweep_output_matches_pinned_digest(tmp_path, family, n, grid):
    out = tmp_path / "sweep"
    assert run_cli(["sweep", "--n", str(n), "--family", family,
                    "--grid", str(grid), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_SWEEPS[family, n, grid]


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


# sha256 of `bounds` stdout for every family and n = 2..8; bounds.json must
# hold the same bytes.
GOLDEN_BOUNDS = {
    ("mermin", 2): "bd5d30a49709326f43fd948e269518f82b75fd18aea8ca751e3808918190f1f5",
    ("mermin", 3): "e076d68c5d7aaf7072198d7084ee046ae33ef4f855b76c9cefec44f3bfac116d",
    ("mermin", 4): "d238e9f86d1cc562aa01035730de98c029eeebe60c692cf656ddf54749d2f372",
    ("mermin", 5): "93ca6692420047f47fcaa93db8cd36c31a7a9617307546a358627dd75162caa7",
    ("mermin", 6): "f552d470f327b3e43d8dc1cdbab1182c0d98f724e75e8a99440118dbbbd7fc15",
    ("mermin", 7): "8d5709f276aff545982178c08af7de271df9d8d79a1e627aeda4b0d40dbb922b",
    ("mermin", 8): "ebddf1f29203137948df2dd204a0c634c23b5b7e3d77d33c57d277f53a59a827",
    ("mk", 2): "9bf38c3dbe3d2b3a817d5cda10c7f4b53a5c699bf4b8b7c6c8b5254f3766e72a",
    ("mk", 3): "d54d4ddb09acb08fdf7ad3f56b31b1a352e7d2f4110c0fef6c56792652fcc435",
    ("mk", 4): "c14ac6fba1431798623edde975bd240b7ba070cf9ba7e1582dc0a72d72453386",
    ("mk", 5): "f653eccccaf6ec187ab2475aaff10372ba2672435ba996757a27fb9c6eee7ca0",
    ("mk", 6): "25d8c305e97dec856112a8ec625a50390dfc6f37d847a93a7c695287188ba70f",
    ("mk", 7): "02fd5bb42bf9f7a1068ba0c462139f52ddae1e67686dfb31eb057da66bd50783",
    ("mk", 8): "4f5ebb0dd1ce15993ed2330eb7eb596dc9abe9c3aa1d2e2aa2618a1cf2b45212",
    ("svetlichny", 2): "885dcd66a240bfcd695e6075f09a9a7802e687be8552a76ce8bfbd0f5a8b3aa0",
    ("svetlichny", 3): "5622aabfddf97ce1e17028ce263ebad636a82bf11abe1ced01c44a9ff6938e45",
    ("svetlichny", 4): "4fe7787a305e837fa87000f45c88a2c000d905b7b41ad87392b7fdbbe4de9b64",
    ("svetlichny", 5): "01f32f03fb36579113792c1abce19d0225449c2fe92d1ec27e5289a02e56cfe6",
    ("svetlichny", 6): "5e1fd11bb64631ff4fe4bb14509818bbcbd81845cf2e43b53202fa4c16047702",
    ("svetlichny", 7): "b3ce4f32ff2bbe513bbece87a5e25797497737574f7fe5e0d34a6d4d0a571412",
    ("svetlichny", 8): "8afe2de46bb9268da5865dac42ffde4564bed68c19336de58fa2b8c7e244fc3c",
}


@pytest.mark.parametrize("family, n", GOLDEN_BOUNDS)
def test_bounds_output_matches_pinned_digest(tmp_path, capfd, family, n):
    # capfd, not capsys: the bytes as written to the stdout file descriptor.
    assert run_cli(["bounds", "--n", str(n), "--family", family, "--out", str(tmp_path)]) == 0
    stdout = capfd.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == GOLDEN_BOUNDS[family, n]
    assert (tmp_path / "bounds.json").read_bytes() == stdout


@pytest.mark.parametrize("command", [
    ["sample", "--n", "3", "--family", "mermin", "--candidates", "pauli",
     "--samples", "10", "--threads", "1"],
    ["sweep", "--n", "3", "--family", "mermin", "--grid", "8"],
    ["bounds", "--n", "3", "--family", "mermin"],
], ids=["sample", "sweep", "bounds"])
@pytest.mark.parametrize("inside", [False, True], ids=["at-file", "below-file"])
def test_out_at_an_existing_file_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                       command, inside):
    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: calls.append(a))
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    out = blocker / "run" if inside else blocker
    with pytest.raises(SystemExit) as exc:
        run_cli([*command, "--out", str(out)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: argument --out" in captured.err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert blocker.read_text() == "keep"


def test_out_creates_missing_parents(tmp_path, capsys):
    out = tmp_path / "a" / "b"
    assert run_cli(["bounds", "--n", "2", "--family", "mk", "--out", str(out)]) == 0
    assert (out / "bounds.json").read_text() == capsys.readouterr().out


@pytest.mark.parametrize("argv", [["frobnicate"], ["verify"]], ids=["frobnicate", "verify"])
def test_usage_error_exit_code(argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2


def test_sample_help_names_every_candidate_kind(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # keep argparse from wrapping inside a name
    with pytest.raises(SystemExit) as exc:
        run_cli(["sample", "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for kind in [*opt.FIXED_KINDS, "random:K"]:
        assert re.search(rf"(?<![\w-]){re.escape(kind)}(?![\w-])", text), kind
