import copy
import json

import pytest

from lyapcert.cli import main as cli_main
from lyapcert.config import RunConfig, config_digest
from lyapcert.errors import ConfigError

from conftest import CONFIG_DIR

MINIMAL = {
    "system": {
        "dim": 1,
        "mode": "discrete",
        "regions": [{"guards": [], "field": ["0.5*x1"]}],
    },
    "candidate": {"P": [[1.0]], "rho_c": 0.9, "M": 1, "M_max": 1},
    "search": {
        "S": {"lo": [-1.0], "hi": [1.0]},
        "delta_min": 0.05,
        "N1": {"lo": [-0.5], "hi": [0.5]},
        "boundary_spacing": 0.1,
    },
    "run": {"bound_method": "split", "workers": 1},
}


def test_config_roundtrip(tmp_path):
    cfg = RunConfig.from_dict(copy.deepcopy(MINIMAL))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg.to_dict()))
    cfg2 = RunConfig.from_file(path)
    assert cfg2.to_dict() == cfg.to_dict()
    assert cfg2.digest() == cfg.digest()


def test_digest_sensitive_to_values():
    a = config_digest(MINIMAL)
    other = copy.deepcopy(MINIMAL)
    other["search"]["delta_min"] = 0.01
    assert config_digest(other) != a


def test_degenerate_search_set_rejected():
    bad = copy.deepcopy(MINIMAL)
    bad["search"]["S"] = {"lo": [0.5], "hi": [0.5]}
    with pytest.raises(ConfigError):
        RunConfig.from_dict(bad)


def test_abs_banned_in_dynamics():
    bad = copy.deepcopy(MINIMAL)
    bad["system"]["regions"][0]["field"] = ["abs(x1)"]
    with pytest.raises(ConfigError):
        RunConfig.from_dict(bad)


def test_abs_allowed_in_guards():
    ok = copy.deepcopy(MINIMAL)
    ok["system"]["regions"] = [
        {"guards": ["abs(x1) >= 0"], "field": ["0.5*x1"]},
    ]
    RunConfig.from_dict(ok)


def test_bad_candidate_rejected():
    bad = copy.deepcopy(MINIMAL)
    bad["candidate"]["P"] = [[-1.0]]
    with pytest.raises(ConfigError):
        RunConfig.from_dict(bad)
    bad2 = copy.deepcopy(MINIMAL)
    bad2["candidate"]["rho_c"] = 1.5
    with pytest.raises(ConfigError):
        RunConfig.from_dict(bad2)


def test_guard_parsing_requires_comparison():
    bad = copy.deepcopy(MINIMAL)
    bad["system"]["regions"][0]["guards"] = ["x1 + 1"]
    with pytest.raises(ConfigError):
        RunConfig.from_dict(bad)


def test_bundled_configs_validate():
    for name in (
        "example_2d.json",
        "example_piecewise.json",
        "example_3d.json",
        "example_powertrain.json",
    ):
        RunConfig.from_file(CONFIG_DIR / name)


def test_cli_verify_dt_and_export(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(MINIMAL))
    report_path = tmp_path / "report.json"
    code = cli_main(["verify-dt", str(cfg_path), "--out", str(report_path)])
    assert code == 0  # contraction with a local certificate: full verdict
    doc = json.loads(report_path.read_text())
    assert doc["version"] == "1"
    assert doc["M_final"] == 1
    assert doc["verdict"] == "kl-stable-on-W"
    assert doc["good"] and "c" in doc["good"][0] and "gamma" in doc["good"][0]
    assert {"Lbar1", "Lbar2", "Lbar"} <= set(doc["level"])
    assert doc["local"]["level_L"] > 0
    assert {"coverage", "construct_A", "local", "level", "audit", "total"} <= set(doc["timings"])

    out_dir = tmp_path / "export"
    code = cli_main(["export", str(report_path), "--format", "csv", "--out", str(out_dir)])
    assert code == 0
    boxes = (out_dir / "boxes.csv").read_text().splitlines()
    assert boxes[0].split(",")[:3] == ["c1", "d1", "d2"]
    assert len(boxes) > 1


def test_cli_levelset_subcommand(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(MINIMAL))
    report_path = tmp_path / "report.json"
    assert cli_main(["verify-dt", str(cfg_path), "--out", str(report_path)]) == 0
    assert cli_main(["levelset", str(cfg_path), "--with", str(report_path)]) == 0
    # reports written before the coverage and audit phases were timed still load
    doc = json.loads(report_path.read_text())
    doc["timings"] = {k: doc["timings"][k] for k in ("construct_A", "local", "level", "total")}
    report_path.write_text(json.dumps(doc))
    assert cli_main(["levelset", str(cfg_path), "--with", str(report_path)]) == 0
    assert cli_main(["export", str(report_path), "--out", str(tmp_path / "export")]) == 0


def test_cli_error_paths(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli_main(["verify-dt", str(missing)]) == 1
    bad_cfg = tmp_path / "bad.json"
    bad = copy.deepcopy(MINIMAL)
    bad["search"]["delta_min"] = -1
    bad_cfg.write_text(json.dumps(bad))
    assert cli_main(["verify-dt", str(bad_cfg)]) == 1

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(MINIMAL))
    report_path = tmp_path / "report.json"
    assert cli_main(["verify-dt", str(cfg_path), "--out", str(report_path)]) == 0
    good = json.loads(report_path.read_text())
    first = good["good"][0]
    broken = {
        "no_horizon": {k: v for k, v in good.items() if k != "M_final"},
        "a_list": [1, 2],
        "no_c": {**good, "good": [{k: v for k, v in first.items() if k != "c"}]},
        "bad_horizon": {**good, "M_final": "x"},
        "short_delta": {**good, "good": [{**first, "delta": [0.1]}]},
        "bare_local": {**good, "local": {"verified": True}},
        "indefinite_local": {**good, "local": {**good["local"], "P_L": [[-1.0]]}},
        "text_level": {**good, "level": {**good["level"], "Lbar": "x"}},
        "infinite_local": {**good, "local": {**good["local"], "P_L": [[1e309]]}},
    }
    for name, doc in broken.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    (
        no_horizon,
        a_list,
        no_c,
        bad_horizon,
        short_delta,
        bare_local,
        indefinite_local,
        text_level,
        infinite_local,
    ) = (str(tmp_path / f"{name}.json") for name in broken)
    ct_doc = copy.deepcopy(MINIMAL)
    ct_doc["system"].update(mode="continuous", euler_h=0.1, regions=[{"field": ["-x1"]}])
    ct_cfg = tmp_path / "ct.json"
    ct_cfg.write_text(json.dumps(ct_doc))
    capsys.readouterr()
    for args in (
        ["levelset", str(cfg_path), "--with", str(report_path), "--spacing", "0"],
        ["levelset", str(cfg_path), "--with", str(report_path), "--spacing=-0.1"],
        ["levelset", str(cfg_path), "--with", str(report_path), "--spacing", "nan"],
        ["levelset", str(cfg_path), "--with", no_horizon],
        ["levelset", str(cfg_path), "--with", a_list],
        ["levelset", str(cfg_path), "--with", no_c],
        ["levelset", str(cfg_path), "--with", bad_horizon],
        ["levelset", str(cfg_path), "--with", short_delta],
        ["levelset", str(cfg_path), "--with", bare_local],
        ["levelset", str(cfg_path), "--with", indefinite_local],
        ["levelset", str(cfg_path), "--with", infinite_local],
        ["export", text_level, "--out", str(tmp_path / "export")],
        ["verify-ct", str(ct_cfg), "--with", a_list, "--out", str(tmp_path / "ct_r.json")],
        ["export", a_list, "--out", str(tmp_path / "export")],
        ["export", no_c, "--out", str(tmp_path / "export")],
    ):
        assert cli_main(args) == 1, args
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err, args


MALFORMED = {
    "dim-not-a-number": ("system", "dim", "two"),
    "boundary-spacing-zero": ("search", "boundary_spacing", 0),
    "boundary-spacing-negative": ("search", "boundary_spacing", -0.1),
    "boundary-spacing-nan": ("search", "boundary_spacing", float("nan")),
    "rho-local-above-one": ("search", "rho_local", 2),
    "local-delta-min-zero": ("search", "local_delta_min", 0),
    "seed-split-zero": ("run", "seed_split", [0]),
    "seed-split-wrong-length": ("run", "seed_split", [2, 2]),
    "N1-without-origin": ("search", "N1", {"lo": [0.1], "hi": [0.5]}),
    "P-local-wrong-shape": ("search", "P_local", [[1.0, 0.0]]),
    "P-local-indefinite": ("search", "P_local", [[-1.0]]),
    "P-wrong-shape": ("candidate", "P", [[1.0, 0.0], [0.0, 1.0]]),
    "P-not-finite": ("candidate", "P", [[1e309]]),
    "P-local-not-finite": ("search", "P_local", [[1e309]]),
    "S-not-finite": ("search", "S", {"lo": [-1.0], "hi": [1e309]}),
    "N1-not-finite": ("search", "N1", {"lo": [-0.5], "hi": [1e309]}),
    "euler-h-not-finite": ("system", "euler_h", 1e309),
    "equilibrium-not-finite": ("system", "equilibrium", [1e309]),
    "field-constant-not-finite": ("system", "regions", [{"guards": [], "field": ["1e309*x1"]}]),
    "guard-constant-not-finite": ("system", "regions", [{"guards": ["x1 < 1e309"], "field": ["x1"]}]),
}

# what the error line of a malformed config names
MALFORMED_NAMES = {
    "S-not-finite": "bad box spec for S:",
    "N1-not-finite": "bad box spec for N1:",
    "euler-h-not-finite": "euler_h",
    "equilibrium-not-finite": "equilibrium",
    "field-constant-not-finite": "bad field expression '1e309*x1'",
    "guard-constant-not-finite": "bad guard 'x1 < 1e309'",
}


def _malformed(kind):
    doc = copy.deepcopy(MINIMAL)
    if kind == "no-regions":
        del doc["system"]["regions"]
    elif kind == "not-an-object":
        doc = [doc]
    else:
        section, key, value = MALFORMED[kind]
        doc[section][key] = value
    return doc


@pytest.mark.parametrize("kind", [*MALFORMED, "no-regions", "not-an-object"])
def test_malformed_config_is_a_config_error(tmp_path, capsys, kind):
    doc = _malformed(kind)
    with pytest.raises(ConfigError):
        RunConfig.from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli_main(["verify-dt", str(path), "--out", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert MALFORMED_NAMES.get(kind, "") in err


def test_workers_accepted_without_effect(tmp_path, capsys):
    def ledger(path):
        doc = json.loads(path.read_text())
        return doc["good"], doc["wrong"], doc["level"], doc["verdict"]

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(MINIMAL))
    base = tmp_path / "w1.json"
    assert cli_main(["verify-dt", str(cfg_path), "--out", str(base)]) == 0

    four = copy.deepcopy(MINIMAL)
    four["run"]["workers"] = 4
    assert RunConfig.from_dict(four).workers == 4
    four_path = tmp_path / "cfg4.json"
    four_path.write_text(json.dumps(four))
    for args in ([str(four_path)], [str(cfg_path), "--workers", "4"]):
        out = tmp_path / "w4.json"
        assert cli_main(["verify-dt", *args, "--out", str(out)]) == 0
        assert ledger(out) == ledger(base)

    zero = copy.deepcopy(MINIMAL)
    zero["run"]["workers"] = 0
    with pytest.raises(ConfigError):
        RunConfig.from_dict(zero)
    capsys.readouterr()
    assert cli_main(["verify-dt", str(cfg_path), "--workers", "0", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bound_options_accepted_without_effect(tmp_path, capsys):
    def ledger(path):
        doc = json.loads(path.read_text())
        return doc["good"], doc["wrong"], doc["level"], doc["verdict"]

    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(MINIMAL))
    base = tmp_path / "split.json"
    assert cli_main(["verify-dt", str(cfg_path), "--out", str(base)]) == 0

    runs = [[str(cfg_path), "--bound-method", "best"]]
    for key, value in (("bound_method", "combined"), ("bound_method", "best"), ("norm_pairing", "l2")):
        doc = copy.deepcopy(MINIMAL)
        doc["run"][key] = value
        path = tmp_path / f"{value}.json"
        path.write_text(json.dumps(doc))
        runs.append([str(path)])
    out = tmp_path / "other.json"
    for args in runs:
        assert cli_main(["verify-dt", *args, "--out", str(out)]) == 0
        assert ledger(out) == ledger(base)

    for key, value in (("bound_method", "bogus"), ("norm_pairing", "l1")):
        doc = copy.deepcopy(MINIMAL)
        doc["run"][key] = value
        with pytest.raises(ConfigError):
            RunConfig.from_dict(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli_main(["verify-dt", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")


def test_cli_overrides(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(MINIMAL))
    report_path = tmp_path / "r.json"
    code = cli_main(
        [
            "verify-dt",
            str(cfg_path),
            "--out",
            str(report_path),
            "--delta-min",
            "0.1",
            "--bound-method",
            "best",
        ]
    )
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["config"]["search"]["delta_min"] == 0.1
    assert doc["config"]["run"]["bound_method"] == "best"


def test_cli_verify_ct_mismatched_report(tmp_path):
    ct_cfg = {
        "system": {
            "dim": 1,
            "mode": "continuous",
            "euler_h": 0.1,
            "regions": [{"guards": [], "field": ["-x1"]}],
        },
        "candidate": {"P": [[1.0]], "rho_c": 0.9, "M": 1, "M_max": 1},
        "search": {
            "S": {"lo": [-1.0], "hi": [1.0]},
            "delta_min": 0.05,
            "N1": {"lo": [-0.5], "hi": [0.5]},
        },
        "run": {},
    }
    cfg_path = tmp_path / "ct.json"
    cfg_path.write_text(json.dumps(ct_cfg))
    rep_path = tmp_path / "r.json"
    assert cli_main(["verify-dt", str(cfg_path), "--out", str(rep_path)]) == 0
    # continuous validation against its own discrete report succeeds
    out_path = tmp_path / "rc.json"
    code = cli_main(
        ["verify-ct", str(cfg_path), "--with", str(rep_path), "--out", str(out_path)]
    )
    assert code == 0
    timings = json.loads(out_path.read_text())["timings"]
    assert {"coverage", "construct_Ac", "level", "audit", "total"} <= set(timings)
    # a report from a different config is refused
    other = copy.deepcopy(ct_cfg)
    other["search"]["delta_min"] = 0.02
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    assert cli_main(["verify-ct", str(other_path), "--with", str(rep_path)]) == 1


def test_export_empty_report_headers_only(tmp_path):
    import json as _json

    from lyapcert.pipeline import export_plot_data

    empty = {"version": "1", "good": [], "wrong": [], "config": None, "level": None}
    paths = export_plot_data(empty, str(tmp_path / "out"), fmt="csv")
    rows = open(paths[0]).read().splitlines()
    assert len(rows) == 1  # headers only


def test_longest_edge_splitting(tmp_path):
    import json as _json

    from lyapcert.pipeline import run_verify_dt

    doc = copy.deepcopy(MINIMAL)
    doc["system"]["dim"] = 2
    doc["system"]["regions"] = [{"guards": [], "field": ["0.5*x1", "0.5*x2"]}]
    doc["candidate"]["P"] = [[1.0, 0.0], [0.0, 1.0]]
    # anisotropic search set: longest-edge splitting works on x2 first
    doc["search"]["S"] = {"lo": [-0.5, -2.0], "hi": [0.5, 2.0]}
    doc["search"]["N1"] = {"lo": [-0.3, -0.3], "hi": [0.3, 0.3]}
    doc["search"]["delta_min"] = 0.1
    doc["run"]["split_longest_only"] = True
    cfg = RunConfig.from_dict(doc)
    rep = run_verify_dt(cfg)
    assert rep.counts["good"] > 0
    # tiling is preserved under single-axis splits
    total = sum(r["delta"][0] * 2 * r["delta"][2] * 2 for r in rep.to_dict()["good"])
    total += sum(r["delta"][0] * 2 * r["delta"][2] * 2 for r in rep.to_dict()["wrong"])
    assert total == pytest.approx(cfg.S.volume, rel=1e-9)


def test_export_trajectories(tmp_path):
    from lyapcert.pipeline import export_plot_data, run_verify_dt

    doc = copy.deepcopy(MINIMAL)
    doc["run"]["trajectory_seeds"] = [[0.8], [-0.6]]
    cfg = RunConfig.from_dict(doc)
    rep = run_verify_dt(cfg)
    paths = export_plot_data(rep.to_dict(), str(tmp_path / "out"), fmt="csv")
    names = {p.split("/")[-1] for p in paths}
    assert "trajectories.csv" in names
    rows = open([p for p in paths if p.endswith("trajectories.csv")][0]).read().splitlines()
    assert rows[0] == "seed,step,x1"
    assert len(rows) > 10


# A: 0.5*x1 + x1^4 - x1^4 over S = +-1e80, where x1^4 overflows and
# inf - inf makes the enclosure of a box NaN
CONFIG_A = {
    "system": {
        "dim": 1,
        "mode": "discrete",
        "regions": [{"guards": [], "field": ["0.5*x1 + x1*x1*x1*x1 - x1*x1*x1*x1"]}],
    },
    "candidate": {"P": [[1.0]], "rho_c": 0.9, "M": 1, "M_max": 1},
    "search": {
        "S": {"lo": [-1e80], "hi": [1e80]},
        "delta_min": 2e79,
        "N1": {"lo": [-0.5], "hi": [0.5]},
        "boundary_spacing": 1e79,
    },
}
# B: a guard x1^400 >= -1, whose float power overflows at the coverage samples
CONFIG_B = copy.deepcopy(CONFIG_A)
CONFIG_B["system"]["regions"] = [{"guards": ["x1^400 >= -1"], "field": ["0.5*x1"]}]
CONFIG_B["search"].update(
    S={"lo": [-10.0], "hi": [10.0]}, delta_min=0.5, boundary_spacing=0.5
)


def _verify_dt(tmp_path, doc):
    """`lyapcert verify-dt` on the config in a process of its own."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    cfg, out = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(doc))
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    cmd = [sys.executable, "-m", "lyapcert.cli", "verify-dt", str(cfg), "--out", str(out)]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=300)
    return done, out


def test_nan_enclosures_are_domain_errors_in_the_ledger(tmp_path):
    done, out = _verify_dt(tmp_path, CONFIG_A)
    assert done.returncode in (0, 2), done.stderr
    assert "Traceback" not in done.stdout + done.stderr
    assert any(line.startswith("verdict:") for line in done.stdout.splitlines())
    flags = [rec["flag"] for rec in json.loads(out.read_text())["wrong"]]
    assert flags and set(flags) == {"domain-error"}


def test_overflowing_guard_is_an_error_line(tmp_path):
    done, _ = _verify_dt(tmp_path, CONFIG_B)
    assert done.returncode == 1
    assert "Traceback" not in done.stdout + done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), done.stderr
