import json
import os
import re
import subprocess
import sys

import pytest

import dsumm
from dsumm.cli import main


def write_config(tmp_path, text, name="job.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


INVERSE_IMPULSE = """\
[sequence]
corpus = impulse

[kernel]
name = f

[params]
r = 2
s = 1
t = 3
u = 1

[operation]
op = transform
"""

ALTCOL_VERDICT = """\
[sequence]
corpus = alt-col

[operation]
op = verdict
space = Cf
"""

SUP_NORM = """\
[sequence]
corpus = boos

[operation]
op = norm
norm = sup
"""


def test_transform_prints_17_digit_corner(tmp_path, capsys):
    cfg = write_config(tmp_path, INVERSE_IMPULSE)
    assert main(["transform", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "transform" in out
    # f applied to the impulse puts 1/(r t) at the origin
    assert "0.16666666666666666" in out


def test_derived_transform_past_the_dense_block_limit(tmp_path, capsys):
    # g over b at side 80 reads rows of b; a row is never refused as a 4-D block
    body = INVERSE_IMPULSE.replace("name = f", "name = g\nbase = b") + "\n[schedule]\nsides = 80\n"
    cfg = write_config(tmp_path, body)
    assert main(["transform", "--config", cfg]) == 0
    assert "transform" in capsys.readouterr().out


def test_json_document_shape(tmp_path, capsys):
    cfg = write_config(tmp_path, ALTCOL_VERDICT)
    assert main(["verdict", "--config", cfg, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"config", "version", "results", "timing"}
    assert doc["timing"] is None
    assert doc["version"] == dsumm.__version__
    assert doc["config"]["sequence"] == {"corpus": "alt-col"}
    res = doc["results"]
    assert res["decision"] == "converges"
    assert res["candidate_limit"] == 0.0
    assert [r["M"] for r in res["residual_trace"]] == [8, 16, 32, 64, 128]
    assert res["residual_trace"][0]["value"] == pytest.approx(1 / 3)


def test_timing_flag_fills_the_slot(tmp_path, capsys):
    cfg = write_config(tmp_path, SUP_NORM)
    assert main(["norm", "--config", cfg, "--timing", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc["timing"], float) and doc["timing"] >= 0.0
    assert doc["results"]["value"] == 128.0


def test_csv_layout(tmp_path, capsys):
    cfg = write_config(tmp_path, SUP_NORM)
    assert main(["norm", "--config", cfg, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "record,field1,field2,field3"
    assert "meta,value,128," in lines


def test_format_can_come_from_the_config(tmp_path, capsys):
    cfg = write_config(tmp_path, SUP_NORM + "\n[output]\nformat = json\n")
    assert main(["norm", "--config", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"]["op"] == "norm"


def test_unknown_config_format_fails(tmp_path, capsys):
    cfg = write_config(tmp_path, SUP_NORM + "\n[output]\nformat = yaml\n")
    assert main(["norm", "--config", cfg]) == 2
    assert "error:" in capsys.readouterr().err


def test_stage_cap_interacts_with_schedules(tmp_path, capsys):
    verdict_cfg = write_config(tmp_path, ALTCOL_VERDICT, "verdict.ini")
    # a single stage is fine for a norm but not for a trend verdict
    assert main(["verdict", "--config", verdict_cfg, "--stage-max", "8"]) == 2
    assert "three stages" in capsys.readouterr().err
    norm_cfg = write_config(tmp_path, SUP_NORM, "norm.ini")
    assert main(["norm", "--config", norm_cfg, "--stage-max", "8"]) == 0
    out = capsys.readouterr().out
    assert "8" in out
    assert main(["norm", "--config", norm_cfg, "--stage-max", "4"]) == 2
    assert "no usable stage sides" in capsys.readouterr().err


def test_op_mismatch_is_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, ALTCOL_VERDICT)
    assert main(["norm", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "op = verdict" in err and "norm" in err


def test_missing_config_file(tmp_path, capsys):
    assert main(["norm", "--config", str(tmp_path / "absent.ini")]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_errors_carry_position(tmp_path, capsys):
    cfg = write_config(tmp_path, "[sequence]\ncorpus = e\nbogus = 1\n")
    assert main(["norm", "--config", cfg]) == 2
    assert "line 3" in capsys.readouterr().err


def test_expr_errors_are_reported(tmp_path, capsys):
    cfg = write_config(tmp_path, "[sequence]\nexpr = q+1\n\n[operation]\nop = norm\n")
    assert main(["norm", "--config", cfg]) == 2
    assert "unknown name" in capsys.readouterr().err


def test_parametric_corpus_requires_params(tmp_path, capsys):
    cfg = write_config(
        tmp_path, "[sequence]\ncorpus = k-over-rt\n\n[operation]\nop = norm\n"
    )
    assert main(["norm", "--config", cfg]) == 2
    assert "missing required key params.r" in capsys.readouterr().err


def test_check_subcommand_reports_conditions(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "[kernel]\nname = cesaro\n\n[operation]\nop = check\nclass = cbp-regular\n",
    )
    assert main(["check", "--config", cfg, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    res = doc["results"]
    assert res["overall"] == "pass"
    ids = [c["condition_id"] for c in res["conditions"]]
    assert ids == [
        "row-abs-sup", "entry-limits", "row-sum-limit", "column-strips", "row-strips",
    ]
    trend = res["conditions"][0]["trend"]
    assert [t["stage"] for t in trend] == [8, 16, 32]


@pytest.mark.parametrize("name, base", [("e", "e"), ("e", "g"), ("g", "e"), ("g", "g")])
def test_derived_kernel_base_must_be_plain(tmp_path, capsys, name, base):
    cfg = write_config(
        tmp_path,
        f"[kernel]\nname = {name}\nbase = {base}\n\n[params]\nr = 2\ns = 1\nt = 3\nu = 1\n\n"
        "[operation]\nop = check\nclass = cbp-regular\n",
    )
    assert main(["check", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "kernel.base" in err and "derived kernel" in err


@pytest.mark.parametrize(
    "cls", ["almost-regular", "almost-conservative", "strongly-regular", "strong-almost-to-almost"]
)
def test_window_suites_refuse_stage_sides_below_two(tmp_path, capsys, cls):
    # the window-mean suites probe columns 0..2 at every stage
    cfg = write_config(
        tmp_path,
        f"[kernel]\nname = cesaro\n\n[schedule]\nsides = 1 2 4\n\n[operation]\nop = check\nclass = {cls}\n",
    )
    assert main(["check", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage side 1 ")
    assert "Traceback" not in err


@pytest.mark.parametrize("norm", ["window", "strong", "banded-strong"])
def test_window_norms_refuse_non_finite_values(tmp_path, capsys, norm):
    # 0/0 makes every cell nan; a sup over the finite windows alone printed -1
    cfg = write_config(
        tmp_path,
        "[sequence]\nexpr = 0*k/(k-k)\n\n[params]\nr = 2\ns = 1\nt = 3\nu = 1\n\n"
        f"[operation]\nop = norm\nnorm = {norm}\n",
    )
    assert main(["norm", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "nan at (0, 0)" in captured.err


@pytest.mark.parametrize(
    "norm,expr,cell",
    [("sup", "0*k/(k-k)", "nan"), ("lq", "0*k/(k-k)", "nan"), ("sup", "1/(k-l)", "inf")],
)
def test_sup_and_lq_norms_refuse_non_finite_values(tmp_path, capsys, norm, expr, cell):
    # both printed NaN or Infinity with exit 0
    cfg = write_config(tmp_path, f"[sequence]\nexpr = {expr}\n\n[operation]\nop = norm\nnorm = {norm}\n")
    assert main(["norm", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the norms need finite values; the grid has {cell} at (0, 0)\n"


@pytest.mark.parametrize("norm", ["window", "strong"])
def test_window_norms_refuse_overflowed_prefix_sums(tmp_path, capsys, norm):
    # every cell is 1e306, and the norm is 1e306; the overflowed prefix table printed Infinity
    cfg = write_config(tmp_path, f"[sequence]\nexpr = 10^306\n\n[operation]\nop = norm\nnorm = {norm}\n")
    assert main(["norm", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the window norms need finite prefix sums; the sum over [0, 1] x [0, 89] is inf\n"
    )


def test_dual_subcommand_single_condition(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "[sequence]\ncorpus = impulse\n\n[params]\nr = 2\ns = 1\nt = 3\nu = 1\n\n"
        "[operation]\nop = dual\nwhich = d1\n",
    )
    assert main(["dual", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "transform-row-abs-sup" in out
    assert "pass" in out


def test_battery_exit_code_and_determinism(capsys):
    code1 = main(["battery"])
    out1 = capsys.readouterr().out
    code2 = main(["battery"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 1
    assert out1 == out2
    assert "overall: FAIL (items 9, 10, 11)" in out1
    for label in (
        "identity kernel fails the strongly-regular suite",
        "averaged impulse",
        "sparse-delta",
    ):
        assert label in out1


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_pyproject_names_the_package_and_its_version():
    # a regex, not tomllib: Python 3.10 has no tomllib
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        project = fh.read().split("[project]", 1)[1].split("\n[", 1)[0]
    fields = dict(re.findall(r'^(name|version) = "([^"]*)"$', project, re.M))
    assert fields == {"name": "dsumm", "version": dsumm.__version__}


def test_module_entry_point_runs_the_cli():
    src = os.path.dirname(os.path.dirname(dsumm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "dsumm", "--version"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0
    assert done.stdout.strip() == f"dsumm {dsumm.__version__}"
