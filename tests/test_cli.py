import os

import pytest

from stochheat import cli, errors, fem


def run(argv):
    return cli.main(argv)


def test_config_round_trip():
    text = "study = tdr\nseed = 5\n# comment\nK = 32\n"
    cfg = cli.parse_config_text(text)
    canon = cli.serialize_config(cfg)
    assert cli.parse_config_text(canon) == cfg
    assert cli.serialize_config(cli.parse_config_text(canon)) == canon


def test_config_rejects_garbage():
    with pytest.raises(cli.ConfigError):
        cli.parse_config_text("just words\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config_text("key =\n")


def test_unknown_study_is_usage_error(capsys):
    assert run(["study", "--set", "study=bogus"]) == 1
    assert "error" in capsys.readouterr().err


def test_empty_level_list_is_config_error():
    assert run(["study", "--set", "study=tdr",
                "--set", "dtau_levels="]) == 1


@pytest.mark.parametrize("argv", [
    ["study", "--set", "study=model-space", "--set", "K=0"],
    ["study", "--set", "study=model-time", "--set", "K=-4"],
    ["study", "--set", "study=model-time", "--set", "j_star=0"],
    ["study", "--set", "study=tdr", "--set", "window=1"],
    ["study", "--set", "study=tdr", "--set", "dtau_levels=4"],
    ["study", "--set", "study=tdr", "--samples", "1"],
    ["study", "--set", "study=tdr", "--samples", "-2"],
    ["study", "--set", "study=tdr", "--set", "horizon=0"],
    ["study", "--set", "study=sdr", "--set", "n_star=0"],
    ["study", "--set", "study=sdr", "--set", "M=0"],
    ["study", "--set", "study=total", "--set", "h_levels=3"],
    ["study", "--set", "study=deterministic-cn", "--set", "axis=space",
     "--set", "M=0"],
    ["sample-path", "--set", "mesh=1"],
    ["sample-path", "--set", "M=0"],
])
def test_out_of_range_config_is_config_error(argv, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


@pytest.mark.parametrize("study", ["sdr", "total"])
@pytest.mark.parametrize("samples", [0, 3])
def test_study_exact_column_matches_error_functionals(study, samples):
    # the study shares one map pair between the exact and MC columns;
    # its exact column must equal the standalone functional bit for bit
    n_star, j_star, K, M, levels = 16, 8, 24, 8, (2, 3, 4)
    rep = cli.run_study({
        "study": study, "horizon": "1.0", "seed": "1",
        "samples": str(samples), "n_star": str(n_star),
        "j_star": str(j_star), "K": str(K), "M": str(M),
        "h_levels": ",".join(map(str, levels)), "window": "3"})
    exact = {"sdr": errors.sdr_error_exact,
             "total": errors.total_error_exact}[study]
    for row, e in zip(rep.rows, levels):
        eigen = fem.generalized_eigen(fem.assemble(fem.Mesh(2 ** e)))
        assert row["error_exact"] == exact(M, M, n_star, j_star, eigen,
                                           1.0, K)
        assert (row["error_mc"] > 0.0) == (samples > 0)


def test_missing_subcommand():
    assert run([]) == 1


def test_study_csv_deterministic(tmp_path):
    a = os.path.join(tmp_path, "a.csv")
    b = os.path.join(tmp_path, "b.csv")
    args = ["study", "--seed", "3", "--samples", "4",
            "--set", "study=tdr", "--set", "n_star=16",
            "--set", "j_star=16", "--set", "K=32",
            "--set", "dtau_levels=1,2,3"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_study_csv_schema(tmp_path):
    out = os.path.join(tmp_path, "o.csv")
    assert run(["study", "--out", out, "--set", "study=tdr",
                "--set", "n_star=8", "--set", "j_star=8",
                "--set", "K=16", "--set", "dtau_levels=1,2,3"]) == 0
    lines = open(out).read().strip().split("\n")
    assert lines[0] == "study,level,dt,dx,dtau,h,K,error_exact,error_mc,stderr"
    assert len(lines) == 5  # header + 3 levels + slope
    assert lines[-1].startswith("slope,")
    for line in lines[1:-1]:
        parts = line.split(",")
        assert len(parts) == 10
        assert parts[0] == "tdr"


def test_sample_path_output(tmp_path):
    out = os.path.join(tmp_path, "path.csv")
    assert run(["sample-path", "--out", out, "--seed", "4",
                "--set", "n_star=16", "--set", "j_star=16",
                "--set", "M=8", "--set", "mesh=8"]) == 0
    rows = [l.split(",") for l in open(out).read().strip().split("\n")]
    assert len(rows) == 9                 # M + 1 time levels
    assert len(rows[0]) == 7              # one column per interior node
    assert all(float(v) == 0.0 for v in rows[0])   # starts from zero
    assert any(float(v) != 0.0 for v in rows[-1])


def test_sample_path_reproducible(tmp_path):
    a = os.path.join(tmp_path, "a.csv")
    b = os.path.join(tmp_path, "b.csv")
    args = ["sample-path", "--seed", "9", "--set", "n_star=8",
            "--set", "j_star=8", "--set", "M=4", "--set", "mesh=8"]
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    assert open(a).read() == open(b).read()


def test_config_file_and_override(tmp_path):
    cfgfile = os.path.join(tmp_path, "c.cfg")
    with open(cfgfile, "w") as fh:
        fh.write("study = tdr\nn_star = 8\nj_star = 8\nK = 16\n"
                 "dtau_levels = 1,2\n")
    out = os.path.join(tmp_path, "o.csv")
    assert run(["study", "--config", cfgfile, "--out", out,
                "--set", "dtau_levels=1,2,3"]) == 0
    lines = open(out).read().strip().split("\n")
    assert len(lines) == 5  # override applied: three levels


def test_selftest_passes(capsys):
    assert run(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("ok ") >= 5
