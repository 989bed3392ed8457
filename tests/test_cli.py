import pytest

from cfuav import cli, harness
from cfuav.cli import main
from cfuav.harness import read_results


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "cfuav" in capsys.readouterr().out


def test_end_to_end_run(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("num_orus = 6\nantennas_per_oru = 2\npilot_len = 3\n"
                   "n_channel_realizations = 40\n")
    out = tmp_path / "res.csv"
    code = main(["--config", str(cfg), "--trials", "2", "--seed", "5",
                 "--uavs", "3,4", "--schemes", "BA+FP,PA+PP",
                 "--out", str(out)])
    assert code == 0
    records = read_results(out)
    assert len(records) == 2 * 2 * 2  # two K values, two trials, two schemes
    assert {r.num_uavs for r in records} == {3, 4}
    assert (tmp_path / "res_aggregate.csv").exists()
    assert "wrote" in capsys.readouterr().out


def test_dump_links_flag(tmp_path):
    out = tmp_path / "r.csv"
    code = main(["--desk-scale", "--trials", "1", "--uavs", "3",
                 "--schemes", "BA+FP", "--out", str(out), "--dump-links"])
    assert code == 0
    assert (tmp_path / "r_links_K3.csv").exists()


def test_outputs_stay_in_a_dotted_directory(tmp_path):
    # a dot in a directory name is no extension: every sibling file lands
    # next to --out, and an --out without extension keeps none
    runs = tmp_path / "runs.v2"
    runs.mkdir()
    code = main(["--desk-scale", "--trials", "1", "--uavs", "3",
                 "--schemes", "BA+FP", "--out", str(runs / "results"),
                 "--dump-links"])
    assert code == 0
    assert sorted(p.name for p in runs.iterdir()) == [
        "results", "results_aggregate", "results_links_K3.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["runs.v2"]


def test_bad_scheme_fails_with_reason(tmp_path, capsys):
    code = main(["--schemes", "ZZ+Q", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--uavs", "--schemes"])
def test_empty_list_fails_before_any_trial(tmp_path, capsys, flag):
    out = tmp_path / "x.csv"
    code = main(["--desk-scale", "--trials", "1", flag, ",", "--out",
                 str(out)])
    assert code == 1
    assert "at least one item" in capsys.readouterr().err
    assert not out.exists()


def test_uav_count_above_pilot_capacity_fails_before_any_trial(tmp_path, capsys):
    # desk scale has L * tau_p = 25 * 5 = 125; 130 cannot be associated
    out = tmp_path / "x.csv"
    code = main(["--desk-scale", "--trials", "2", "--uavs", "5,130",
                 "--schemes", "BA+FP", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "num_uavs = 130" in err and "125" in err
    assert not out.exists()


def test_flags_replace_file_values_before_the_config_check(tmp_path,
                                                          monkeypatch):
    # alone, this file holds 4 * 10 = 40 slots for its default 50 UAVs; the
    # desk preset (25 * 5 = 125 slots) and --uavs replace it before any check
    runs = []
    monkeypatch.setattr(cli, "run_monte_carlo",
                        lambda config, schemes, n_jobs=1: (runs.append(config)
                                                           or ([], [])))
    cfg = tmp_path / "small.cfg"
    cfg.write_text("num_orus = 4\n")
    code = main(["--config", str(cfg), "--desk-scale", "--uavs", "60,120",
                 "--schemes", "BA+FP", "--out", str(tmp_path / "x.csv")])
    assert code == 0
    assert [(c.num_orus, c.pilot_len, c.num_uavs) for c in runs] == [
        (25, 5, 60), (25, 5, 120)]


def test_bad_uav_count_fails_before_any_trial(tmp_path, capsys, monkeypatch):
    # K = 5 is valid, K = 0 is not: no trial of either may run
    calls = []

    def count_run(config, schemes, n_jobs=1):
        calls.append(config.num_uavs)
        return [], []

    monkeypatch.setattr(cli, "run_monte_carlo", count_run)
    out = tmp_path / "x.csv"
    code = main(["--desk-scale", "--trials", "3", "--uavs", "5,0",
                 "--schemes", "BA+FP", "--out", str(out)])
    assert code == 1
    assert "num_uavs must be a positive count" in capsys.readouterr().err
    assert len(calls) == 0
    assert not out.exists()


def test_unworkable_config_fails_before_any_trial(tmp_path, capsys,
                                                  monkeypatch):
    # a negative SE floor cannot work: it fails at load, before any trial
    calls = []

    def count_run(config, schemes, n_jobs=1):
        calls.append(config.num_uavs)
        return [], []

    monkeypatch.setattr(cli, "run_monte_carlo", count_run)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("se_min = -1\n")
    out = tmp_path / "x.csv"
    code = main(["--config", str(cfg), "--desk-scale", "--trials", "2",
                 "--uavs", "3", "--out", str(out)])
    assert code == 1
    assert "se_min must be non-negative" in capsys.readouterr().err
    assert len(calls) == 0
    assert not out.exists()


def test_non_finite_config_fails_before_any_trial(tmp_path, capsys,
                                                  monkeypatch):
    # a NaN noise figure would run and report min_se 0 on every row
    calls = []

    def count_run(config, schemes, n_jobs=1):
        calls.append(config.num_uavs)
        return [], []

    monkeypatch.setattr(cli, "run_monte_carlo", count_run)
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("noise_figure_db = nan\n")
    out = tmp_path / "x.csv"
    code = main(["--config", str(cfg), "--desk-scale", "--trials", "1",
                 "--uavs", "5", "--out", str(out)])
    assert code == 1
    assert "noise_figure_db must be finite" in capsys.readouterr().err
    assert len(calls) == 0
    assert not out.exists()


def test_failed_trial_still_writes_csv_and_exits_one(tmp_path, capsys,
                                                    monkeypatch):
    run_trial = harness.run_trial

    def fail_trial_zero(config, trial_index, schemes):
        if trial_index == 0:
            raise RuntimeError("injected trial failure")
        return run_trial(config, trial_index, schemes)

    monkeypatch.setattr(harness, "run_trial", fail_trial_zero)
    out = tmp_path / "x.csv"
    code = main(["--desk-scale", "--trials", "2", "--uavs", "3",
                 "--schemes", "BA+FP", "--out", str(out), "--jobs", "1"])
    assert code == 1
    captured = capsys.readouterr()
    assert "error: 1 of 2 trials failed" in captured.err
    assert "wrote 1 records" in captured.out
    assert [r.trial for r in read_results(out)] == [1]


def test_missing_config_file_fails(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert "error:" in capsys.readouterr().err
