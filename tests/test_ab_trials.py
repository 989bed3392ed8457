import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ab_trials_reads_a_tree_against_itself(capsys, monkeypatch):
    # the paired A/B script loads this checkout twice, under two package
    # names, and finds no decision, result byte or min_se that differs
    spec = importlib.util.spec_from_file_location(
        "ab_trials", ROOT / "bench" / "ab_trials.py")
    ab_trials = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab_trials)
    for var in ab_trials.BLAS_THREAD_VARS:     # main pins them; undo after
        monkeypatch.setenv(var, "1")
    assert ab_trials.main(["--parent", str(ROOT), "--change", str(ROOT),
                           "--trials", "3"]) == 0
    out = capsys.readouterr().out
    for label in ("K=5", "K=10", "K=20", "all", "prepare"):
        assert f"\n{label} " in out
    assert "\nruntime_s per scheme: median ms per side, median ratio " \
        "parent/change\n" in out
    for scheme in ("BA+FP", "BA+PP", "BA+TP", "PA+FP", "PA+PP", "PA+TP"):
        line = out.split(f"\n{scheme} ")[1].splitlines()[0]
        assert line.lstrip().startswith("parent ") and " ms  change " in line
        assert " ms  ratio " in line
    assert ("\ndecisions: 0 mismatches in ao_iterations, fp_iterations_total, "
            "success_rate, channel_hash, association and the bytes of power, "
            "se, AO powers over 18 records\n") in out
    assert "min_se: identical 18/18," in out
    # the untimed tracemalloc pass; allocations repeat exactly
    assert "\nmemory per desk trial, median over 3 (tracemalloc on)\n" in out
    assert "\ntraced peak   parent " in out
    peak_line = out.split("\ntraced peak ")[1].splitlines()[0]
    assert peak_line.endswith("ratio 1.000")
