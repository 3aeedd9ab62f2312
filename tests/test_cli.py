import os
import pathlib
import shutil

import numpy as np
import pytest

from gridpolicy import load_config, parse_config, solve
from gridpolicy.cli import (
    _read_artifact,
    main,
    write_compare_csv,
    write_policy_csv,
    write_sweep_csv,
)

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
COARSE = str(CONFIGS / "pendulum_min_time_coarse.cfg")

TINY_AVG = """
problem.kind = avg_angle_pendulum
problem.theta_ref = 0.5
state.0.lo = -1.0
state.0.hi = 1.0
state.0.spacing = 0.2
state.1.lo = -1.0
state.1.hi = 1.0
state.1.spacing = 0.2
control.0.lo = -1.0
control.0.hi = 1.0
control.0.spacing = 0.2
"""

INFEASIBLE_BOX = """
problem.kind = min_time_pendulum
state.0.lo = 0.0
state.0.hi = 0.1
state.0.spacing = 0.05
state.1.lo = 0.5
state.1.hi = 0.6
state.1.spacing = 0.05
control.0.lo = -1.0
control.0.hi = 1.0
control.0.spacing = 0.5
"""


@pytest.fixture(scope="module")
def solved_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("coarse_solve")
    rc = main(["solve", "--config", COARSE, "--out", str(out), "--quiet"])
    assert rc == 0
    return out


def _lines(path) -> list[str]:
    return pathlib.Path(path).read_text(encoding="utf-8").splitlines()


# -- solve ---------------------------------------------------------------------


def test_solve_writes_artifacts(solved_dir):
    for name in ("policy.csv", "metrics.csv", "report.txt", "solve.lock", "policy.npz"):
        assert (solved_dir / name).is_file()

    policy = _lines(solved_dir / "policy.csv")
    assert policy[0] == "x0,x1,u0,feasible,avg_cost_to_go"
    assert len(policy) == 56 * 36 + 1  # one row per state node
    flags = {row.split(",")[3] for row in policy[1:]}
    assert flags <= {"0", "1"} and "1" in flags

    metrics = _lines(solved_dir / "metrics.csv")
    assert metrics[0] == "horizon,delta_mu_0,delta_x_0,delta_x_1,feasible_count"
    assert len(metrics) >= 2

    report = _lines(solved_dir / "report.txt")
    assert report[0] == "status converged"
    assert report[1].startswith("terminal_horizon ")
    assert report[3].startswith("wall_time_s ")

    lock = _lines(solved_dir / "solve.lock")
    assert lock[0] == "gridpolicy-lock 1"


def test_policy_csv_round_trip(solved_dir, tmp_path):
    cfg = load_config(COARSE)
    solved = _read_artifact(str(solved_dir), cfg)
    assert solved is not None
    table, status, terminal = solved
    assert status == "converged"

    class _Stub:
        first_stage_policy = table
        terminal_horizon = terminal

    rewritten = tmp_path / "policy.csv"
    write_policy_csv(str(rewritten), _Stub, cfg)
    assert rewritten.read_bytes() == (solved_dir / "policy.csv").read_bytes()


def test_policy_npz_is_the_solved_table(tmp_path):
    # the text export loses bits here: avg_cost_to_go x N reproduced only
    # 79 of the 95 finite costs
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(TINY_AVG, encoding="utf-8")
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    cfg = parse_config(TINY_AVG)
    report = solve(
        cfg.build_problem(), cfg.state_grid(), cfg.control_grid(), cfg.solver
    )
    expected = report.first_stage_policy
    table, status, terminal = _read_artifact(str(out), cfg)
    assert table.cost.tobytes() == expected.cost.tobytes()
    assert table.policy.tobytes() == expected.policy.tobytes()
    assert (status, terminal) == (report.status, report.terminal_horizon)


def test_solve_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["solve", "--config", COARSE, "--quiet"])
    assert rc == 0
    # the shipped coarse config names its own output directory
    assert (tmp_path / "out" / "min_time_coarse" / "policy.csv").is_file()


def test_solve_hit_n_max_exit_code(tmp_path, capsys):
    cfg = tmp_path / "capped.cfg"
    cfg.write_text(
        pathlib.Path(COARSE)
        .read_text(encoding="utf-8")
        .replace("solver.n_max = 10000", "solver.n_max = 5"),
        encoding="utf-8",
    )
    rc = main(
        ["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]
    )
    assert rc == 2
    assert "status=hit_n_max" in capsys.readouterr().out
    assert (tmp_path / "o" / "policy.csv").is_file()


def test_solve_progress_goes_to_stderr_unless_quiet(tmp_path, capsys):
    cfg = tmp_path / "capped.cfg"
    cfg.write_text(
        pathlib.Path(COARSE)
        .read_text(encoding="utf-8")
        .replace("solver.n_max = 10000", "solver.n_max = 5"),
        encoding="utf-8",
    )
    argv = ["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("horizon=5 delta_mu=")
    assert main(argv + ["--quiet"]) == 2
    assert capsys.readouterr().err == ""


def test_solve_infeasible_exit_code(tmp_path, capsys):
    cfg = tmp_path / "box.cfg"
    cfg.write_text(INFEASIBLE_BOX, encoding="utf-8")
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 3
    assert "infeasible" in capsys.readouterr().err


# -- rollout ---------------------------------------------------------------------


def test_rollout_reuses_solved_artifacts(solved_dir, capsys):
    before = os.stat(solved_dir / "policy.csv").st_mtime_ns
    rc = main(
        [
            "rollout",
            "--config",
            COARSE,
            "--out",
            str(solved_dir),
            "--horizon",
            "50",
            "--quiet",
        ]
    )
    assert rc == 0
    assert "rollout ok steps=50" in capsys.readouterr().out
    assert os.stat(solved_dir / "policy.csv").st_mtime_ns == before  # no re-solve

    rows = _lines(solved_dir / "trajectory.csv")
    assert rows[0] == "step,x0,x1,u0,stage_cost,relaxed_cost,average_value"
    assert len(rows) == 52  # header + 50 steps + terminal row
    assert rows[-1].split(",")[0] == "50"
    assert rows[-1].endswith(",,,,")  # terminal row has no control/cost cells


def test_rollout_zero_horizon(solved_dir, tmp_path):
    workdir = tmp_path / "o"
    shutil.copytree(solved_dir, workdir)
    rc = main(
        [
            "rollout",
            "--config",
            COARSE,
            "--out",
            str(workdir),
            "--horizon",
            "0",
            "--x0",
            "0.5,0.5",
            "--quiet",
        ]
    )
    assert rc == 0
    rows = _lines(workdir / "trajectory.csv")
    assert len(rows) == 2
    assert rows[1].startswith("0,0.5,0.5,")


def test_rollout_truncated_trajectory(solved_dir, tmp_path, capsys):
    workdir = tmp_path / "o"
    shutil.copytree(solved_dir, workdir)
    argv = ["rollout", "--config", COARSE, "--out", str(workdir), "--quiet"]
    rc = main(argv + ["--x0=-1.5,1.2", "--horizon", "300"])
    assert rc == 3
    assert "rollout truncated at step 12 (policy_undefined)" in capsys.readouterr().err
    rows = _lines(workdir / "trajectory.csv")
    assert len(rows) == 14  # header + 12 steps + terminal row
    assert [r.split(",")[0] for r in rows[1:]] == [str(k) for k in range(13)]
    assert all(c for r in rows[1:-1] for c in r.split(","))
    assert rows[-1].split(",")[3:] == ["", "", "", ""]


def test_rollout_negative_horizon(solved_dir, capsys):
    rc = main(
        [
            "rollout",
            "--config",
            COARSE,
            "--out",
            str(solved_dir),
            "--horizon",
            "-1",
            "--quiet",
        ]
    )
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_rollout_infeasible_start(solved_dir, capsys):
    rc = main(
        [
            "rollout",
            "--config",
            COARSE,
            "--out",
            str(solved_dir),
            "--x0",
            "9,9",
            "--quiet",
        ]
    )
    assert rc == 3
    assert "infeasible" in capsys.readouterr().err


def test_rollout_x0_validation(solved_dir, capsys):
    for bad in ("1", "a,b", "nan,0", "inf,0"):
        rc = main(
            [
                "rollout",
                "--config",
                COARSE,
                "--out",
                str(solved_dir),
                "--x0",
                bad,
                "--quiet",
            ]
        )
        assert rc == 1
        assert "config error" in capsys.readouterr().err


def _rollout_resolves(solved_dir, workdir, capsys):
    """Roll out of ``workdir`` and check that it solved afresh, exit 0."""
    before = os.stat(workdir / "policy.csv").st_mtime_ns
    rc = main(
        [
            "rollout",
            "--config",
            COARSE,
            "--out",
            str(workdir),
            "--horizon",
            "5",
            "--quiet",
        ]
    )
    assert rc == 0
    assert "rollout ok steps=5" in capsys.readouterr().out
    assert os.stat(workdir / "policy.csv").st_mtime_ns != before  # re-solved
    # and the refreshed artifacts match the originals byte for byte
    for name in ("policy.csv", "metrics.csv", "solve.lock"):
        assert (workdir / name).read_bytes() == (solved_dir / name).read_bytes()
    table, _, _ = _read_artifact(str(workdir), load_config(COARSE))
    original, _, _ = _read_artifact(str(solved_dir), load_config(COARSE))
    assert table.cost.tobytes() == original.cost.tobytes()
    assert table.policy.tobytes() == original.policy.tobytes()


def test_rollout_stale_artifact_triggers_resolve(solved_dir, tmp_path, capsys):
    workdir = tmp_path / "o"
    shutil.copytree(solved_dir, workdir)
    with np.load(workdir / "policy.npz") as npz:
        fields = dict(npz)
    fields["canonical"] = parse_config(TINY_AVG).canonical()  # another config
    np.savez(workdir / "policy.npz", **fields)
    _rollout_resolves(solved_dir, workdir, capsys)


def _corrupt_fields(fields, nu):
    feasible = int(np.flatnonzero(fields["policy"] >= 0)[0])

    def edit(key, index, value):
        arr = fields[key].copy()
        arr[index] = value
        return {**fields, key: arr}

    return {
        "missing_key": {k: v for k, v in fields.items() if k != "policy"},
        "policy_index_past_nu": edit("policy", feasible, nu),
        "policy_index_below_minus_one": edit("policy", feasible, -2),
        "inf_cost_with_control": edit("cost", feasible, np.inf),
        "wrong_length": {
            **fields,
            "cost": fields["cost"][:-1],
            "policy": fields["policy"][:-1],
        },
        "float_policy": {**fields, "policy": fields["policy"].astype(float)},
    }


@pytest.mark.parametrize(
    "case",
    [
        "truncated",
        "empty",
        "plain_npy",
        "missing_key",
        "policy_index_past_nu",
        "policy_index_below_minus_one",
        "inf_cost_with_control",
        "wrong_length",
        "float_policy",
    ],
)
def test_rollout_corrupt_artifact_triggers_resolve(solved_dir, tmp_path, capsys, case):
    workdir = tmp_path / "o"
    shutil.copytree(solved_dir, workdir)
    path = workdir / "policy.npz"
    raw = path.read_bytes()
    with np.load(path) as npz:
        fields = dict(npz)
    if case == "truncated":
        path.write_bytes(raw[: len(raw) // 2])
    elif case == "empty":
        path.write_bytes(b"")
    elif case == "plain_npy":
        with open(path, "wb") as fh:
            np.save(fh, fields["cost"])
    else:
        nu = load_config(COARSE).control_grid().size
        with open(path, "wb") as fh:
            np.savez(fh, **_corrupt_fields(fields, nu)[case])
    _rollout_resolves(solved_dir, workdir, capsys)


def test_rollout_reads_no_text_export(solved_dir, tmp_path, capsys):
    # a hand-edited policy.csv and a malformed solve.lock are exports only
    workdir = tmp_path / "o"
    shutil.copytree(solved_dir, workdir)
    rows = _lines(workdir / "policy.csv")
    i = next(i for i, row in enumerate(rows) if row.split(",")[3] == "1")
    rows[i] = ",".join(rows[i].split(",")[:-1] + ["inf"])
    (workdir / "policy.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    (workdir / "solve.lock").write_text(
        "gridpolicy-lock 1\nstatus converged\nterminal_horizon 13x5\n",
        encoding="utf-8",
    )
    before = os.stat(workdir / "policy.npz").st_mtime_ns
    rc = main(["rollout", "--config", COARSE, "--out", str(workdir), "--quiet"])
    assert rc == 0
    assert "rollout ok steps=1350" in capsys.readouterr().out
    assert os.stat(workdir / "policy.npz").st_mtime_ns == before  # no re-solve


# -- compare ---------------------------------------------------------------------


def test_compare_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "cmp.cfg"
    cfg.write_text(
        pathlib.Path(COARSE).read_text(encoding="utf-8")
        + "\nreference.multiplier = 1\n",
        encoding="utf-8",
    )
    out = tmp_path / "o"
    rc = main(["compare", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == 0
    assert "compare ok window=135" in capsys.readouterr().out
    rows = _lines(out / "compare.csv")
    assert rows[0] == "metric,solver,reference,relative_deviation"
    names = [r.split(",")[0] for r in rows[1:]]
    assert names == ["mean_stage_cost", "mean_relaxed_cost", "sum_sq_control"]
    # the stationary policy reaches the target window in lockstep with the
    # finite-horizon reference, so the mean stage costs agree exactly
    assert rows[1].endswith(",0.0")
    for row in rows[1:]:
        solver_v, ref_v, dev = (float(c) for c in row.split(",")[1:])
        assert dev <= 0.15


def test_compare_truncated_window_exit_code(tmp_path, capsys):
    # the stationary policy leaves its feasible set at step 12 from this
    # start (see test_rollout_truncated_trajectory), inside the window
    out = tmp_path / "o"
    argv = ["compare", "--config", COARSE, "--out", str(out), "--quiet"]
    assert main(argv + ["--x0=-1.5,1.2"]) == 3
    err = capsys.readouterr().err
    assert "comparison window truncated (solver: policy_undefined, reference:" in err
    assert not (out / "compare.csv").exists()


def test_compare_csv_zero_reference(tmp_path):
    path = tmp_path / "compare.csv"
    write_compare_csv(str(path), [("a", 0.0, 0.0), ("b", 0.5, 0.0), ("c", 1.0, 4.0)])
    assert _lines(path) == [
        "metric,solver,reference,relative_deviation",
        "a,0.0,0.0,0.0",
        "b,0.5,0.0,inf",
        "c,1.0,4.0,0.75",
    ]


def test_compare_and_sweep_thread_count_identity(tmp_path):
    sweep = ["--horizons", "5,40", "--trajectory-horizon", "30"]
    for threads in ("1", "2"):
        common = ["--config", COARSE, "--out", str(tmp_path / threads), "--quiet"]
        common += ["--threads", threads]
        assert main(["compare"] + common) == 0
        assert main(["sweep"] + common + sweep) == 0
    for name in ("compare.csv", "sweep.csv"):
        one, two = ((tmp_path / t / name).read_bytes() for t in ("1", "2"))
        assert one == two, name


# -- sweep -----------------------------------------------------------------------


def test_sweep_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_AVG, encoding="utf-8")
    out = tmp_path / "o"
    rc = main(
        [
            "sweep",
            "--config",
            str(cfg),
            "--out",
            str(out),
            "--horizons",
            "4,2",
            "--trajectory-horizon",
            "5",
            "--quiet",
        ]
    )
    assert rc == 0
    assert "sweep ok horizons=[2, 4]" in capsys.readouterr().out
    rows = _lines(out / "sweep.csv")
    assert rows[0] == (
        "problem_horizon,min_avg_cost,max_avg_cost,mean_avg_cost,feasible_count"
    )
    assert [r.split(",")[0] for r in rows[1:]] == ["2", "4"]
    for row in rows[1:]:
        cells = row.split(",")
        assert int(cells[4]) > 0
        assert float(cells[1]) <= float(cells[3]) <= float(cells[2])


def test_sweep_csv_all_nan_horizon(tmp_path):
    path = tmp_path / "sweep.csv"
    nan, inf = float("nan"), float("inf")
    write_sweep_csv(str(path), {7: np.full(3, nan), 2: np.array([1.0, inf, 3.0])})
    assert _lines(path)[1:] == ["2,1.0,3.0,2.0,2", "7,nan,nan,nan,0"]


def test_sweep_requires_horizons(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_AVG, encoding="utf-8")
    rc = main(
        ["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]
    )
    assert rc == 1
    assert "config error" in capsys.readouterr().err


# -- equilibrium -------------------------------------------------------------------


def test_equilibrium_stdout_frozen_values(capsys):
    rc = main(["equilibrium", "--config", str(CONFIGS / "pendulum_avg_angle.cfg")])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "x0,x1,u0,cost,residual"
    assert out[1] == "0.5,0.0,0.47,-0.19983549240394827,0.0016985881456917091"

    rc = main(["equilibrium", "--config", str(CONFIGS / "pendulum_min_time.cfg")])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "3.1500000000000004,0.0,0.0,0.0,0.0016926811724387028"


def test_equilibrium_without_a_stationary_pair_exit_code(tmp_path, capsys):
    # no velocity node is 0, so every node pair moves the angle
    cfg = tmp_path / "moving.cfg"
    cfg.write_text(
        TINY_AVG.replace("state.1.lo = -1.0", "state.1.lo = -0.9").replace(
            "state.1.hi = 1.0", "state.1.hi = 0.9"
        ),
        encoding="utf-8",
    )
    rc = main(["equilibrium", "--config", str(cfg), "--tolerance", "1e-6"])
    assert rc == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("no equilibrium: no node pair is stationary")


def test_equilibrium_tolerance_validation(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_AVG, encoding="utf-8")
    for tol in ("0", "nan", "inf"):
        rc = main(["equilibrium", "--config", str(cfg), "--tolerance", tol])
        assert rc == 1, tol
        assert "config error" in capsys.readouterr().err, tol


# -- usage / errors ----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, line",
    [
        (
            ["sweep", "--horizons", "0,3"],
            "config error: bad value for 'sweep.horizons'",
        ),
        (
            ["sweep", "--horizons", "5", "--trajectory-horizon", "-5"],
            "config error: bad value for 'sweep.trajectory_horizon'",
        ),
        (
            ["sweep", "--horizons", "5", "--trajectory-horizon", "0"],
            "config error: bad value for 'sweep.trajectory_horizon'",
        ),
        (["solve", "--threads", "-1"], "usage error: argument --threads"),
    ],
    ids=["horizons-0", "trajectory-negative", "trajectory-0", "threads-negative"],
)
def test_bad_flag_values_exit_1(tmp_path, capsys, argv, line):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_AVG, encoding="utf-8")
    rc = main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(line) and "Traceback" not in err, err
    assert not (tmp_path / "o" / "sweep.csv").exists()


@pytest.mark.parametrize(
    "config, old, new",
    [
        ("pendulum_avg_angle_sweep.cfg", "problem.theta_ref = 0.2", "problem.theta_ref = 5.0"),
        (
            "pendulum_min_time_coarse.cfg",
            "problem.substeps = 10",
            "problem.substeps = 10\nproblem.torque_limit = -1.0",
        ),
    ],
    ids=["theta_ref-outside-the-state-box", "torque_limit-negative"],
)
def test_out_of_range_problem_values_exit_1(tmp_path, capsys, config, old, new):
    text = (CONFIGS / config).read_text(encoding="utf-8")
    assert old in text
    cfg = tmp_path / config
    cfg.write_text(text.replace(old, new), encoding="utf-8")
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    key = new.splitlines()[-1].split(" = ")[0]
    assert err.startswith("config error: ") and repr(key) in err, err
    assert "Traceback" not in err, err


def test_usage_errors(capsys):
    assert main([]) == 1
    assert main(["bogus"]) == 1
    assert main(["solve"]) == 1  # missing --config
    err = capsys.readouterr().err
    assert "usage error" in err


def test_missing_and_malformed_config(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("problem.kind = min_time_pendulum\nwat\n", encoding="utf-8")
    assert main(["solve", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
