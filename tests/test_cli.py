import csv
import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from geams_sim import cli, engine, topology
from geams_sim.cli import _parse_seeds, main
from geams_sim.experiment import ExperimentPlan, run_experiment
from geams_sim.metrics import SUMMARY_COLUMNS, write_csv
from geams_sim.scenario import ScenarioConfig, ScenarioError

SRC = Path(__file__).resolve().parent.parent / "src"


def two_node_scenario(tmp_path, **extra):
    """Scenario file for a fast run: source 25 m from the sink, no sensors."""
    cfg = {"n_sensors": 0, "sink_x": 35.0, "image_count": 5}
    cfg.update(extra)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_parse_seeds():
    assert _parse_seeds("1-3,7") == (1, 2, 3, 7)
    assert _parse_seeds("4") == (4,)
    assert _parse_seeds("1,5,9") == (1, 5, 9)
    assert _parse_seeds("-3--1,-5") == (-3, -2, -1, -5)


def test_run_writes_summary(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", two_node_scenario(tmp_path),
               "--protocol", "geams", "--seed", "1", "--out-dir", str(out)])
    assert rc == 0
    rows = read_rows(out / "summary.csv")
    assert rows[0] == SUMMARY_COLUMNS
    assert len(rows) == 2
    assert rows[1][:3] == ["geams", "1", "0"]
    assert "delivery ratio:  50/50" in capsys.readouterr().out


def test_run_counts_packets_in_flight_at_the_horizon(tmp_path, capsys):
    # the image emitted at t = 5 s is still queued when the horizon stops the run
    scenario = two_node_scenario(tmp_path, image_count=30, horizon_s=5)
    rc = main(["run", "--scenario", scenario, "--out-dir", str(tmp_path / "out")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "delivery ratio:  50/60 (83.3%)" in out
    assert "in flight:       10" in out


def test_run_flag_overrides_scenario_file(tmp_path):
    out = tmp_path / "out"
    scenario = two_node_scenario(tmp_path, seed=5)
    rc = main(["run", "--scenario", scenario, "--seed", "7", "--out-dir", str(out)])
    assert rc == 0
    assert read_rows(out / "summary.csv")[1][1] == "7"


def test_run_packets_flag(tmp_path):
    out = tmp_path / "out"
    rc = main(["run", "--scenario", two_node_scenario(tmp_path),
               "--out-dir", str(out), "--packets"])
    assert rc == 0
    assert len(read_rows(out / "packets.csv")) == 51


def test_run_without_packets_removes_an_older_packets_file(tmp_path):
    out = tmp_path / "out"
    scenario = two_node_scenario(tmp_path)
    assert main(["run", "--scenario", scenario, "--out-dir", str(out), "--packets"]) == 0
    assert (out / "packets.csv").exists()
    assert main(["run", "--scenario", scenario, "--seed", "2", "--out-dir", str(out)]) == 0
    assert read_rows(out / "summary.csv")[1][1] == "2"
    assert not (out / "packets.csv").exists()


def test_run_missing_scenario(tmp_path, capsys):
    rc = main(["run", "--scenario", str(tmp_path / "absent.json"),
               "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "absent.json" in capsys.readouterr().err


def test_run_unknown_scenario_key(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"protcol": "geams"}))
    rc = main(["run", "--scenario", str(path), "--out-dir", str(tmp_path / "out")])
    assert rc == 1
    assert "protcol" in capsys.readouterr().err


def test_run_rejects_a_sink_too_close_to_the_source(tmp_path, capsys):
    # it used to load, then fail mid-run on a 0.4 m link
    scenario = two_node_scenario(tmp_path, sink_x=10.0, sink_y=90.4)
    out = tmp_path / "out"
    assert main(["run", "--scenario", scenario, "--out-dir", str(out)]) == 1
    assert "closer than min_separation" in capsys.readouterr().err
    assert not out.exists()  # nothing was written


def test_topology_roundtrip_reproduces_run(tmp_path):
    topo = tmp_path / "topo.csv"
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["run", "--protocol", "gpsr", "--nodes", "30", "--seed", "3"]
    assert main(args + ["--topology-out", str(topo), "--out-dir", str(out_a)]) == 0
    assert main(args + ["--topology-in", str(topo), "--out-dir", str(out_b)]) == 0
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()
    assert (out_a / "regional.csv").read_bytes() == (out_b / "regional.csv").read_bytes()


def test_run_topology_in_checks_the_rows_at_load_and_at_set_up(tmp_path, monkeypatch):
    """The loader checks the file's rows once, naming the file.  A
    Simulation given the loaded topology under the same scenario checks
    nothing more; one under another field or min_separation checks the rows
    again and rejects them as set-up always did.  A generated placement is
    not checked at all."""
    topo = tmp_path / "topo.csv"
    args = ["run", "--nodes", "10", "--seed", "3"]
    check, calls, given = topology.check_nodes, [], []

    def counting_check(*a, **kw):
        calls.append(a[2:3])  # the origin an error names, if any
        return check(*a, **kw)

    def recording_simulation(cfg, t=None):
        given.append((cfg, t))
        return engine.Simulation(cfg, t)

    monkeypatch.setattr(topology, "check_nodes", counting_check)
    monkeypatch.setattr(cli, "Simulation", recording_simulation)
    assert main(args + ["--topology-out", str(topo), "--out-dir", str(tmp_path / "a")]) == 0
    assert calls == []
    assert main(args + ["--topology-in", str(topo), "--out-dir", str(tmp_path / "b")]) == 0
    assert calls == [(str(topo),)]
    cfg, loaded = given[-1]
    assert cfg == ScenarioConfig(n_sensors=10, seed=3)
    engine.Simulation(cfg, loaded).run()
    assert calls == [(str(topo),)]
    for other, message in [
        (cfg.replace(field_height=100.0), "topology: node 2 at (118.98231354594569, "
         "108.84584505919037) lies outside the 500.0 x 100.0 field"),
        (cfg.replace(min_separation=40.0), "topology: node 7 is 8.809915381083512 m "
         "from node 0, closer than min_separation 40.0"),
    ]:
        with pytest.raises(ValueError) as err:
            engine.Simulation(other, loaded)
        assert str(err.value) == message
    assert calls == [(str(topo),), (), ()]


def test_run_topology_in_reports_its_own_sensor_count(tmp_path, capsys):
    topo = tmp_path / "topo.csv"
    args = ["run", "--scenario", two_node_scenario(tmp_path, n_sensors=20)]
    assert main(args + ["--topology-out", str(topo), "--out-dir", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    out = tmp_path / "b"
    # no --nodes: the scenario default of 100 sensors must not leak into n
    assert main(["run", "--topology-in", str(topo), "--out-dir", str(out)]) == 0
    assert "n=20 " in capsys.readouterr().out
    assert read_rows(out / "summary.csv")[1][:3] == ["geams", "1", "20"]


@pytest.mark.parametrize("rows,message", [
    (["0,490,90", "1,10,90", "2,100,90", "2,200,90"], "line 5: duplicate node id 2"),
    (["0,490,90", "1,10,90", "2,nan,90"], "line 4: node 2 has a non-finite coordinate"),
    (["0,490,90", "1,10,90", "2,600,90"], "line 4: node 2 at (600.0, 90.0) lies outside"),
    (["0,490,90", "1,10,90", "2,100,90", "3,100.4,90"],
     "line 5: node 3 is 0.4"),
])
def test_run_rejects_bad_topology_file(tmp_path, capsys, rows, message):
    topo = tmp_path / "topo.csv"
    topo.write_text("node_id,x,y\n" + "".join(f"{r}\n" for r in rows))
    out = tmp_path / "out"
    assert main(["run", "--topology-in", str(topo), "--out-dir", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()  # rejected before anything ran


def test_run_writes_what_a_one_cell_experiment_writes(tmp_path):
    run_dir, exp_dir = tmp_path / "run", tmp_path / "exp"
    assert main(["run", "--protocol", "gpsr", "--nodes", "20", "--seed", "2",
                 "--packets", "--out-dir", str(run_dir)]) == 0
    assert main(["experiment", "--protocols", "gpsr", "--nodes", "20", "--seeds", "2",
                 "--packets", "--out-dir", str(exp_dir)]) == 0
    for name in ("summary.csv", "regional.csv", "packets.csv"):
        assert (run_dir / name).read_bytes() == (exp_dir / name).read_bytes()


def test_default_out_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("GEAMS_SIM_OUT", str(tmp_path / "envout"))
    rc = main(["run", "--scenario", two_node_scenario(tmp_path)])
    assert rc == 0
    assert (tmp_path / "envout" / "summary.csv").exists()


def test_experiment_matrix_row_counts(tmp_path):
    out = tmp_path / "exp"
    rc = main(["experiment", "--nodes", "10", "20", "--seeds", "1-2",
               "--out-dir", str(out)])
    assert rc == 0
    summary = read_rows(out / "summary.csv")
    assert len(summary) == 1 + 2 * 2 * 2  # header + protocols x sizes x seeds
    comparison = read_rows(out / "comparison.csv")
    assert len(comparison) == 1 + 2 * 7  # header + sizes x metrics


def test_experiment_is_deterministic_and_parallel_safe(tmp_path):
    base = ["experiment", "--nodes", "10", "--seeds", "1-2"]
    dirs = [tmp_path / name for name in ("serial1", "serial2", "jobs")]
    assert main(base + ["--out-dir", str(dirs[0])]) == 0
    assert main(base + ["--out-dir", str(dirs[1])]) == 0
    assert main(base + ["--out-dir", str(dirs[2]), "--jobs", "2"]) == 0
    for name in ("summary.csv", "regional.csv", "comparison.csv"):
        blobs = [(d / name).read_bytes() for d in dirs]
        assert blobs[0] == blobs[1] == blobs[2]


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the fork pool with one that runs the groups in this process;
    the list gets the size of every pool made."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, groups):
            return map(fn, groups)

    # run_experiment imports the pool when it makes one, so it reads this
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    return sizes


def test_experiment_pool_has_at_most_one_worker_per_deployment(tmp_path, pool_sizes):
    # a fork pool starts all its workers at once, so an oversized --jobs
    # must not reach it
    plan = ExperimentPlan(seeds=(1, 2), node_counts=(10,))  # 4 cells, 2 deployments
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    run_experiment(plan, serial, jobs=1)
    assert pool_sizes == []
    run_experiment(plan, pooled, jobs=10**6)
    assert pool_sizes == [2]
    for name in ("summary.csv", "regional.csv", "comparison.csv"):
        assert (serial / name).read_bytes() == (pooled / name).read_bytes()


@pytest.mark.parametrize("jobs", [1, 4])
def test_experiment_places_each_deployment_once(tmp_path, monkeypatch, pool_sizes, jobs):
    """Both protocols' cells of one (n, seed) run on one placement and one
    set of range lists, serially and in the pool; Simulation.__init__ still
    places the topology of the first."""
    calls = {"placed": 0, "range lists": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(engine, "generate_topology",
                        counted("placed", engine.generate_topology))
    monkeypatch.setattr(topology, "range_neighbor_lists",
                        counted("range lists", topology.range_neighbor_lists))
    plan = ExperimentPlan(seeds=(1, 2), node_counts=(10, 20))  # 8 cells
    reports = run_experiment(plan, tmp_path, jobs=jobs)
    assert len(reports) == 8
    assert calls == {"placed": 4, "range lists": 4}
    assert pool_sizes == ([] if jobs == 1 else [4])


def test_experiment_frees_each_run_before_the_next_is_set_up(tmp_path, monkeypatch):
    """No finished Simulation is alive while the next is set up, and no
    deployment's topology while the CSVs are written; both go without a gc
    pass."""
    events = []
    init = engine.Simulation.__init__

    def recorded_init(sim, cfg, topo=None):
        init(sim, cfg, topo)
        weakref.finalize(sim, events.append, f"{cfg.protocol} run freed")
        if topo is None:
            weakref.finalize(sim.topology, events.append, f"n={cfg.n_sensors} placement freed")
        events.append(f"{cfg.protocol} set up")

    def recorded_write_csv(path, *args):
        events.append("CSV written")
        return write_csv(path, *args)

    monkeypatch.setattr(engine.Simulation, "__init__", recorded_init)
    monkeypatch.setattr("geams_sim.experiment.write_csv", recorded_write_csv)
    gc.collect()
    gc.disable()
    try:
        run_experiment(ExperimentPlan(seeds=(1,), node_counts=(10, 20)), tmp_path)
    finally:
        gc.enable()
    assert events == ["geams set up", "geams run freed", "gpsr set up", "gpsr run freed",
                      "n=10 placement freed",
                      "geams set up", "geams run freed", "gpsr set up", "gpsr run freed",
                      "n=20 placement freed"] + ["CSV written"] * 3


def test_experiment_rejects_unknown_protocol(tmp_path, capsys):
    out = tmp_path / "exp"
    rc = main(["experiment", "--protocols", "geams,olsr", "--nodes", "10",
               "--seeds", "1", "--out-dir", str(out)])
    assert rc == 1
    assert "olsr" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


def test_plan_validation():
    with pytest.raises(ScenarioError):
        ExperimentPlan(seeds=())
    with pytest.raises(ScenarioError):
        ExperimentPlan(seeds=(1,), protocols=("flooding",))
    with pytest.raises(ScenarioError, match="seed 3 is listed more than once"):
        ExperimentPlan(seeds=(3, 1, 3))
    with pytest.raises(ScenarioError, match="node count 30 is listed more than once"):
        ExperimentPlan(seeds=(1,), node_counts=(30, 30))
    with pytest.raises(ScenarioError, match="protocol 'gpsr' is listed more than once"):
        ExperimentPlan(seeds=(1,), protocols=("gpsr", "geams", "gpsr"))


@pytest.mark.parametrize("jobs", [0, -3])
def test_experiment_rejects_fewer_than_one_job(tmp_path, jobs):
    out = tmp_path / "exp"
    plan = ExperimentPlan(seeds=(1,), node_counts=(10,))
    with pytest.raises(ScenarioError, match=f"jobs must be at least 1, got {jobs}"):
        run_experiment(plan, out, jobs=jobs)
    assert not out.exists()  # nothing was written


def test_a_serial_experiment_loads_no_process_pool(tmp_path):
    """Importing the CLI and running a jobs=1 experiment loads neither the
    process pool nor any multiprocessing module.  It runs in a fresh
    interpreter: other tests load the pool into this one."""
    script = (
        "import sys\n"
        "import geams_sim.cli\n"
        "from geams_sim.experiment import ExperimentPlan, run_experiment\n"
        "run_experiment(ExperimentPlan(seeds=(1,), node_counts=(10,)), sys.argv[1], jobs=1)\n"
        "print(sorted(m for m in sys.modules if m == 'concurrent.futures.process'\n"
        "             or m.startswith('multiprocessing')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
    assert (tmp_path / "comparison.csv").exists()


@pytest.mark.parametrize("flags,message", [
    (["--seeds", "1,1"], "seed 1 is listed more than once"),
    (["--seeds", "1-3,2"], "seed 2 is listed more than once"),
    (["--nodes", "30", "30"], "node count 30 is listed more than once"),
    (["--protocols", "geams,geams"], "protocol 'geams' is listed more than once"),
    (["--jobs", "0"], "jobs must be at least 1, got 0"),
    (["--jobs", "-2"], "jobs must be at least 1, got -2"),
    (["--seeds", "1-"], "--seeds: '1-' is neither a seed nor a range like 1-20"),
    (["--seeds", "1,,2"], "--seeds: '' is neither a seed nor a range like 1-20"),
    (["--seeds", "x"], "--seeds: 'x' is neither a seed nor a range like 1-20"),
    (["--seeds", "5-1"], "--seeds: range '5-1' is descending"),
    (["--nodes", "-5"], "n_sensors must be nonnegative"),
])
def test_experiment_rejects_a_bad_plan_before_running(tmp_path, capsys, flags, message):
    out = tmp_path / "exp"
    argv = ["experiment", "--nodes", "10", "--seeds", "1", "--out-dir", str(out)]
    assert main(argv + flags) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()  # nothing was written


def test_single_protocol_plan_skips_comparison(tmp_path):
    out = tmp_path / "solo"
    plan = ExperimentPlan(seeds=(1,), node_counts=(10,), protocols=("geams",),
                          base=ScenarioConfig())
    run_experiment(plan, out)
    assert (out / "summary.csv").exists()
    assert not (out / "comparison.csv").exists()


def test_single_protocol_experiment_removes_an_older_comparison(tmp_path):
    out = tmp_path / "exp"
    argv = ["experiment", "--nodes", "10", "--seeds", "1", "--out-dir", str(out)]
    assert main(argv) == 0
    assert (out / "comparison.csv").exists()
    assert main(argv + ["--protocols", "gpsr"]) == 0
    assert {row[0] for row in read_rows(out / "summary.csv")[1:]} == {"gpsr"}
    assert not (out / "comparison.csv").exists()


def test_run_removes_an_experiments_comparison(tmp_path):
    out = tmp_path / "out"
    assert main(["experiment", "--nodes", "10", "--seeds", "1", "--out-dir", str(out)]) == 0
    assert (out / "comparison.csv").exists()
    assert main(["run", "--nodes", "10", "--out-dir", str(out)]) == 0
    assert len(read_rows(out / "summary.csv")) == 2
    assert not (out / "comparison.csv").exists()
