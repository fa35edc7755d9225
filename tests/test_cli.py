"""End-to-end command line runs: outputs, manifests, determinism, exit codes."""

import datetime as dt
import errno
import hashlib
import json
import os
import re
import subprocess
import sys
from importlib.metadata import PathDistribution
from pathlib import Path

import pytest

import copuladyn
from copuladyn import cli, ingest, synth

ALPHA_COUNT = 4  # default alpha list length
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "copuladyn", *args],
        capture_output=True, text=True, cwd=cwd)


@pytest.fixture(scope="module")
def price_file(tmp_path_factory):
    """Synthetic 4-asset, 10-trading-day price CSV written by the synth command."""
    out = tmp_path_factory.mktemp("synthdata")
    proc = run_cli(
        "synth", "--kind", "gaussian", "--corr", "0.5", "--assets", "4",
        "--length", "130", "--seed", "11", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    path = out / "prices.csv"
    assert path.exists()
    return path


def test_synth_writes_manifest_and_prices(price_file):
    manifest = json.loads((price_file.parent / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["config"]["seed"] == 11
    assert manifest["config"]["generator"].startswith("numpy default_rng")
    assert manifest["outputs"] == ["prices.csv"]  # the manifest lists data files only
    header = price_file.read_text().splitlines()[0]
    assert header == "timestamp,symbol,price"


def test_synth_is_deterministic(tmp_path, price_file):
    rerun = tmp_path / "again"
    proc = run_cli(
        "synth", "--kind", "gaussian", "--corr", "0.5", "--assets", "4",
        "--length", "130", "--seed", "11", "--out", str(rerun))
    assert proc.returncode == 0
    assert (rerun / "prices.csv").read_bytes() == price_file.read_bytes()


def test_copula_command_end_to_end(tmp_path, price_file):
    out = tmp_path / "cop"
    proc = run_cli("copula", "--input", str(price_file), "--grid", "10",
                   "--out", str(out), "--permille")
    assert proc.returncode == 0, proc.stderr
    grid_lines = (out / "grid.csv").read_text().splitlines()
    assert grid_lines[0] == "i,j,u_hi,v_hi,density,cumulative,density_permille"
    assert len(grid_lines) == 1 + 100
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["grid"] == 10
    assert manifest["config"]["permille"] is True
    digest = hashlib.sha256(price_file.read_bytes()).hexdigest()
    assert manifest["inputs"][str(price_file)] == digest
    assert manifest["outputs"] == ["grid.csv"]


def test_copula_rerun_byte_identical(tmp_path, price_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        proc = run_cli("copula", "--input", str(price_file), "--grid", "8",
                       "--out", str(out))
        assert proc.returncode == 0
    assert (out1 / "grid.csv").read_bytes() == (out2 / "grid.csv").read_bytes()


def test_copula_thread_count_does_not_change_output(tmp_path, price_file):
    outs = []
    for threads in ("1", "4"):
        out = tmp_path / f"t{threads}"
        proc = run_cli("copula", "--input", str(price_file), "--grid", "8",
                       "--threads", threads, "--out", str(out))
        assert proc.returncode == 0
        outs.append((out / "grid.csv").read_bytes())
    assert outs[0] == outs[1]


def test_diff_command_end_to_end(tmp_path, price_file):
    out = tmp_path / "diff"
    proc = run_cli("diff", "--input", str(price_file), "--grid", "6",
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = (out / "difference.csv").read_text().splitlines()
    assert lines[0] == "i,j,u_hi,v_hi,d_permille"
    assert len(lines) == 1 + 36
    total_permille = sum(float(line.split(",")[4]) for line in lines[1:])
    assert abs(total_permille) < 1e-6  # both sides sum to one


def test_taildep_command_end_to_end(tmp_path, price_file):
    out = tmp_path / "tail"
    proc = run_cli("taildep", "--input", str(price_file), "--grid", "10",
                   "--alpha", "0.1", "--alpha", "0.25", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = (out / "tail_curve.csv").read_text().splitlines()
    assert lines[0] == "alpha,lambda_lower,lambda_upper"
    assert len(lines) == 3
    assert [float(x.split(",")[0]) for x in lines[1:]] == [0.1, 0.25]


def test_taildep_survival_convention_flag(tmp_path, price_file):
    out_lit = tmp_path / "lit"
    out_srv = tmp_path / "srv"
    for out, conv in ((out_lit, "literal"), (out_srv, "survival")):
        proc = run_cli("taildep", "--input", str(price_file), "--grid", "10",
                       "--upper-tail-convention", conv, "--out", str(out))
        assert proc.returncode == 0
    lit = (out_lit / "tail_curve.csv").read_text().splitlines()[1:]
    srv = (out_srv / "tail_curve.csv").read_text().splitlines()[1:]
    for l_row, s_row in zip(lit, srv):
        assert float(l_row.split(",")[1]) == float(s_row.split(",")[1])
        assert float(l_row.split(",")[2]) >= float(s_row.split(",")[2])


def test_dynamics_command_end_to_end(tmp_path):
    src = tmp_path / "panel"
    proc = run_cli(
        "synth", "--kind", "gaussian", "--corr", "0.4", "--assets", "3",
        "--length", str(40 * 13), "--seed", "5", "--out", str(src))
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "dyn"
    proc = run_cli(
        "dynamics", "--input", str(src / "prices.csv"), "--grid", "10",
        "--window-days", "10", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    windows = sorted(p.name for p in (out / "windows").iterdir())
    assert windows == [f"window_{k:04d}.csv" for k in range(1, 5)]
    relation = (out / "relation.csv").read_text().splitlines()
    assert relation[0].startswith("window_start,window_end,mean_corr,alpha")
    assert len(relation) == 1 + 4 * ALPHA_COUNT
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["window_days"] == 10
    assert "windows/window_0001.csv" in manifest["outputs"]


def test_dynamics_threads_byte_identical(tmp_path):
    src = tmp_path / "panel"
    proc = run_cli(
        "synth", "--kind", "gaussian", "--corr", "0.3", "--assets", "3",
        "--length", str(20 * 13), "--seed", "8", "--out", str(src))
    assert proc.returncode == 0
    payloads = []
    for threads in ("1", "4"):
        out = tmp_path / f"dyn{threads}"
        proc = run_cli(
            "dynamics", "--input", str(src / "prices.csv"), "--grid", "8",
            "--window-days", "10", "--threads", threads, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        blob = (out / "relation.csv").read_bytes() + (out / "manifest.json").read_bytes()
        for win in sorted((out / "windows").iterdir()):
            blob += win.read_bytes()
        payloads.append(blob)
    assert payloads[0] == payloads[1]


DEFAULT_CALENDAR = "default (09:30-16:00, weekdays)"
DEFAULT_ALPHAS = [0.02, 0.04, 0.1, 0.25]


def test_manifest_config_of_each_command(tmp_path, price_file):
    cal = tmp_path / "session.cal"
    cal.write_text("open=09:30\nclose=16:00\n2011-03-04\n")
    inp = str(price_file)
    analysis = {"calendar": DEFAULT_CALENDAR, "dt_minutes": 30, "input": inp, "grid": 6,
                "alphas": DEFAULT_ALPHAS, "upper_tail_convention": "literal"}
    cases = [
        (["copula", "--input", inp, "--grid", "6", "--permille"],
         dict(analysis, permille=True), [inp]),
        # --threads is accepted and ignored, so the manifest does not record it
        (["diff", "--input", inp, "--grid", "6", "--threads", "3"], analysis, [inp]),
        (["taildep", "--input", inp, "--grid", "6", "--alpha", "0.1", "--alpha", "0.25",
          "--upper-tail-convention", "survival", "--calendar", str(cal)],
         dict(analysis, alphas=[0.1, 0.25], upper_tail_convention="survival",
              calendar=str(cal)), [inp, str(cal)]),
        (["dynamics", "--input", inp, "--grid", "4", "--window-days", "5", "--dt", "60"],
         dict(analysis, grid=4, dt_minutes=60, window_days=5), [inp]),
        (["synth", "--kind", "countermonotone", "--assets", "2", "--length", "26",
          "--seed", "3", "--start-date", "2011-03-01"],
         {"calendar": DEFAULT_CALENDAR, "dt_minutes": 30, "kind": "countermonotone",
          "corr": 0.5, "assets": 2, "length": 26, "seed": 3, "start_date": "2011-03-01",
          "generator": "numpy default_rng (PCG64)"}, []),
    ]
    for k, (argv, config, inputs) in enumerate(cases):
        out = tmp_path / f"m{k}"
        assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_OK, argv
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == argv[0]
        assert manifest["config"] == config, argv
        assert sorted(manifest["inputs"]) == sorted(inputs), argv


@pytest.mark.parametrize("error,code,message", [
    (OSError, cli.EXIT_INPUT, "copuladyn: output error: disk gave out"),
    (ArithmeticError, cli.EXIT_NUMERIC, "copuladyn: numerical failure: disk gave out"),
])
def test_failure_after_a_partial_write_leaves_no_file(tmp_path, price_file, monkeypatch, capsys,
                                                      error, code, message):
    out = tmp_path / "dyn"
    on_disk = []

    def fail(*_a, **_k):
        on_disk.extend(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
        raise error("disk gave out")

    monkeypatch.setattr(cli, "write_relation_csv", fail)
    assert cli.main(["dynamics", "--input", str(price_file), "--grid", "4",
                     "--window-days", "5", "--out", str(out)]) == code
    assert sorted(on_disk) == ["windows/window_0001.csv", "windows/window_0002.csv"]
    assert capsys.readouterr().err.strip() == message
    assert not any(p.is_file() for p in out.rglob("*"))


def test_failed_run_removes_only_the_directories_it_made(tmp_path, price_file, monkeypatch):
    def fail(*_a, **_k):
        raise OSError("disk gave out")

    monkeypatch.setattr(cli, "write_relation_csv", fail)
    argv = ["dynamics", "--input", str(price_file), "--grid", "4", "--window-days", "5"]
    fresh = tmp_path / "fresh" / "dyn"
    assert cli.main([*argv, "--out", str(fresh)]) == cli.EXIT_INPUT
    assert not fresh.parent.exists()
    # an --out that held a file before the run keeps it, and is kept
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("mine\n")
    assert cli.main([*argv, "--out", str(kept)]) == cli.EXIT_INPUT
    assert sorted(p.name for p in kept.rglob("*")) == ["notes.txt"]
    assert (kept / "notes.txt").read_text() == "mine\n"


def test_usage_errors_exit_2(tmp_path, price_file):
    checks = [
        ("copula", "--input", str(price_file), "--grid", "1", "--out", str(tmp_path / "x1")),
        ("copula", "--input", str(price_file), "--out", str(tmp_path / "x2"), "--bogus-flag"),
        ("taildep", "--input", str(price_file), "--alpha", "0.7", "--out", str(tmp_path / "x3")),
        ("dynamics", "--input", str(price_file), "--window-days", "0", "--out", str(tmp_path / "x4")),
        ("synth", "--kind", "gaussian", "--out", str(tmp_path / "x5")),  # missing --seed
        ("copula", "--input", str(price_file), "--dt", "17", "--out", str(tmp_path / "x6")),
    ]
    for args in checks:
        proc = run_cli(*args)
        assert proc.returncode == 2, args
    # synth reads no input, so each bad synth value is a usage error naming its flag
    synth_checks = [
        ("--assets", "1"),
        ("--length", "0"),
        ("--corr", "1.5"),
        ("--kind", "countermonotone", "--assets", "3"),
        ("--start-date", "nope"),
        ("--start-date", "NaT"),
        ("--corr", "-0.6", "--assets", "3"),  # below the feasible -1/(K-1)
    ]
    for k, flag_args in enumerate(synth_checks, start=7):
        proc = run_cli("synth", "--seed", "1", *flag_args, "--out", str(tmp_path / f"x{k}"))
        assert proc.returncode == 2, flag_args
        assert flag_args[0] in proc.stderr, proc.stderr
    proc = run_cli("synth", "--seed", "-1", "--out", str(tmp_path / "x14"))
    assert proc.returncode == 2
    assert "--seed" in proc.stderr, proc.stderr
    # usage failures never create outputs
    for k in range(1, 15):
        target = tmp_path / f"x{k}"
        assert not target.exists() or not any(target.iterdir())


def test_input_errors_exit_3(tmp_path, price_file):
    proc = run_cli("copula", "--input", str(tmp_path / "missing.csv"),
                   "--out", str(tmp_path / "o1"))
    assert proc.returncode == 3
    assert proc.stderr.startswith("copuladyn: input error: [Errno 2] No such file or directory")

    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,symbol,price\n2024-01-03T09:30:00,AAA,zero\n")
    proc = run_cli("copula", "--input", str(bad), "--out", str(tmp_path / "o2"))
    assert proc.returncode == 3

    # panel shorter than one window
    proc = run_cli("dynamics", "--input", str(price_file), "--window-days", "200",
                   "--out", str(tmp_path / "o3"))
    assert proc.returncode == 3
    out3 = tmp_path / "o3"
    assert not out3.exists() or not any(
        p for p in out3.rglob("*") if p.is_file())


@pytest.mark.parametrize("flag", ["--input", "--calendar"])
def test_input_that_is_not_a_regular_file_exits_3(tmp_path, price_file, flag):
    # a FIFO is refused before it is opened: read once to its end, it would block the
    # digest that opens it again, and with no writer even the first open blocks
    fifo = tmp_path / "p.fifo"
    os.mkfifo(fifo)
    calendar = tmp_path / "cal.txt"
    calendar.write_text("open=09:30\nclose=16:00\n")
    inputs = {"--input": str(price_file), "--calendar": str(calendar)}
    inputs[flag] = str(fifo)
    proc = subprocess.run(
        [sys.executable, "-m", "copuladyn", "taildep", "--input", inputs["--input"],
         "--calendar", inputs["--calendar"], "--grid", "4", "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 3
    assert proc.stderr == f"copuladyn: input error: {flag} {fifo} is not a regular file\n"
    assert not (tmp_path / "o").exists()


def test_grid_too_large_for_memory_exits_3(tmp_path, price_file):
    # 10^16 cells of counts: the 71.1 PiB request fails at once. The child's address space
    # is capped at 1 GiB, so a run that built an O(m) array first would fail, not touch GiBs
    script = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              "from copuladyn.cli import main; sys.exit(main(sys.argv[1:]))")
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-c", script, "taildep", "--input", str(price_file),
         "--grid", "100000000", "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("copuladyn: out of memory: Unable to allocate 71.1 PiB")
    assert not out.exists()


def test_output_errors_exit_3_naming_the_output_side(tmp_path, price_file):
    blocker = tmp_path / "a-file"
    blocker.write_text("mine\n")
    proc = run_cli("synth", "--assets", "2", "--length", "10", "--seed", "1",
                   "--out", str(blocker / "out"))
    assert proc.returncode == 3
    assert proc.stderr.startswith("copuladyn: output error: [Errno 20] Not a directory")
    proc = run_cli("copula", "--input", str(price_file), "--grid", "4", "--out", str(blocker))
    assert proc.returncode == 3
    assert proc.stderr.startswith("copuladyn: output error: [Errno 17] File exists")
    assert blocker.read_text() == "mine\n"


def test_oserror_names_its_side(tmp_path, price_file, monkeypatch, capsys):
    def worker_died(*_a, **_k):
        raise ChildProcessError("a worker process ended before it sent its result")

    def unreadable(_name):
        raise OSError("disk gave out")

    with monkeypatch.context() as mp:
        mp.setattr(cli, "write_price_csv", worker_died)
        assert cli.main(["synth", "--assets", "2", "--length", "10", "--seed", "1",
                         "--out", str(tmp_path / "s")]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        "copuladyn: output error: a worker process ended before it sent its result\n")
    # hashing the input for the manifest reads it
    monkeypatch.setattr(cli, "_sha256", unreadable)
    assert cli.main(["copula", "--input", str(price_file), "--grid", "4",
                     "--out", str(tmp_path / "c")]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "copuladyn: input error: disk gave out\n"
    assert not (tmp_path / "s").exists() and not (tmp_path / "c").exists()


def test_session_shorter_than_the_interval_exits_3(tmp_path):
    cal = tmp_path / "quarter-hour.cal"
    cal.write_text("open=09:30\nclose=09:45\n")
    out = tmp_path / "o"
    proc = run_cli("synth", "--assets", "2", "--length", "10", "--seed", "1",
                   "--calendar", str(cal), "--out", str(out))
    assert proc.returncode == 3
    assert proc.stderr == "copuladyn: input error: interval exceeds the trading session\n"
    assert not out.exists()


def test_overlong_field_exits_3_naming_its_line(tmp_path):
    # 200,000 characters is over the csv module's default field limit of 131,072
    bad = tmp_path / "long.csv"
    bad.write_text(f"timestamp,symbol,price\n2024-01-03T09:30:00,{'S' * 200_000},1.0\n")
    proc = run_cli("copula", "--input", str(bad), "--out", str(tmp_path / "o"))
    assert proc.returncode == 3
    assert "input error: line 2: field larger than field limit" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_nat_timestamp_exits_3_naming_its_line(tmp_path):
    bad = tmp_path / "nat.csv"
    bad.write_text("timestamp,symbol,price\n2024-01-03T09:30:00,AAA,1.0\n"
                   "NaT,AAA,2.0\n2024-01-03T09:31:00,AAA,3.0\n")
    proc = run_cli("copula", "--input", str(bad), "--out", str(tmp_path / "o"))
    assert proc.returncode == 3
    assert "input error: line 3: unparseable timestamp 'NaT'" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("config,lineno", [
    ("open=09:30:40\nclose=16:00:20\n", 1),  # seconds were dropped without a word
    ("# one hour ahead of UTC\nopen=09:30+01:00\n", 2),  # crashed comparing the times
    ("open=09:30:10\nclose=09:30:50\n", 1),  # a session under a minute
])
def test_calendar_time_off_the_minute_exits_3_naming_its_line(tmp_path, price_file, config,
                                                              lineno):
    cal = tmp_path / "session.cal"
    cal.write_text(config)
    proc = run_cli("taildep", "--input", str(price_file), "--calendar", str(cal),
                   "--out", str(tmp_path / "o"))
    assert proc.returncode == 3
    assert f"input error: calendar config line {lineno}: " in proc.stderr
    assert "whole minute (HH:MM) with no UTC offset" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_zero_variance_window_exits_3_naming_its_sessions(tmp_path):
    rows = ["timestamp,symbol,price"]
    for d, day in enumerate(["2024-01-03", "2024-01-04", "2024-01-05", "2024-01-08"]):
        for k in range(14):
            stamp = f"{day}T{9 + (30 + 30 * k) // 60:02d}:{(30 * k + 30) % 60:02d}:00"
            rows.append(f"{stamp},AAA,{100 + (7 * k + 3 * d) % 11}")
            rows.append(f"{stamp},BBB,{80 + (5 * k + d) % 13}")
            # CCC stops moving in the second two-day window
            rows.append(f"{stamp},CCC,{50 if d >= 2 else 60 + (3 * k + d) % 7}")
    prices = tmp_path / "prices.csv"
    prices.write_text("\n".join(rows) + "\n")
    out = tmp_path / "dyn"
    proc = run_cli("dynamics", "--input", str(prices), "--grid", "2", "--window-days", "2",
                   "--out", str(out))
    assert proc.returncode == 3
    assert "zero-variance series in sessions 2024-01-05 to 2024-01-08: CCC" in proc.stderr
    assert not out.exists() or not any(p for p in out.rglob("*") if p.is_file())


def test_numeric_failures_exit_4(tmp_path, price_file, monkeypatch):
    def boom(*_a, **_k):
        raise ArithmeticError("quadrature did not converge")

    monkeypatch.setattr(cli, "average_pairwise_density", boom)
    assert cli.main(["copula", "--input", str(price_file), "--grid", "8",
                     "--out", str(tmp_path / "num")]) == cli.EXIT_NUMERIC
    target = tmp_path / "num"
    assert not target.exists() or not any(
        p for p in target.rglob("*") if p.is_file())


@pytest.mark.skipif(not PYPROJECT.is_file(),
                    reason="pyproject.toml is not part of this copy")
def test_console_script_installed(tmp_path):
    """`copuladyn --help` runs through the console script pyproject.toml declares.

    The suite runs from the checkout without installing the package, so the
    script is put on PATH the way an installer would: setuptools writes the
    project metadata, and its `console_scripts` entry becomes the standard
    wrapper. Renaming the script or its target in pyproject.toml fails here.
    """
    pytest.importorskip("setuptools")
    meta = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "egg_info", "--egg-base", str(tmp_path)],
        cwd=PYPROJECT.parent, capture_output=True, text=True)
    assert meta.returncode == 0, meta.stderr
    (egg_info,) = tmp_path.glob("*.egg-info")
    scripts = PathDistribution(egg_info).entry_points.select(group="console_scripts")
    entry = scripts["copuladyn"]

    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / entry.name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        f"sys.exit({entry.attr}())\n")
    script.chmod(0o755)
    package_root = str(Path(copuladyn.__file__).resolve().parents[1])
    env = dict(os.environ)
    for var, first in (("PATH", str(bin_dir)), ("PYTHONPATH", package_root)):
        env[var] = os.pathsep.join(filter(None, [first, env.get(var)]))

    proc = subprocess.run(["copuladyn", "--help"], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    # the subcommand choices in the usage line; the description also says
    # "copulas" and "dynamics", so searching all of stdout misses a dropped one
    subcommands = re.search(r"\{([\w,]+)\}", proc.stdout).group(1).split(",")
    for name in ("copula", "diff", "taildep", "dynamics", "synth"):
        assert name in subcommands


def test_main_returns_exit_code(tmp_path, price_file):
    # main() is importable and returns instead of raising
    code = cli.main(["copula", "--input", str(price_file), "--grid", "4",
                     "--out", str(tmp_path / "inproc")])
    assert code == 0
    assert (tmp_path / "inproc" / "grid.csv").exists()


def _contents(out: Path) -> dict:
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", ["taildep", "dynamics", "synth"])
def test_failed_fork_runs_every_job_in_process(tmp_path, monkeypatch, pool, price_file, command):
    # with no pool minimum, two usable CPUs and every os.fork failing, as at the process
    # limit, each pool runs its jobs in this process: the input is still parsed in byte
    # ranges, and the outputs equal those of a run whose pools stay below their minimum
    def fork():
        forks.append(command)
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    def whole_file(*args, **kwargs):
        streamed.append(args)
        return parse(*args, **kwargs)

    args = {
        "taildep": ["taildep", "--input", str(price_file), "--grid", "4"],
        "dynamics": ["dynamics", "--input", str(price_file), "--grid", "4", "--window-days", "2"],
        "synth": ["synth", "--assets", "3", "--length", "130", "--seed", "3"],
    }[command]
    assert cli.main([*args, "--out", str(tmp_path / "one")]) == cli.EXIT_OK
    forks, streamed, parse = [], [], ingest._parse_prices
    for module in (ingest, synth):
        pool(module, 2)
    monkeypatch.setattr(ingest, "_parse_prices", whole_file)
    monkeypatch.setattr(os, "fork", fork)
    assert cli.main([*args, "--out", str(tmp_path / "forked")]) == cli.EXIT_OK
    # the load's ranges, or synth's sessions
    assert len(forks) == 1
    assert streamed == []
    assert _contents(tmp_path / "forked") == _contents(tmp_path / "one")


FREEZE_SCRIPT = """
import gc, json, sys

out = sys.argv[1]
import copuladyn
counts = {"import copuladyn": gc.get_freeze_count()}
from copuladyn import cli
counts["import copuladyn.cli"] = gc.get_freeze_count()
enabled = gc.isenabled()
probe = [out]  # alive across both runs
for argv in (["synth", "--assets", "3", "--length", "26", "--seed", "3", "--out", out],
             ["taildep", "--input", out + "/prices.csv", "--grid", "4", "--out", out + "/t"]):
    if cli.main(argv):
        raise SystemExit(argv[0] + " failed")
counts["two runs"] = gc.get_freeze_count()
# gc.get_objects() lists no frozen object
probe_frozen = not any(obj is probe for obj in gc.get_objects())
print(json.dumps({"counts": counts, "enabled": enabled, "probe frozen": probe_frozen}))
"""


def test_only_the_cli_import_freezes_the_heap(tmp_path):
    # a fresh interpreter: this test process imported copuladyn.cli long ago
    proc = subprocess.run([sys.executable, "-c", FREEZE_SCRIPT, str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    counts = seen["counts"]
    assert counts["import copuladyn"] == 0
    assert counts["import copuladyn.cli"] > 0
    assert seen["enabled"]
    # main freezes nothing more: a per-call freeze would keep each caller's garbage. Frozen
    # objects that the runs free leave the count, so it may only fall
    assert not seen["probe frozen"]
    assert counts["two runs"] <= counts["import copuladyn.cli"]


def _doubled(rows):
    # doubling is exact in binary floating point, so every return is bit-identical
    for row in rows:
        stamp, symbol, price = row.split(",")
        yield f"{stamp},{symbol},{float(price) * 2!r}"


def _grouped_by_symbol(rows):
    return sorted(rows, key=lambda row: row.split(",")[1])  # stable: each symbol keeps its order


def _with_pre_open_rows(rows):
    opened = set()
    for row in rows:
        stamp, symbol, _ = row.split(",")
        day = stamp[:10]
        if (day, symbol) not in opened:
            opened.add((day, symbol))
            yield f"{day}T09:29:59,{symbol},1.0"
        yield row


def _with_ticks_inside_slots(rows):
    # a tick one second before each endpoint but the open: each slot's last tick stays its own
    for row in rows:
        stamp, symbol, _ = row.split(",")
        if not stamp.endswith("T09:30:00"):
            before = dt.datetime.fromisoformat(stamp) - dt.timedelta(seconds=1)
            yield f"{before.isoformat()},{symbol},1.0"
        yield row


def _renamed_in_order(rows):
    # a common prefix keeps the symbols' alphabetical order, and so the panel's asset order
    for row in rows:
        stamp, symbol, price = row.split(",")
        yield f"{stamp},ZZ{symbol},{price}"


@pytest.mark.parametrize("relation", [_doubled, _grouped_by_symbol, _with_pre_open_rows,
                                      _with_ticks_inside_slots, _renamed_in_order],
                         ids=["prices doubled", "rows grouped by symbol", "pre-open rows",
                              "ticks inside slots", "symbols renamed in order"])
def test_metamorphic_tape_keeps_every_output(tmp_path, price_file, relation):
    # SYN000 never quotes at the open, so a pre-open quote let through would set its open price
    lines = price_file.read_text().splitlines()
    header, *rows = (row for row in lines if "T09:30:00,SYN000," not in row)
    assert len(rows) == len(lines) - 11  # one open quote in each of the 10 sessions removed
    original, altered = tmp_path / "original.csv", tmp_path / "altered.csv"
    original.write_text("\n".join([header, *rows]) + "\n")
    altered.write_text("\n".join([header, *relation(rows)]) + "\n")
    assert altered.read_bytes() != original.read_bytes()
    digest = {path: hashlib.sha256(path.read_bytes()).hexdigest() for path in (original, altered)}
    for command in ("copula", "taildep"):
        outputs = []
        for tape in (original, altered):
            out = tmp_path / f"{command}-{tape.stem}"
            argv = [command, "--input", str(tape), "--grid", "10", "--out", str(out)]
            assert cli.main(argv) == cli.EXIT_OK
            files = _contents(out)
            # the input's path and digest are the only texts the manifest may change
            files["manifest.json"] = (files["manifest.json"].decode()
                                      .replace(str(tape), "INPUT").replace(digest[tape], "DIGEST"))
            outputs.append(files)
        assert outputs[0] == outputs[1], command


def test_one_window_over_the_panel_is_the_whole_panel_run(tmp_path, price_file):
    # price_file holds 10 sessions, so 10-day windows give exactly one
    for argv in (["copula"], ["taildep"], ["dynamics", "--window-days", "10"]):
        out = str(tmp_path / argv[0])
        assert cli.main([*argv, "--input", str(price_file), "--grid", "10", "--out", out]) == 0
    windows = sorted(p.name for p in (tmp_path / "dynamics" / "windows").iterdir())
    assert windows == ["window_0001.csv"]
    grid = (tmp_path / "copula" / "grid.csv").read_bytes()
    assert (tmp_path / "dynamics" / "windows" / "window_0001.csv").read_bytes() == grid

    def columns(path, names):
        header, *rows = path.read_text().splitlines()
        at = [header.split(",").index(name) for name in names]
        return [[row.split(",")[k] for k in at] for row in rows]

    names = ["alpha", "lambda_lower", "lambda_upper"]
    relation = columns(tmp_path / "dynamics" / "relation.csv", names)
    assert relation == columns(tmp_path / "taildep" / "tail_curve.csv", names)
