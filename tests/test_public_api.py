"""The package's public names: what it exports and what outside code relies on."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import copuladyn
from copuladyn import cli

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    "__version__",
    # copula
    "CopulaGrid", "quantile_bins", "empirical_copula_density",
    "average_pairwise_density", "interpolate_cumulative", "write_grid_csv", "write_grid_csvs",
    # gaussian
    "DifferenceGrid", "std_normal_quantile", "bivariate_normal_cdf",
    "gaussian_copula_cdf", "gaussian_grid", "average_gaussian_density",
    "difference_map", "write_difference_csv",
    # ingest
    "PriceDataError", "CalendarError", "TradingCalendar", "PricePanel",
    "ReturnMatrix", "load_calendar", "load_prices", "compute_returns",
    # synth
    "SynthSpec", "sample_panel", "synthetic_timestamps", "write_price_csv",
    # taildep
    "CorrelationMatrix", "TailCurve", "WindowReport", "lower_tail", "upper_tail",
    "upper_tail_survival", "tail_curve", "pearson_matrix", "mean_correlation",
    "gaussian_tail_curve", "partition_windows",
    "window_report", "windowed_reports", "write_relation_csv", "write_tail_curve_csv",
}


def test_exports_are_exactly_the_public_names():
    assert len(copuladyn.__all__) == len(set(copuladyn.__all__))
    assert set(copuladyn.__all__) == PUBLIC
    for name in copuladyn.__all__:
        assert hasattr(copuladyn, name), name


def _copuladyn_imports(path):
    """(module, name) for each ``from copuladyn... import name`` in a script."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "copuladyn":
            for alias in node.names:
                yield node.module, alias.name


def test_benchmark_and_demo_imports_resolve():
    scripts = [ROOT / "perfbench" / "workloads.py", *sorted((ROOT / "demos").glob("*.py"))]
    found = 0
    for script in scripts:
        for module, name in _copuladyn_imports(script):
            assert hasattr(importlib.import_module(module), name), f"{script.name}: {module}.{name}"
            found += 1
    assert found > 0


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_exist():
    # the benchmark's tracer patches these names in place from outside the package
    tracer = _load_tracer()
    assert tracer.TRACED
    for module, names in tracer.TRACED.items():
        mod = importlib.import_module(module)
        for name in names:
            assert callable(getattr(mod, name, None)), f"{module}.{name}"


def test_cli_calls_each_traced_name_through_its_module(tmp_path, monkeypatch):
    # the tracer sees a call only if cli looks the name up in its own globals at
    # call time: main must call run, and run the library functions, by name
    calls = dict.fromkeys(_load_tracer().TRACED["copuladyn.cli"], 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    prices = str(tmp_path / "synth" / "prices.csv")
    commands = [
        ["synth", "--assets", "3", "--length", "26", "--seed", "2"],
        ["copula", "--input", prices, "--grid", "4"],
        ["diff", "--input", prices, "--grid", "4"],
        ["taildep", "--input", prices, "--grid", "4"],
        ["dynamics", "--input", prices, "--grid", "4", "--window-days", "1"],
    ]
    for argv in commands:
        assert cli.main([*argv, "--out", str(tmp_path / argv[0])]) == cli.EXIT_OK, argv
    assert calls["run"] == len(commands)
    assert [name for name, n in calls.items() if n == 0] == []


def test_library_tour_lists_the_reexported_modules():
    package = ROOT / "src" / "copuladyn"
    tree = ast.parse((package / "__init__.py").read_text())
    reexported = {node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  and [alias.name for alias in node.names] == ["*"]}
    assert reexported and all((package / f"{name}.py").is_file() for name in reexported)
    tour = (ROOT / "README.md").read_text().split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `copuladyn\.(\w+)`", tour, flags=re.MULTILINE)
    assert sorted(listed) == sorted(reexported)
