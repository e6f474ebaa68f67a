"""Tests of the benchmark itself: PYTHONPATH=src python -m pytest bench -q"""

from __future__ import annotations

import itertools
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import decks  # noqa: E402
import report  # noqa: E402
from stats import tail_percentile  # noqa: E402
import worker  # noqa: E402
from tracing import Span, Tracer, installed_wrappers, summarize  # noqa: E402


# -- tail percentile -----------------------------------------------------------

@pytest.mark.parametrize("n", [11, 12, 48, 100, 160, 287, 1000])
def test_tail_percentile_leaves_exactly_ten_samples_beyond(n):
    values = [float(v) for v in itertools.islice(itertools.count(7, 13), n)]
    pct, value, count = tail_percentile(values[::-1])
    assert count == n
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_percentile_is_the_highest_such_percentile():
    values = list(range(1, 201))
    pct, value, _ = tail_percentile(values)
    assert (pct, value) == (95.0, 190)
    # one rank higher would leave only nine samples beyond
    assert sum(v > values[190] for v in values) == 9


def test_tail_percentile_with_too_few_samples_is_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)
    assert tail_percentile([float(v) for v in range(10)]) == (100.0, 9.0, 10)


# -- self-time arithmetic --------------------------------------------------------

def _fn(summary, name):
    return summary["functions"][name]


def test_self_time_of_nested_spans():
    outer = Span("risk.optimal_lambda", 0.0, 10.0)
    mid = Span("fixed_point.solve_mu", 1.0, 4.0, outer)
    inner = Span("fixed_point.mu_zero", 2.0, 3.0, mid)
    s = summarize([inner, mid, outer])
    assert _fn(s, "risk.optimal_lambda")["self_s"] == 7.0
    assert _fn(s, "fixed_point.solve_mu")["self_s"] == 2.0
    assert _fn(s, "fixed_point.mu_zero")["self_s"] == 1.0
    assert s["nested"]["fixed_point.mu_zero|fixed_point.solve_mu"] == 1
    assert s["nested"]["fixed_point.solve_mu|risk.optimal_lambda"] == 1


def test_self_time_subtracts_every_child_once():
    parent = Span("simulate.mc_experiment", 0.0, 10.0)
    kids = [Span("simulate.RidgeFactorization", 1.0, 3.0, parent),
            Span("simulate.RidgeFactorization", 4.0, 7.0, parent)]
    s = summarize([*kids, parent])
    assert _fn(s, "simulate.mc_experiment")["self_s"] == 5.0
    assert _fn(s, "simulate.RidgeFactorization")["self_s"] == 5.0


def test_self_time_of_reentrant_calls_sums_to_the_outer_duration():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def f(n):
        return n if n == 0 else traced(n - 1)

    traced = tracer.wrap("fixed_point.solve_mu", f)
    traced(2)
    s = tracer.summary()
    solve = _fn(s, "fixed_point.solve_mu")
    # spans [0, 5], [1, 4], [2, 3]: self times 2 + 2 + 1
    assert solve["calls"] == 3
    assert solve["self_s"] == 5.0
    assert solve["incl_s"] == 5.0 + 3.0 + 1.0


def test_installed_wrappers_time_solve_mu_around_mu_zero():
    from ridgeshift import Spectrum, fixed_point

    tracer = Tracer()
    tracer.install()
    try:
        assert "ridgeshift.fixed_point.mu_zero" in installed_wrappers()
        assert "ridgeshift.risk.solve_mu" in installed_wrappers()
        fixed_point.solve_mu(Spectrum.identity(4), 0.5, 2.0)
    finally:
        tracer.uninstall()
    assert installed_wrappers() == []
    s = tracer.summary()
    solve = _fn(s, "fixed_point.solve_mu")
    assert solve["calls"] == 1 and _fn(s, "fixed_point.mu_zero")["calls"] == 1
    assert s["nested"]["fixed_point.mu_zero|fixed_point.solve_mu"] == 1
    total_self = sum(f["self_s"] for f in s["functions"].values())
    assert total_self == pytest.approx(solve["incl_s"], rel=1e-9)


# -- decks -----------------------------------------------------------------------

@pytest.mark.parametrize("make", [
    lambda seed: decks.theory_round(seed, 0),
    lambda seed: decks.theory_round(seed, 3),
    lambda seed: decks.mc_round(seed, 0),
    lambda seed: decks.cli_commands(seed),
    lambda seed: decks.cli_round(seed, 1, decks.cli_commands(seed)),
    lambda seed: decks.cli_configs(seed)["file3000"]["spectrum_values"],
])
def test_same_seed_same_deck_other_seed_other_deck(make):
    assert make(1) == make(1)
    assert make(1) != make(2)


def test_rounds_keep_their_composition():
    def composition(tasks, key):
        return sorted(tuple(t[k] for k in key) for t in tasks)

    key = ("model", "kind")
    assert composition(decks.theory_round(1, 0), key) == composition(decks.theory_round(2, 5), key)
    assert composition(decks.mc_round(1, 0), ("cell",)) == composition(decks.mc_round(9, 2),
                                                                      ("cell",))
    assert len(decks.theory_round(1, 0)) == 60
    assert {t["sub"] for t in decks.cli_commands(1)} == set(decks.CLI_SUBCOMMANDS)
    # the ten short p = 500 commands twice, the other eight once
    assert len(decks.cli_round(1, 0, decks.cli_commands(1))) == 28


def test_mc_check_expects_the_risk_of_the_cells_own_subsample_count():
    from ridgeshift import risk

    models = decks.build_mc_models(1)
    ens = next(t for t in decks.mc_round(1, 0) if t["cell"] == "ens3-p300-phi0.5")
    plain = next(t for t in decks.mc_round(1, 0) if t["kind"] == "plain")
    lam = ens["lambdas"][0]
    m = models[ens["model"]]
    full = risk.ensemble_risk(m, lam, ens["phi"], ens["psi"]).total
    single = risk.risk_decomposition(m, lam, ens["psi"]).total
    expected = decks.expected_mc_risk(ens, models, lam, full)
    assert expected == pytest.approx(full + (single - full) / ens["subsamples"], rel=1e-12)
    assert full < expected < single
    assert decks.expected_mc_risk(plain, models, plain["lambdas"][0], 0.5) == 0.5

    def cells(scale):
        out = []
        for x in ens["lambdas"]:
            t = risk.ensemble_risk(m, x, ens["phi"], ens["psi"]).total
            out.append((x, ens["psi"], False, scale * decks.expected_mc_risk(ens, models, x, t),
                        1e-6, t))
        return out

    assert decks.check_mc_task(ens, cells(1.0), models) is None
    assert decks.check_mc_task(ens, cells(1.12), models) is not None


def test_same_seed_same_models():
    a, b, c = (decks.build_theory_models(s) for s in (1, 1, 2))
    assert len(a) == 12
    name = "p48-joint-1"
    assert (a[name].spectrum.eigenvalues == b[name].spectrum.eigenvalues).all()
    assert (a[name].spectrum.eigenvalues != c[name].spectrum.eigenvalues).any()


# -- the untraced run ---------------------------------------------------------------

def test_untraced_run_installs_no_wrapper(tmp_path, capsys, monkeypatch):
    for var, value in worker.blas_env().items():
        monkeypatch.setenv(var, value)  # restored after the test
    assert worker.main(["--workload", "montecarlo", "--seed", "1", "--mode", "run",
                        "--seconds", "0", "--workdir", str(tmp_path)]) == 0
    assert installed_wrappers() == []
    result = json.loads(capsys.readouterr().out.splitlines()[-1][len("RESULT "):])
    assert "summary" not in result
    assert all(t["error"] is None for t in result["tasks"])
    assert len(result["tasks"]) == len(decks.MC_CELLS)


# -- BENCHMARK.json --------------------------------------------------------------

def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(report.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(report.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [w["name"] for w in spec["workloads"]] + list(bounds) + \
        [m["name"] for m in spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(spec["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
