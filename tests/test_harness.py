"""Tests for configuration parsing, benchmarks, the sweep engine, and CLI.

Determinism is checked at the byte level (repeat runs and worker counts);
benchmark schemes against their closed forms; region tables against the
monotonicity the scalar analysis guarantees; the CLI through subprocesses.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from typing import get_type_hints

import numpy as np
import pytest

import backci
from backci import cli, convex, harness
from backci.beamforming import consensual_sca, divergence_floors
from backci.channel import SystemParams, gen_channel_set
from backci.detection import detection_stats
from backci.harness import (
    ALGORITHMS,
    CSV_HEADER,
    SweepConfig,
    ci_region_report,
    params_from_config,
    parse_config,
    record_row,
    run_benchmark,
    run_sweep,
    sweep_from_config,
    write_csv,
)
from backci.selection import greedy_select, random_select


def small_sweep(**kw):
    base = kw.pop("base", SystemParams(K=3, M=2))
    d = dict(values=[0.2, 0.6], trials=3,
             algorithms=["consensual", "canceled_dli", "harmful_dli",
                         "random_sel"],
             base=base)
    d.update(kw)
    return SweepConfig(**d)


class TestParseConfig:
    def test_typed_values_and_comments(self):
        text = """
        # comment line
        K = 4
        sigma_s2 = 0.4        # trailing comment
        values = 0.2, 0.4, 0.8
        algorithms = consensual, evolved
        sweep_var = sigma_s2
        out_path = /tmp/x.csv
        """
        cfg = parse_config(text)
        assert cfg["K"] == 4 and isinstance(cfg["K"], int)
        assert cfg["sigma_s2"] == 0.4
        assert cfg["values"] == [0.2, 0.4, 0.8]
        assert cfg["algorithms"] == ["consensual", "evolved"]
        assert cfg["out_path"] == "/tmp/x.csv"
        params = params_from_config(cfg)
        assert params.K == 4 and params.sigma_s2 == 0.4

    @pytest.mark.parametrize("text", [
        "bogus_key = 3",
        "K = 4\nK = 5",
        "K = not_a_number",
        "just some words",
    ])
    def test_bad_input_fails_loud(self, text):
        with pytest.raises(ValueError):
            parse_config(text)

    def test_every_param_field_is_a_typed_key(self):
        hints = get_type_hints(SystemParams)
        for f in fields(SystemParams):
            cfg = parse_config(f"{f.name} = 1")
            want = int if hints[f.name] is int else float
            assert type(cfg[f.name]) is want, f.name
            assert getattr(params_from_config(cfg), f.name) == 1
            if want is int:
                with pytest.raises(ValueError, match="bad value"):
                    parse_config(f"{f.name} = 3.5")

    def test_sweep_and_region_keys_parse(self):
        cfg = parse_config("sweep_var = rho\nvalues = 2, 3.5\ntrials = 4\n"
                           "algorithms = consensual, evolved\n"
                           "out_path = o.csv\nregion_var = rho\n"
                           "region_values = 2.5, 3\nh_sr_mag = 1\n"
                           "h_str_mag = 2")
        assert cfg == {"sweep_var": "rho", "values": [2.0, 3.5],
                       "trials": 4, "algorithms": ["consensual", "evolved"],
                       "out_path": "o.csv", "region_var": "rho",
                       "region_values": [2.5, 3.0], "h_sr_mag": 1.0,
                       "h_str_mag": 2.0}
        assert type(cfg["trials"]) is int
        assert type(cfg["h_sr_mag"]) is float
        sc = sweep_from_config(cfg)
        assert (sc.sweep_var, sc.values, sc.trials, sc.algorithms,
                sc.out_path) == ("rho", [2.0, 3.5], 4,
                                 ["consensual", "evolved"], "o.csv")
        with pytest.raises(ValueError, match="bad value"):
            parse_config("trials = 2.5")

    @pytest.mark.parametrize("cfg", [
        {"sweep_var": "bogus"},
        {"values": []},
        {"values": [0.4, 0.2, 0.6]},
        {"trials": 0},
        {"algorithms": ["consensual", "bogus"]},
        {"algorithms": []},
        {"sweep_var": "M", "values": [2.5, 3.5]},
        {"sweep_var": "Q", "values": [1, 2],
         "algorithms": ["consensual", "harmful_dli"]},
    ])
    def test_invalid_sweep_rejected(self, cfg):
        with pytest.raises(ValueError):
            sweep_from_config(dict(cfg))


class TestRunBenchmark:
    def test_canceled_is_matched_filter_on_best_tag(self):
        params = SystemParams(K=3, M=2)
        ch = gen_channel_set(params, 1)
        res = run_benchmark(ch, params, "canceled_dli")
        assert res.best is not None
        k = res.selected_tag - 1
        hs = ch.h_str[k]
        assert res.best.snr == pytest.approx(
            params.gamma * np.vdot(hs, hs).real, rel=1e-12)
        # argmax over the feasible tags
        for sol in res.per_tag:
            if sol.feasible:
                assert res.best.snr >= sol.snr

    def test_harmful_equals_canceled_without_direct_link(self):
        params = SystemParams(K=3, M=2)
        ch = gen_channel_set(params, 1)
        ch0 = replace(ch, h_sr=np.zeros_like(ch.h_sr),
                      h0=np.zeros_like(ch.h0), h1=ch.h_str.copy())
        h = run_benchmark(ch0, params, "harmful_dli")
        c = run_benchmark(ch0, params, "canceled_dli")
        assert h.selected_tag == c.selected_tag
        if h.best is not None:
            assert h.best.snr == pytest.approx(c.best.snr, rel=1e-12)

    def test_interference_only_hurts(self):
        # the MMSE filter's SINR with the DL present never beats the
        # matched filter's SNR with the DL gone, realization by realization
        params = SystemParams(K=3, M=2)
        for trial in range(200):
            ch = gen_channel_set(params, trial)
            h = run_benchmark(ch, params, "harmful_dli")
            c = run_benchmark(ch, params, "canceled_dli")
            if h.best is None:
                continue
            assert c.best is not None
            assert h.best.snr <= c.best.snr * (1.0 + 1e-9)

    def test_schemes_judge_the_floor_alike(self):
        # With h0 = 0 both schemes use the matched filter on hs, so they
        # must agree on feasibility.  gamma ||hs||^2 sits 1e-8 below
        # F_without - 1, inside the KLD tolerance the designs verify with.
        params = SystemParams(K=1, M=2)
        ch = gen_channel_set(params, 1)
        _d, _e, _fw, f_without = divergence_floors(params)
        hs = ch.h_str[0]
        hs = hs * np.sqrt((f_without - 1.0 - 1e-8)
                          / (params.gamma * np.vdot(hs, hs).real))
        ch0 = replace(ch, h_sr=np.zeros_like(ch.h_sr),
                      h0=np.zeros_like(ch.h0), h_str=hs[None],
                      h1=hs[None].copy())
        h = run_benchmark(ch0, params, "harmful_dli")
        c = run_benchmark(ch0, params, "canceled_dli")
        assert h.per_tag[0].feasible and c.per_tag[0].feasible
        assert (h.per_tag[0].stats.kld_without
                == pytest.approx(c.per_tag[0].stats.kld_without, rel=1e-12))

    @pytest.mark.filterwarnings("error")
    def test_zero_backscatter_is_infeasible(self):
        # alpha = 0 zeroes every backscatter channel: no tag can clear the
        # no-DL floor, and neither scheme may raise or divide by zero.
        params = SystemParams(alpha=0.0, K=2, M=2)
        ch = gen_channel_set(params, 0)
        for scheme in ("harmful_dli", "canceled_dli"):
            res = run_benchmark(ch, params, scheme)
            assert res.selected_tag == 0 and res.best is None

    def test_rejects_unknown_scheme_and_mimo(self):
        params = SystemParams(K=2, M=2)
        ch = gen_channel_set(params, 0)
        with pytest.raises(ValueError):
            run_benchmark(ch, params, "bogus")
        pq = SystemParams(K=2, M=2, Q=2)
        chq = gen_channel_set(pq, 0)
        with pytest.raises(ValueError):
            run_benchmark(chq, pq, "harmful_dli")


def cell_by_cell_csv(cfg):
    """The CSV bytes of cfg's sweep built one cell at a time: greedy_select
    for the designs, random_select for random_sel and run_benchmark for
    the schemes, each cell's channels and draw keyed as run_sweep keys
    them."""
    rows = []
    for vi, value in enumerate(cfg.values):
        for trial in range(cfg.trials):
            params = harness._with_value(cfg.base, cfg.sweep_var, value)
            ch = gen_channel_set(params, np.random.SeedSequence(
                (params.seed, vi, trial)))
            rng = np.random.default_rng(np.random.SeedSequence(
                (params.seed, vi, trial, 1)))
            for algorithm in sorted(cfg.algorithms):
                if algorithm == "random_sel":
                    res = random_select(ch, params, "consensual", rng)
                elif algorithm in ("consensual", "evolved"):
                    res = greedy_select(ch, params, algorithm)
                else:
                    res = run_benchmark(ch, params, algorithm)
                rows.append(record_row(harness._record_from(
                    cfg.sweep_var, value, trial, algorithm, res)))
    return ("\n".join([CSV_HEADER] + rows) + "\n").encode()


class TestRunSweep:
    def test_single_cell_single_algorithm(self):
        cfg = small_sweep(values=[0.6], trials=1, algorithms=["consensual"])
        records = run_sweep(cfg)
        assert len(records) == 1
        r = records[0]
        assert (r.sweep_var, r.value, r.trial, r.algorithm) == \
            ("sigma_s2", 0.6, 0, "consensual")

    def test_csv_header_and_shape(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = small_sweep(out_path=str(out))
        records = run_sweep(cfg)
        lines = out.read_text().splitlines()
        assert lines[0] == ("sweep_var,value,trial,algorithm,selected_tag,"
                            "snr_db,kld_with,kld_without,dep_bound_with,"
                            "dep_bound_without,feasible,iterations")
        assert CSV_HEADER == lines[0]
        assert len(lines) == 1 + len(records)
        assert len(records) == 2 * 3 * 4
        for line in lines[1:]:
            assert len(line.split(",")) == 12

    def test_records_sorted(self):
        records = run_sweep(small_sweep())
        keys = [(r.value, r.trial, r.algorithm) for r in records]
        assert keys == sorted(keys)

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        outs = []
        for name, workers in (("a.csv", 1), ("b.csv", 1), ("c.csv", 3)):
            out = tmp_path / name
            run_sweep(small_sweep(out_path=str(out)), workers=workers)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_m_sweep_matches_cell_by_cell_reference(self, tmp_path):
        # Its chunks mix QCQP dimensions; random_sel keeps the greedy
        # solution of the tag it draws.
        cfg = small_sweep(sweep_var="M", values=[1, 2, 4, 8], trials=3,
                          algorithms=["consensual", "random_sel"],
                          base=SystemParams())
        outs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}.csv"
            run_sweep(replace(cfg, out_path=str(out)), workers=workers)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == cell_by_cell_csv(cfg)

    @pytest.mark.parametrize("algorithms, base, per_cell", [
        (["consensual", "evolved", "random_sel"],
         SystemParams(K=3, M=2, Q=2, T=30), 6),
        (["evolved"], SystemParams(K=3, M=4, T=30), 3),
        (["random_sel"], SystemParams(K=3, M=2, Q=2), 1)])
    def test_one_lockstep_call_per_chunk(self, tmp_path, monkeypatch,
                                         algorithms, base, per_cell):
        # One 8-cell chunk: every design solve of it, at Q = 1 or 2, goes
        # through a single driver call, K generators per design and cell
        # plus the random baseline's drawn tag where no consensual run
        # holds it, and its rows are the ones greedy and random selection
        # give cell by cell.
        cfg = small_sweep(values=[0.2, 0.6], trials=4, algorithms=algorithms,
                          base=base, out_path=str(tmp_path / "s.csv"))
        assert len(cfg.values) * cfg.trials == harness._CHUNK
        calls = []
        driver = harness.lockstep

        def spied(gens):
            calls.append(len(gens))
            return driver(gens)

        with monkeypatch.context() as mp:
            mp.setattr(harness, "lockstep", spied)
            run_sweep(cfg)
        assert calls == [harness._CHUNK * per_cell]
        assert (tmp_path / "s.csv").read_bytes() == cell_by_cell_csv(cfg)

    def test_mimo_rows_meet_floors_and_ignore_workers(self, tmp_path):
        # Q = 2 sends every tag through the alternating MIMO design.
        d_min, e_min, _fw, _fo = divergence_floors(SystemParams())
        outs = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}.csv"
            records = run_sweep(small_sweep(
                sweep_var="M", values=[2, 3], trials=3,
                algorithms=["consensual", "random_sel"],
                base=SystemParams(K=2, Q=2), out_path=str(out)),
                workers=workers)
            outs.append(out.read_bytes())
        feas = [r for r in records if r.feasible]
        assert feas
        for r in feas:
            assert r.kld_with >= d_min - 1e-6
            assert r.kld_without >= e_min - 1e-6
        assert outs[0] == outs[1]

    def test_no_more_workers_than_cells(self, monkeypatch):
        # The pool is a fake that records its size and maps in this
        # process, so no worker process starts.  One worker per chunk of
        # harness._CHUNK cells at most: a single chunk starts no pool.
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *_exc):
                return False

            def map(self, fn, cells, chunksize=1):
                return map(fn, cells)

        monkeypatch.setattr(harness.futures, "ProcessPoolExecutor", Pool)
        cfg = small_sweep(values=[0.6], trials=2, algorithms=["canceled_dli"])
        assert run_sweep(cfg, workers=50) == run_sweep(cfg, workers=1)
        assert sizes == []
        cfg = small_sweep(values=[0.2, 0.4, 0.6], trials=6,
                          algorithms=["canceled_dli"])
        assert len(cfg.values) * cfg.trials == 2 * harness._CHUNK + 2
        assert run_sweep(cfg, workers=50) == run_sweep(cfg, workers=1)
        assert run_sweep(cfg, workers=2) == run_sweep(cfg, workers=1)
        assert sizes == [3, 2]

    def test_bad_swept_value_refused_before_any_cell(self, monkeypatch):
        cells = []
        monkeypatch.setattr(harness, "_sweep_chunk",
                            lambda chunk: cells.extend(chunk) or [])
        cfg = small_sweep(sweep_var="zeta_max", values=[0.5, 0.7, 1.5])
        with pytest.raises(ValueError, match="zeta_max = 1.5"):
            run_sweep(cfg)
        assert cells == []

    @pytest.mark.parametrize("workers", [0, -1])
    def test_refuses_fewer_than_one_worker(self, workers):
        with pytest.raises(ValueError, match="workers"):
            run_sweep(small_sweep(), workers=workers)

    def test_feasible_rows_recompute(self):
        # every feasible record's stats must equal recomputation from the
        # algorithm's own (v, channels) pair
        cfg = small_sweep(algorithms=["consensual"], trials=6)
        records = run_sweep(cfg)
        checked = 0
        for r in records:
            if not r.feasible:
                assert r.selected_tag == 0 and math.isnan(r.snr_db)
                continue
            vi = cfg.values.index(r.value)
            params = replace(cfg.base, sigma_s2=r.value)
            ch = gen_channel_set(params, np.random.SeedSequence(
                (params.seed, vi, r.trial)))
            sol = consensual_sca(ch.tag_channels(r.selected_tag - 1), params)
            st = detection_stats(sol.v, *ch.tag_channels(r.selected_tag - 1),
                                 params.sigma_s2, params.sigma_w2, params.N)
            assert r.dep_bound_with == pytest.approx(st.dep_bound_with,
                                                     abs=1e-9)
            assert r.dep_bound_without == pytest.approx(
                st.dep_bound_without, abs=1e-9)
            assert r.snr_db == pytest.approx(10 * math.log10(sol.snr),
                                             abs=1e-9)
            assert 0.0 <= r.dep_bound_with <= 1.0
            assert 0.0 <= r.dep_bound_without <= 1.0
            checked += 1
        assert checked >= 3

    def test_evolved_records_keep_dl_constructive(self):
        cfg = small_sweep(algorithms=["evolved"], trials=6,
                          base=SystemParams(K=3, M=2, T=20))
        records = run_sweep(cfg)
        feas = [r for r in records if r.feasible]
        assert feas
        for r in feas:
            assert r.kld_with >= r.kld_without - 1e-6

    def test_random_sel_uses_trial_keyed_stream(self):
        cfg = small_sweep(algorithms=["random_sel"], trials=5)
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        assert [(r.selected_tag, r.snr_db) for r in a] == \
            [(r.selected_tag, r.snr_db) for r in b]
        # and the draw matches calling the baseline directly
        for r in a:
            if not r.feasible:
                continue
            vi = cfg.values.index(r.value)
            params = replace(cfg.base, sigma_s2=r.value)
            ch = gen_channel_set(params, np.random.SeedSequence(
                (params.seed, vi, r.trial)))
            rng = np.random.default_rng(np.random.SeedSequence(
                (params.seed, vi, r.trial, 1)))
            res = random_select(ch, params, "consensual", rng)
            assert res.selected_tag == r.selected_tag

    def test_write_csv_newline_discipline(self, tmp_path):
        out = tmp_path / "n.csv"
        records = run_sweep(small_sweep(values=[0.6], trials=1,
                                        algorithms=["canceled_dli"]))
        write_csv(records, str(out))
        data = out.read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data

    def test_write_csv_failure_keeps_previous_file(self, tmp_path):
        # The last row cannot be encoded as ASCII, so the write raises
        # after the file is opened; the earlier CSV must survive it whole.
        out = tmp_path / "keep.csv"
        records = run_sweep(small_sweep(values=[0.6], trials=2,
                                        algorithms=["canceled_dli"]))
        write_csv(records, str(out))
        before = out.read_bytes()
        bad = records[:1] + [replace(records[-1], algorithm="canceled_dlí")]
        with pytest.raises(UnicodeEncodeError):
            write_csv(bad, str(out))
        assert out.read_bytes() == before
        assert os.listdir(tmp_path) == ["keep.csv"]


class TestCiRegionReport:
    def test_trivial_tolerance_row(self):
        rows = ci_region_report("zeta_max", [1.0], SystemParams())
        _var, _val, lo, _hi, theta = rows[0]
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert theta == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_monotone_in_tolerance(self):
        zs = np.linspace(0.05, 1.0, 12)
        rows = ci_region_report("zeta_max", zs, SystemParams(),
                                h_sr_mag=0.7, h_str_mag=0.9)
        los = [r[2] for r in rows]
        his = [r[3] for r in rows]
        thetas = [r[4] for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(los, los[1:]))
        assert all(h == his[0] for h in his)
        assert all(b >= a - 1e-12 for a, b in zip(thetas, thetas[1:]))

    def test_rho_mode_scales_both_links(self):
        rows = ci_region_report("rho", [2.0, 2.5, 3.0],
                                SystemParams(d_sr=3.0, d_st=3.0, d_tr=3.0))
        # weaker links with growing path loss: the floor rises
        los = [r[2] for r in rows]
        assert los == sorted(los)

    def test_csv_emission(self, tmp_path):
        out = tmp_path / "region.csv"
        ci_region_report("zeta_max", [0.5, 1.0], SystemParams(),
                         out_path=str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "var,value,gamma_lo,gamma_hi,theta_max"
        assert len(lines) == 3

    def test_rejects_bad_variable(self):
        with pytest.raises(ValueError):
            ci_region_report("sigma_s2", [0.5], SystemParams())

    @pytest.mark.parametrize("var, values, mags, name", [
        ("zeta_max", [0.5, math.nan], (1.0, 1.0), "zeta_max = nan"),
        ("rho", [2.0, math.inf], (1.0, 1.0), "rho = inf"),
        ("zeta_max", [0.5], (math.nan, 1.0), "h_sr_mag = nan"),
        ("zeta_max", [0.5], (1.0, math.inf), "h_str_mag = inf")])
    def test_rejects_non_finite_before_any_row(self, tmp_path, var, values,
                                               mags, name):
        out = tmp_path / "region.csv"
        with pytest.raises(ValueError, match=name):
            ci_region_report(var, values, SystemParams(), h_sr_mag=mags[0],
                             h_str_mag=mags[1], out_path=str(out))
        assert not out.exists()


    @pytest.mark.parametrize("var, values, name", [
        ("rho", [-2.0, 0.0], "rho = -2.0: "),
        ("rho", [2.0, 0.0], "rho = 0.0: "),
        ("zeta_max", [0.5, 1.5], "zeta_max = 1.5: "),
        ("zeta_max", [0.0, 0.5], "zeta_max = 0.0: ")])
    def test_rejects_what_system_params_refuses(self, tmp_path, var, values,
                                                name):
        # The row's parameters must be a valid SystemParams; the message
        # names the key and value as validate_sweep's does.
        out = tmp_path / "region.csv"
        with pytest.raises(ValueError, match=f"^{name}"):
            ci_region_report(var, values, SystemParams(), out_path=str(out))
        assert not out.exists()


class TestCli:
    def run_cli(self, *argv):
        # The child imports backci from where this process found it.
        src = os.path.dirname(os.path.dirname(backci.__file__))
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "backci", *argv],
                              capture_output=True, text=True, timeout=300,
                              env=dict(os.environ, PYTHONPATH=path))

    def test_selftest_passes(self):
        proc = self.run_cli("selftest")
        assert proc.returncode == 0
        assert "5/5 checks passed" in proc.stdout

    def test_solve_reports_feasible(self):
        proc = self.run_cli("solve", "--seed", "1")
        assert proc.returncode == 0
        assert "consensual" in proc.stdout and "tag" in proc.stdout

    def test_sweep_writes_csv(self, tmp_path):
        cfgf = tmp_path / "s.cfg"
        cfgf.write_text("K = 3\nM = 2\nvalues = 0.2, 0.6\ntrials = 2\n"
                        "algorithms = consensual, canceled_dli\n")
        out = tmp_path / "out.csv"
        proc = self.run_cli("sweep", "--config", str(cfgf),
                            "--out", str(out))
        assert proc.returncode == 0
        assert out.read_text().splitlines()[0] == CSV_HEADER

    def test_config_error_exit_code(self, tmp_path):
        cfgf = tmp_path / "bad.cfg"
        cfgf.write_text("bogus_key = 1\n")
        proc = self.run_cli("sweep", "--config", str(cfgf))
        assert proc.returncode == 1
        assert "bogus_key" in proc.stderr

    def test_zero_workers_exit_code(self, tmp_path, capsys):
        cfgf = tmp_path / "w.cfg"
        cfgf.write_text("K = 2\nM = 2\nvalues = 0.2\ntrials = 1\n"
                        "algorithms = canceled_dli\n")
        assert cli.main(["sweep", "--config", str(cfgf), "--workers",
                         "0"]) == 1
        assert "workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["sigma_s2 = nan", "rho = inf"])
    def test_non_finite_param_exit_code(self, tmp_path, capsys, line):
        # A non-finite parameter is a configuration error, not a solver
        # failure or an infeasible realization (exit 2).
        cfgf = tmp_path / "nf.cfg"
        cfgf.write_text(line + "\n")
        assert cli.main(["solve", "--config", str(cfgf)]) == 1
        assert f"{line.split()[0]} must be finite" in capsys.readouterr().err

    def test_region_extreme_path_loss(self, tmp_path, capsys):
        # At rho = 400 |h_str|^2 underflows: the floor SNR is beyond the
        # float range, so the row reads gamma_lo = inf and no angle.  At
        # rho = 600 both SNR bounds are beyond it, which is refused as a
        # configuration error.
        cfgf = tmp_path / "r.cfg"
        out = tmp_path / "r.csv"
        cfgf.write_text("region_var = rho\nregion_values = 2, 400\n")
        assert cli.main(["ci-region", "--config", str(cfgf),
                         "--out", str(out)]) == 0
        row = out.read_text().splitlines()[2].split(",")
        assert row[2] == "inf" and math.isfinite(float(row[3]))
        assert row[4] == "nan"
        cfgf.write_text("region_var = rho\nregion_values = 2, 600\n")
        assert cli.main(["ci-region", "--config", str(cfgf),
                         "--out", str(out)]) == 1
        assert "too small" in capsys.readouterr().err

    def test_all_infeasible_exit_code(self, tmp_path):
        cfgf = tmp_path / "inf.cfg"
        cfgf.write_text("K = 2\nM = 2\nzeta_max = 0.01\n"
                        "values = 0.0001, 0.0002\ntrials = 2\n"
                        "algorithms = consensual, canceled_dli\n")
        proc = self.run_cli("sweep", "--config", str(cfgf))
        assert proc.returncode == 2

    def test_zero_alpha_sweep_exit_code(self, tmp_path):
        # Every algorithm, the benchmark schemes too, finds each tag
        # infeasible, so the sweep completes and exits 2.
        cfgf = tmp_path / "a0.cfg"
        cfgf.write_text("alpha = 0\nK = 2\nM = 2\nvalues = 0.6\n"
                        "trials = 1\n")
        assert cli.main(["sweep", "--config", str(cfgf)]) == 2

    def test_iteration_cap_is_not_infeasible(self, tmp_path, monkeypatch):
        # A consensual solve that ends max_iter certifies no infeasibility:
        # that is exit 3, not the infeasibility of exit 2.  At M = 8 some
        # QCQP of both runs needs more than one Newton step.
        monkeypatch.setattr(convex, "_MAX_NEWTON", 1)
        cfgf = tmp_path / "cap.cfg"
        cfgf.write_text("K = 2\nM = 8\nT = 5\nvalues = 0.2, 0.6\n"
                        "trials = 2\nalgorithms = consensual, evolved\n")
        assert cli.main(["solve", "--config", str(cfgf), "--seed", "1"]) == 3
        assert cli.main(["sweep", "--config", str(cfgf)]) == 3

    @pytest.mark.parametrize("line", ["h_sr_mag = 0", "h_str_mag = 0"])
    def test_region_zero_magnitude_exit_code(self, tmp_path, capsys, line):
        cfgf = tmp_path / "z.cfg"
        cfgf.write_text(line + "\n")
        assert cli.main(["ci-region", "--config", str(cfgf),
                         "--out", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("line", ["region_values = 0.5, nan",
                                      "region_var = rho\nregion_values = inf",
                                      "h_sr_mag = nan", "h_str_mag = inf"])
    def test_region_non_finite_exit_code(self, tmp_path, capsys, line):
        # A configuration error, not a row of NaN or pi/2 and exit 0.
        cfgf = tmp_path / "nf.cfg"
        cfgf.write_text(line + "\n")
        out = tmp_path / "r.csv"
        assert cli.main(["ci-region", "--config", str(cfgf),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "must be finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("line, name", [
        ("region_var = rho\nregion_values = -2, 0", "rho = -2.0: "),
        ("region_values = 0.5, 2", "zeta_max = 2.0: ")])
    def test_region_refused_value_exit_code(self, tmp_path, capsys, line,
                                            name):
        cfgf = tmp_path / "bad.cfg"
        cfgf.write_text(line + "\n")
        out = tmp_path / "r.csv"
        assert cli.main(["ci-region", "--config", str(cfgf),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("values", ["2, inf", "2, nan"])
    def test_non_finite_swept_value_exit_code(self, tmp_path, capsys,
                                              values):
        # Refused by name before the integer and monotonicity checks.
        cfgf = tmp_path / "nf.cfg"
        cfgf.write_text(f"sweep_var = M\nvalues = {values}\n")
        assert cli.main(["sweep", "--config", str(cfgf), "--out",
                         str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: M = ") and "must be finite" in err
        assert "Traceback" not in err

    def test_region_subcommand(self, tmp_path):
        out = tmp_path / "r.csv"
        proc = self.run_cli("ci-region", "--out", str(out))
        assert proc.returncode == 0
        assert out.read_text().startswith("var,value,gamma_lo")
