import contextlib
import copy
import functools
import io
import json
import logging
import math
import operator
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tfslab import cli
from tfslab.errors import ConfigError, MLOverflowError


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def forward_config(**overrides):
    cfg = {
        "problem": "forward",
        "grid": {"L": 1.0, "m": 63},
        "time": {"T": 1.0, "n_t": 20},
        "order": {"alpha": 0.5, "phase": "standard_i"},
        "operator": {"analytic": True},
        "n_modes": 6,
        "mask": {"intervals": [[0.2, 0.4]]},
        "initial": {"kind": "mode", "index": 1},
    }
    cfg.update(overrides)
    return cfg


def inversion_config(problem, truth, inversion):
    cfg = forward_config(problem=problem, n_modes=4, truth=truth,
                         inversion=inversion)
    del cfg["initial"]
    return cfg


SOURCE_TRUTH = {"rho": {"kind": "const", "value": 1.0},
                "g": {"kind": "mode", "index": 1}}
ORDER_TRUTH = {"alpha": 0.5, "initial": {"kind": "mode", "index": 1}}


class TestForwardCommand:
    def test_single_mode_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path, forward_config())
        out = str(tmp_path / "out")
        rc = cli.main(["forward", "--config", cfg, "--output", out])
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["checks"]["kernel_trajectory_max_dev"] <= 1e-12
        assert sorted(report["artifacts"]) == [
            "eigensystem.json", "field.csv", "field.json"]
        for name in report["artifacts"] + ["report.json"]:
            assert (tmp_path / "out" / name).exists()
        header = (tmp_path / "out" / "field.csv").read_text().splitlines()[0]
        assert header == "t,x,re_y,im_y"

    def test_field_csv_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path, forward_config())
        out = str(tmp_path / "out")
        assert cli.main(["forward", "--config", cfg, "--output", out]) == 0
        rows = (tmp_path / "out" / "field.csv").read_text().splitlines()[1:]
        t0, x0, re0, im0 = rows[0].split(",")
        assert float(t0) == 0.05
        assert abs(complex(float(re0), float(im0))) < 10.0

    def test_separable_source_accepted(self, tmp_path):
        cfg = forward_config()
        cfg["source"] = {"kind": "separable",
                         "rho": {"kind": "const", "value": 1.0},
                         "g": {"kind": "mode", "index": 2}}
        path = write_config(tmp_path, cfg)
        assert cli.main(["forward", "--config", path,
                         "--output", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("g_mode", [1, 2])
    def test_trajectory_check_counts_the_source(self, tmp_path, g_mode):
        # a source on the initial datum's own mode is part of that mode's
        # response, not a deviation from it
        cfg = forward_config(n_modes=8, time={"T": 1.0, "n_t": 50})
        cfg["source"] = {"kind": "separable",
                         "rho": {"kind": "const", "value": 1.0},
                         "g": {"kind": "mode", "index": g_mode}}
        out = tmp_path / "out"
        assert cli.main(["forward", "--config", write_config(tmp_path, cfg),
                         "--output", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["checks"]["kernel_trajectory_max_dev"] <= 1e-12

    def test_many_modes_on_unit_interval(self, tmp_path):
        # lambda_33 * T^alpha = (33 pi)^2 ~ 1.07e4 lies beyond the modulus
        # cap that ml_eval keeps; the solver kernels admit it
        cfg = forward_config(n_modes=33, time={"T": 1.0, "n_t": 50},
                             initial={"kind": "mode", "index": 33})
        out = tmp_path / "out"
        rc = cli.main(["forward", "--config", write_config(tmp_path, cfg),
                       "--output", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["checks"]["kernel_trajectory_max_dev"] <= 1e-12

    @pytest.mark.parametrize("place", ["initial", "source.g"])
    def test_samples_of_a_mode_give_the_mode_field(self, tmp_path, place):
        # the projected path agrees with the modal one: node samples of
        # mode 3 give mode 3's field; only the projection's rounding differs
        from tfslab.spectral import Grid1D, analytic_eigensystem

        phi = analytic_eigensystem(6, Grid1D(1.0, 63)).phis[2]
        fields, tails = [], []
        for datum in ({"kind": "mode", "index": 3}, {"kind": "samples", "re": phi.tolist()}):
            cfg = forward_config()
            if place == "initial":
                cfg["initial"] = datum
            else:
                cfg["source"] = {"kind": "separable",
                                 "rho": {"kind": "const", "value": 1.0}, "g": datum}
            out = tmp_path / datum["kind"]
            tails.append(cli.run(cfg, str(out))["checks"]["tail_energy"])
            fields.append(np.array(json.loads((out / "field.json").read_text())["values_re_im"]))
        assert np.max(np.abs(fields[0] - fields[1])) <= 1e-12
        if place == "initial":
            assert tails[0] == 0.0 and 0.0 <= tails[1] <= 1e-12

    def test_debug_log_names_each_phase(self, tmp_path, caplog):
        caplog.set_level(logging.DEBUG, logger="tfslab.cli")
        cfg = write_config(tmp_path, forward_config(n_modes=2))
        assert cli.main(["forward", "--config", cfg, "--output", str(tmp_path / "o")]) == 0
        report = json.loads((tmp_path / "o" / "report.json").read_text())
        logged = [r.getMessage().split()[1].rstrip(":") for r in caplog.records
                  if r.name == "tfslab.cli" and r.levelno == logging.DEBUG]
        assert sorted(logged) == sorted(report["phase_seconds"])  # once each

    @pytest.mark.parametrize("op", [
        {"a_const": 1e306, "p_const": 0.0},
        {"a": [1e308] * 16, "p": [0.0] * 15, "kappa": 1.0},
    ])
    def test_overflowing_stencil_exits_3(self, tmp_path, capsys, op):
        cfg = forward_config(grid={"L": 1.0, "m": 15}, n_modes=3, operator=op)
        rc = cli.main(["forward", "--config", write_config(tmp_path, cfg),
                       "--output", str(tmp_path / "o")])
        assert rc == 3
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["kind"] == "numerical"
        assert "overflows" in err["message"]

    @pytest.mark.parametrize("op", [{"analytic": True}, {"a_const": 1.0, "p_const": 0.0}],
                             ids=["analytic", "stencil"])
    def test_overflowing_eigenvalues_exit_3(self, tmp_path, op):
        # (N pi / L)^2 overflows for L below about N * 2.3e-154; the run
        # fails before any write, and no numpy warning turns into a
        # traceback under -W error
        cfg = forward_config(grid={"L": 1e-160, "m": 15}, n_modes=3, operator=op,
                             mask={"intervals": [[2e-161, 4e-161]]})
        out = tmp_path / "o"
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "tfslab", "forward",
                               "--config", write_config(tmp_path, cfg), "--output", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 3, proc.stdout + proc.stderr
        assert json.loads(proc.stdout)["error"]["kind"] == "numerical"
        assert proc.stderr == ""
        assert not out.exists()


class TestValidation:
    def test_malformed_alpha_exits_2_and_names_field(self, tmp_path, capsys):
        cfg = forward_config()
        cfg["order"]["alpha"] = 1.5
        path = write_config(tmp_path, cfg)
        rc = cli.main(["forward", "--config", path, "--output", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "config"
        assert "order.alpha" in err["error"]["field"]

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = forward_config()
        cfg["grid"]["spacing"] = 0.1
        path = write_config(tmp_path, cfg)
        rc = cli.main(["forward", "--config", path, "--output", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().out)
        assert "spacing" in err["error"]["message"]

    def test_problem_mismatch(self, tmp_path, capsys):
        path = write_config(tmp_path, forward_config())
        rc = cli.main(["invert-order", "--config", path,
                       "--output", str(tmp_path / "o")])
        assert rc == 2

    def test_config_error_precedes_missing_output_dir(self, tmp_path, capsys):
        cfg = forward_config()
        path = write_config(tmp_path, cfg)
        assert cli.main(["forward", "--config", path]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["field"] == "output_dir"
        cfg["grid"]["m"] = 1
        path = write_config(tmp_path, cfg)
        assert cli.main(["forward", "--config", path]) == 2
        assert json.loads(capsys.readouterr().out)["error"]["field"] == "grid.m"

    def test_missing_config_file_exits_4(self, tmp_path, capsys):
        rc = cli.main(["forward", "--config", str(tmp_path / "nope.json"),
                       "--output", str(tmp_path / "o")])
        assert rc == 4

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = cli.main(["forward", "--config", str(path),
                       "--output", str(tmp_path / "o")])
        assert rc == 2


    def assert_config_error(self, tmp_path, capsys, cfg, field, *flags):
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        rc = cli.main([cfg["problem"], "--config", path, "--output", str(out), *flags])
        assert rc == 2
        err = json.loads(capsys.readouterr().out)
        assert err["error"]["kind"] == "config"
        assert err["error"]["field"] == field
        # found before any solve: no artifact is written
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("problem,truth", [
        ("invert-initial", {"initial": {"kind": "mode", "index": 1}}),
        ("invert-source", SOURCE_TRUTH),
    ])
    def test_inversion_n_modes_above_n_modes(self, tmp_path, capsys, problem, truth):
        cfg = inversion_config(problem, truth, {"gamma": 1e-8, "n_modes": 5})
        self.assert_config_error(tmp_path, capsys, cfg, "inversion.n_modes")

    def test_alpha_bracket_reversed(self, tmp_path, capsys):
        cfg = inversion_config("invert-order", ORDER_TRUTH,
                               {"alpha_lo": 0.7, "alpha_hi": 0.3})
        self.assert_config_error(tmp_path, capsys, cfg, "inversion.alpha_lo")

    @pytest.mark.parametrize("key,value", [
        ("coarse_points", 2), ("coarse_points", "many"), ("refine_tol", 0.0)])
    def test_order_search_controls(self, tmp_path, capsys, key, value):
        cfg = inversion_config("invert-order", ORDER_TRUTH,
                               {"alpha_lo": 0.3, "alpha_hi": 0.7, key: value})
        self.assert_config_error(tmp_path, capsys, cfg, f"inversion.{key}")

    @pytest.mark.parametrize("intervals", [
        [[0.2, 1.5]], [[-0.1, 0.4]], [[0.4, 0.2]], [[0.3, 0.3]],
        [[0.1, 0.4], [0.3, 0.6]],
    ])
    def test_mask_interval_out_of_range_or_overlapping(self, tmp_path, capsys,
                                                       intervals):
        cfg = forward_config(mask={"intervals": intervals})
        self.assert_config_error(tmp_path, capsys, cfg, "mask.intervals")

    @pytest.mark.parametrize("grid", [{"L": 16.0, "m": 15}, {"L": 100.0, "m": 63}])
    def test_mask_capturing_no_node(self, tmp_path, capsys, grid):
        cfg = forward_config(grid=grid)
        self.assert_config_error(tmp_path, capsys, cfg, "mask.intervals")
        out = tmp_path / "o"
        assert not out.exists() or not any(out.iterdir())

    def test_touching_mask_intervals_accepted(self, tmp_path):
        cfg = forward_config(mask={"intervals": [[0.1, 0.3], [0.3, 0.5]]})
        path = write_config(tmp_path, cfg)
        assert cli.main(["forward", "--config", path,
                         "--output", str(tmp_path / "o")]) == 0

    def test_samples_im_length_must_match_re(self, tmp_path, capsys):
        cfg = forward_config(initial={"kind": "samples", "re": [1.0] * 63,
                                      "im": [0.5]})
        self.assert_config_error(tmp_path, capsys, cfg, "initial.im")

    @pytest.mark.parametrize("op,field", [
        ({"a": [-1.0] + [1.0] * 15, "p": [0.0] * 15, "kappa": 0.5}, "operator.a"),
        ({"a": [1.0] * 16, "p": [0.0] * 15, "kappa": 2.0}, "operator.kappa"),
        ({"a": [1.0] * 16, "p": [-1.0] + [0.0] * 14, "kappa": 0.5}, "operator.p"),
        ({"a": [1.0] * 15, "p": [0.0] * 15, "kappa": 0.5}, "operator.a"),
        ({"a_const": 1.0, "p_const": 0.0, "kappa": 5.0}, "operator"),
        # the closed-form Laplacian is {"analytic": true}, nothing else
        ({"analytic": "no"}, "operator.analytic"),
        ({"analytic": 1}, "operator.analytic"),
        ({"analytic": False}, "operator.analytic"),
    ])
    def test_operator_samples_checked(self, tmp_path, capsys, op, field):
        # m = 15: a on the 16 midpoints, p on the 15 nodes, kappa <= min(a)
        cfg = forward_config(grid={"L": 1.0, "m": 15}, n_modes=3, operator=op)
        self.assert_config_error(tmp_path, capsys, cfg, field)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["initial.re", "initial.coeffs_re", "source.rho.re",
                                       "operator.a", "operator.p"])
    def test_nonfinite_list_entry_names_its_field(self, tmp_path, capsys, field, bad):
        # json.load reads NaN and Infinity; m = 15 and n_t = 20
        cfg = forward_config(
            grid={"L": 1.0, "m": 15}, n_modes=3,
            initial={"kind": "samples", "re": [1.0] * 15},
            source={"kind": "separable", "rho": {"kind": "samples", "re": [1.0] * 20},
                    "g": {"kind": "mode", "index": 1}},
            operator={"a": [1.0] * 16, "p": [0.0] * 15, "kappa": 0.5})
        if field == "initial.coeffs_re":
            cfg["initial"] = {"kind": "mix", "coeffs_re": [1.0, 0.5]}
        node = cfg
        *parents, key = field.split(".")
        for name in parents:
            node = node[name]
        node[key] = [bad] + node[key][1:]
        self.assert_config_error(tmp_path, capsys, cfg, field)

    def test_datum_error_names_its_path(self, tmp_path, capsys):
        truth = dict(SOURCE_TRUTH, g={"kind": "samples", "re": [1.0] * 10})
        cfg = inversion_config("invert-source", truth,
                               {"gamma": 1e-8, "n_modes": 4})
        self.assert_config_error(tmp_path, capsys, cfg, "truth.g")

    TIKHONOV = {"gamma": 1e-8, "n_modes": 4}
    ORDER_SEARCH = {"alpha_lo": 0.3, "alpha_hi": 0.9}
    ZERO_RHO = {"kind": "const", "value": 0.0}
    ZERO_MIX = {"kind": "mix", "coeffs_re": [0.0]}

    @pytest.mark.parametrize("cfg,field", [
        # checks that need n_modes or m (forward n_modes = 6, m = 63;
        # inversions n_modes = 4)
        (forward_config(initial={"kind": "mode", "index": 7}), "initial.index"),
        (forward_config(source=dict(SOURCE_TRUTH, kind="separable",
                                    g={"kind": "mode", "index": 7})), "source.g.index"),
        (inversion_config("invert-initial", {"initial": {"kind": "mode", "index": 5}},
                          TIKHONOV), "truth.initial.index"),
        (inversion_config("invert-source", dict(SOURCE_TRUTH, g={"kind": "mode", "index": 5}),
                          TIKHONOV), "truth.g.index"),
        (forward_config(initial={"kind": "mix", "coeffs_re": [1.0] * 7}), "initial"),
        (forward_config(initial={"kind": "samples", "re": [1.0] * 62}), "initial"),
        # sections the problem does not read
        (forward_config(truth={"anything": [1, 2, 3]}), "config"),
        (forward_config(inversion=TIKHONOV), "config"),
        (forward_config(noise={"level": 0.0, "seed": 0}), "config"),
        (dict(inversion_config("invert-initial", {"initial": {"kind": "mode", "index": 1}},
                               TIKHONOV), initial={"kind": "mode", "index": 1}), "config"),
        (dict(inversion_config("invert-source", SOURCE_TRUTH, TIKHONOV),
              source={"kind": "none"}), "config"),
        # top-level fields and the sections without a datum
        (forward_config(output_dir=3), "output_dir"),
        (forward_config(n_modes=64), "n_modes"),
        (forward_config(source={"kind": "bogus"}), "source.kind"),
        (forward_config(mask={"intervals": "[0.2, 0.4]"}), "mask.intervals"),
        (forward_config(mask={"intervals": [[0.2]]}), "mask.intervals"),
        # data that cannot identify the unknown: a vanishing temporal factor
        # or generating datum (n_t = 20, m = 63)
        (inversion_config("invert-source", dict(SOURCE_TRUTH, rho=ZERO_RHO), TIKHONOV),
         "truth.rho"),
        (inversion_config("invert-source",
                          dict(SOURCE_TRUTH, rho={"kind": "samples", "re": [0.0] * 20}), TIKHONOV),
         "truth.rho"),
        (inversion_config("invert-order", dict(ORDER_TRUTH, initial=ZERO_MIX), ORDER_SEARCH),
         "truth.initial"),
        (inversion_config("invert-order",
                          dict(ORDER_TRUTH, initial={"kind": "samples", "re": [0.0] * 63}),
                          ORDER_SEARCH), "truth.initial"),
    ], ids=["initial-index", "source-index", "truth-initial-index", "truth-g-index",
            "long-mix", "short-samples", "forward-truth", "forward-inversion",
            "forward-noise", "inversion-initial", "inversion-source", "output-dir-type",
            "n-modes-above-m", "source-kind", "intervals-type", "interval-length",
            "zero-rho", "zero-rho-samples", "zero-order-datum", "zero-order-samples"])
    def test_error_found_before_any_solve(self, tmp_path, capsys, cfg, field):
        self.assert_config_error(tmp_path, capsys, cfg, field)

    @pytest.mark.parametrize("cfg,field", [
        ([], "config"), ("x", "config"), (None, "config"),
        (forward_config(problem="bogus"), "problem"),
    ], ids=["list", "string", "null", "unknown-problem"])
    def test_run_raises_config_error_before_any_write(self, tmp_path, cfg, field):
        out = tmp_path / "o"
        with pytest.raises(ConfigError) as raised:
            cli.run(cfg, str(out))
        assert raised.value.field == field
        assert not out.exists()
        if field == "config":  # the error validate_config raises
            with pytest.raises(ConfigError) as validated:
                cli.validate_config(cfg, "forward")
            assert str(validated.value) == str(raised.value)

    @pytest.mark.parametrize("problem", sorted(cli.PROBLEMS))
    def test_validate_config_returns_its_argument(self, problem):
        cfg = FUZZ_CONFIGS[problem]
        before = copy.deepcopy(cfg)
        assert cli.validate_config(cfg, problem) is cfg
        assert cfg == before

    @pytest.mark.parametrize("problem,leaves,field", [
        ("forward", {"order.alpha": 1.5}, "order.alpha"),
        ("invert-initial", {"noise.seed": -1}, "noise.seed"),
        ("invert-source", {"inversion.gamma": "x"}, "inversion.gamma"),
        ("invert-order", {"inversion.alpha_hi": 0.2}, "inversion.alpha_lo"),
    ])
    def test_validate_config_raises_the_field_run_raises(self, tmp_path, problem, leaves,
                                                         field):
        _, cfg = with_leaves(problem, leaves)
        out = tmp_path / "o"
        with pytest.raises(ConfigError) as validated:
            cli.validate_config(cfg, problem)
        with pytest.raises(ConfigError) as raised:
            cli.run(cfg, str(out))
        assert validated.value.field == raised.value.field == field
        assert os.listdir(tmp_path) == []

    def test_output_that_is_a_file_exits_4(self, tmp_path, capsys):
        path = write_config(tmp_path, forward_config())
        out = tmp_path / "taken"
        out.write_text("")
        assert cli.main(["forward", "--config", path, "--output", str(out)]) == 4
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "io"
        assert out.read_text() == ""

    def test_seed_override_replaces_noise_seed(self, tmp_path, capsys):
        cfg = dict(inversion_config("invert-source", SOURCE_TRUTH, self.TIKHONOV),
                   noise={"level": 1e-3, "seed": 3})
        overridden, configured = tmp_path / "overridden", tmp_path / "configured"
        assert cli.main(["invert-source", "--config", write_config(tmp_path, cfg),
                         "--output", str(overridden), "--seed", "7"]) == 0
        cfg["noise"]["seed"] = 7
        assert cli.main(["invert-source", "--config", write_config(tmp_path, cfg),
                         "--output", str(configured)]) == 0
        assert json.loads((overridden / "data.json").read_text())["seed"] == 7
        for name in ("data.csv", "data.json"):
            assert (overridden / name).read_text() == (configured / name).read_text()

    def test_negative_seed_override(self, tmp_path, capsys):
        cfg = dict(inversion_config("invert-initial", {"initial": {"kind": "mode", "index": 1}},
                                    self.TIKHONOV), noise={"level": 1e-3, "seed": 0})
        self.assert_config_error(tmp_path, capsys, cfg, "seed", "--seed", "-1")


class TestInversionCommands:
    def test_invert_initial_end_to_end(self, tmp_path):
        cfg = {
            "problem": "invert-initial",
            "grid": {"L": 1.0, "m": 63},
            "time": {"T": 1.0, "n_t": 30},
            "order": {"alpha": 0.9},
            "operator": {"analytic": True},
            "n_modes": 6,
            "mask": {"intervals": [[0.2, 0.4]]},
            "truth": {"initial": {"kind": "mode", "index": 2}},
            "noise": {"level": 0.0, "seed": 0},
            "inversion": {"gamma": 1e-10, "n_modes": 6},
        }
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert cli.main(["invert-initial", "--config", path, "--output", out]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["checks"]["modal_rel_error"] <= 1e-6
        est = json.loads((tmp_path / "out" / "estimate.json").read_text())
        modal = np.array(est["modal_re_im"]).reshape(-1, 2)
        assert abs(complex(*modal[1]) - 1.0) <= 1e-6

    def test_invert_order_embedded_truth(self, tmp_path):
        cfg = {
            "problem": "invert-order",
            "grid": {"L": 1.0, "m": 63},
            "time": {"T": 1.0, "n_t": 30},
            "order": {"alpha": 0.5},
            "operator": {"analytic": True},
            "n_modes": 4,
            "mask": {"intervals": [[0.2, 0.4]]},
            "truth": {"alpha": 0.5, "initial": {"kind": "mode", "index": 1}},
            "noise": {"level": 0.0, "seed": 0},
            "inversion": {"alpha_lo": 0.3, "alpha_hi": 0.8,
                          "coarse_points": 15, "refine_tol": 1e-4},
        }
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert cli.main(["invert-order", "--config", path, "--output", out]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["checks"]["alpha_abs_error"] <= 1e-3

    def test_invert_source_fd_operator(self, tmp_path):
        cfg = {
            "problem": "invert-source",
            "grid": {"L": 1.0, "m": 63},
            "time": {"T": 1.0, "n_t": 30},
            "order": {"alpha": 0.9},
            "operator": {"a_const": 1.0, "p_const": 0.0},
            "n_modes": 4,
            "mask": {"intervals": [[0.2, 0.5]]},
            "truth": {"rho": {"kind": "const", "value": 1.0},
                      "g": {"kind": "mode", "index": 1}},
            "noise": {"level": 0.0, "seed": 0},
            "inversion": {"gamma": 1e-12, "n_modes": 4},
        }
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "out")
        assert cli.main(["invert-source", "--config", path, "--output", out]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["checks"]["modal_rel_error"] <= 1e-5


class TestDeterminism:
    """Each pipeline, run twice on one config, writes the same bytes; only
    the wall times under ``phase_seconds`` may differ."""

    SOURCE = {"kind": "separable", "rho": {"kind": "const", "value": 1.0},
              "g": {"kind": "mode", "index": 2}}
    NOISE = {"level": 1e-3, "seed": 11}
    CONFIGS = {
        "forward": forward_config(source=SOURCE),
        "invert-initial": inversion_config(
            "invert-initial",
            {"initial": {"kind": "mix", "coeffs_re": [0.7, 0.2], "coeffs_im": [0.0, 0.1]}},
            {"gamma": 1e-6, "n_modes": 4}),
        "invert-source": inversion_config("invert-source", SOURCE_TRUTH,
                                          {"gamma": 1e-6, "n_modes": 2}),
        "invert-order": inversion_config(
            "invert-order", ORDER_TRUTH,
            {"alpha_lo": 0.3, "alpha_hi": 0.8, "coarse_points": 5, "refine_tol": 1e-2}),
    }

    @staticmethod
    def without_phase_seconds(text):
        doc = json.loads(text)
        report = doc.get("report", doc)
        return report.pop("phase_seconds").keys(), doc

    @pytest.mark.parametrize("problem", sorted(CONFIGS))
    def test_artifacts_repeat_byte_for_byte(self, tmp_path, capsys, problem):
        cfg = dict(self.CONFIGS[problem], grid={"L": 1.0, "m": 31},
                   time={"T": 1.0, "n_t": 12})
        if problem != "forward":
            cfg["noise"] = self.NOISE
        path = write_config(tmp_path, cfg)
        outs, stdouts = [tmp_path / "a", tmp_path / "b"], []
        for out in outs:
            assert cli.main([problem, "--config", path, "--output", str(out)]) == 0
            stdouts.append(capsys.readouterr().out)
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        assert "report.json" in names and len(names) >= 3
        for name in names:
            first, second = ((out / name).read_text() for out in outs)
            if name == "report.json":
                assert self.without_phase_seconds(first) == self.without_phase_seconds(second)
            else:
                assert first == second, name
        assert self.without_phase_seconds(stdouts[0]) == self.without_phase_seconds(stdouts[1])

    def test_order_search_ignores_order_alpha(self, tmp_path):
        # truth.alpha generates an order search's data and order.phase sets
        # its convention; order.alpha is checked but read by nothing
        reports = []
        for alpha in (0.5, 0.85):
            cfg = dict(self.CONFIGS["invert-order"], order={"alpha": alpha,
                                                            "phase": "standard_i"})
            cfg["noise"] = self.NOISE
            out = tmp_path / str(alpha)
            cli.run(cfg, str(out))
            reports.append(json.loads((out / "report.json").read_text()))
        for name in ("data.csv", "data.json", "eigensystem.json", "estimate.json"):
            assert (tmp_path / "0.5" / name).read_bytes() == \
                (tmp_path / "0.85" / name).read_bytes(), name
        for report in reports:
            del report["phase_seconds"]
            report["config"].pop("order")
        assert reports[0] == reports[1]


class TestSmallArtifactsNeverFork:
    """The observed data of an inversion at the benchmark's sizes (m = 99,
    n_t = 200, 21 nodes on E: 8,400 floats) and every selftest artifact are
    written in-process on any number of CPUs."""

    @pytest.fixture(autouse=True)
    def no_fork(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                            raising=False)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))

    @pytest.mark.parametrize("problem", ["invert-source", "invert-order"])
    def test_data_artifacts(self, tmp_path, problem):
        cfg = dict(TestDeterminism.CONFIGS[problem], grid={"L": 1.0, "m": 99},
                   time={"T": 1.0, "n_t": 200}, noise={"level": 1e-3, "seed": 3})
        cli.run(cfg, str(tmp_path))
        values = json.loads((tmp_path / "data.json").read_text())["values_re_im"]
        assert len(values) == 2 * 200 * 21

    def test_selftest_determinism(self):
        from tfslab import selftest
        [result] = selftest.run_battery(["determinism"])
        assert result.passed, result.detail


class TestKernelCalls:
    """A run evaluates each kernel row it needs once: the data solve, the
    designs and the trajectory check read one table's rows, and a mode
    whose initial coefficient vanishes takes no state row."""

    ALL_MODES = {"kind": "mix", "coeffs_re": [1.0, 0.5, 0.25, 2.0]}  # every mode of 4

    @pytest.fixture
    def calls(self, monkeypatch):
        # (kind, eigenvalues) of each kernel_grid call
        from tfslab import forward, inverse
        made = []
        for module in (forward, inverse):
            monkeypatch.setattr(module, "kernel_grid",
                                lambda *args, exact=module.kernel_grid: made.append(
                                    (args[3], tuple(np.atleast_1d(args[1]).tolist())))
                                or exact(*args))
        return made

    def test_invert_source_evaluates_each_integral_row_once(self, tmp_path, calls):
        truth = {"rho": {"kind": "const", "value": 1.0}, "g": self.ALL_MODES}
        cfg = inversion_config("invert-source", truth, {"gamma": 1e-6, "n_modes": 2})
        cli.run(cfg, str(tmp_path))
        assert [kind for kind, _ in calls] == ["integral"] * 4
        assert len(set(calls)) == 4

    def test_invert_initial_design_reads_the_data_solve_rows(self, tmp_path, calls):
        cfg = inversion_config("invert-initial", {"initial": self.ALL_MODES},
                               {"gamma": 1e-6, "n_modes": 3})
        cli.run(cfg, str(tmp_path))
        assert [kind for kind, _ in calls] == ["state"] * 4
        assert len(set(calls)) == 4

    @pytest.mark.parametrize("source", [False, True])
    def test_zero_datum_takes_no_state_row(self, tmp_path, calls, source):
        cfg = forward_config(initial={"kind": "samples", "re": [0.0] * 63})
        if source:
            cfg["source"] = {"kind": "separable", "rho": {"kind": "const", "value": 1.0},
                             "g": {"kind": "mix", "coeffs_re": [1.0] * 6}}
        cli.run(cfg, str(tmp_path))
        assert [kind for kind, _ in calls] == ["integral"] * (6 if source else 0)

    def test_vanishing_rho_takes_no_integral_row(self, tmp_path, calls):
        # rho = 0 silences every mode's source term, whatever g holds
        cfg = forward_config(initial={"kind": "mode", "index": 1})
        cfg["source"] = {"kind": "separable", "rho": {"kind": "const", "value": 0.0},
                         "g": {"kind": "mix", "coeffs_re": [1.0] * 6}}
        cli.run(cfg, str(tmp_path))
        assert [kind for kind, _ in calls] == ["state"]

    def test_single_mode_forward_takes_one_state_row(self, tmp_path, calls):
        # a mode datum reaches the solve as its coefficients: the other
        # modes' coefficients are exactly 0 and take no row
        report = cli.run(forward_config(), str(tmp_path))
        assert calls == [("state", (math.pi**2,))]
        assert report["checks"]["tail_energy"] == 0.0

    def test_single_mode_order_search_takes_one_state_row_per_order(self, tmp_path, calls):
        cfg = inversion_config("invert-order", ORDER_TRUTH,
                               {"alpha_lo": 0.3, "alpha_hi": 0.9})
        cli.run(cfg, str(tmp_path))
        evaluations = json.loads((tmp_path / "estimate.json").read_text())[
            "diagnostics"]["evaluations"]
        # the data solve's row, then one row per trial order
        assert calls == [("state", (math.pi**2,))] * (1 + evaluations)

    def test_trajectory_check_reads_the_solve_rows(self, tmp_path, calls):
        cfg = forward_config(source={"kind": "separable",
                                     "rho": {"kind": "const", "value": 1.0},
                                     "g": {"kind": "mix", "coeffs_re": [1.0] * 6}})
        report = cli.run(cfg, str(tmp_path))
        assert report["checks"]["kernel_trajectory_max_dev"] <= 1e-12
        assert ("state", (math.pi**2,)) in calls  # mode 1, the checked mode
        assert len(set(calls)) == len(calls) <= 12

    @pytest.mark.parametrize("name, kind", [("initial-data-recovery", "state"),
                                            ("source-recovery", "integral")])
    def test_recovery_criterion_shares_one_table(self, calls, name, kind):
        # the data solve and every inversion of the criterion read one
        # table: each of the 8 modes' rows is evaluated once, by the solve
        # or by the first design that needs it
        from tfslab import selftest
        [result] = selftest.run_battery([name])
        assert result.passed, result.detail
        assert {k for k, _ in calls} == {kind}
        assert len(set(calls)) == len(calls) == 8

TINY =dict(grid={"L": 1.0, "m": 15}, time={"T": 1.0, "n_t": 8}, n_modes=3)
NOISE = {"level": 1e-3, "seed": 1}
FUZZ_CONFIGS = {
    "forward": forward_config(
        **TINY, source=TestDeterminism.SOURCE,
        operator={"a": [1.0 + 0.1 * j for j in range(16)], "p": [0.5] * 15,
                  "kappa": 0.5}),
    "invert-initial": dict(
        inversion_config("invert-initial",
                         {"initial": {"kind": "mix", "coeffs_re": [1.0, 0.5]}},
                         {"gamma": 1e-6, "n_modes": 2}),
        **TINY, operator={"a_const": 1.0, "p_const": 0.0}, noise=NOISE),
    "invert-source": dict(
        inversion_config("invert-source", SOURCE_TRUTH, {"gamma": 1e-6, "n_modes": 2}),
        **TINY, noise=NOISE),
    "invert-order": dict(
        inversion_config("invert-order", ORDER_TRUTH,
                         {"alpha_lo": 0.3, "alpha_hi": 0.9, "coarse_points": 3,
                          "refine_tol": 1e-2}),
        **TINY, noise=NOISE),
}
FUZZ_POOL = [0, 1, -1, 0.5, 2, 16, 100, 1e-12, 1e-300, 1e300, 1e308,
             True, None, "x", [], {}]


def config_paths(node, keys, path=()):
    """Paths to every object key (``keys``) or to every leaf of a config."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        return [] if keys else [path]
    found = [path + (k,) for k, _ in items] if keys and isinstance(node, dict) else []
    for k, child in items:
        found += config_paths(child, keys, path + (k,))
    return found


@st.composite
def mutated_configs(draw):
    """A tiny config with one key deleted, or with one or two leaves
    replaced by values from ``FUZZ_POOL``."""
    problem = draw(st.sampled_from(sorted(FUZZ_CONFIGS)))
    cfg = copy.deepcopy(FUZZ_CONFIGS[problem])
    if draw(st.booleans()):
        *where, key = draw(st.sampled_from(config_paths(cfg, keys=True)))
        del functools.reduce(operator.getitem, where, cfg)[key]
    else:
        for _ in range(draw(st.integers(1, 2))):
            *where, key = draw(st.sampled_from(config_paths(cfg, keys=False)))
            functools.reduce(operator.getitem, where, cfg)[key] = draw(
                st.sampled_from(FUZZ_POOL))
    return problem, cfg


def with_leaves(problem, leaves):
    """The tiny ``problem`` config with dotted-path leaves replaced."""
    cfg = copy.deepcopy(FUZZ_CONFIGS[problem])
    for path, value in leaves.items():
        *where, key = path.split(".")
        functools.reduce(operator.getitem, where, cfg)[key] = value
    return problem, cfg


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutated_configs())
@example(with_leaves("invert-order", {"inversion.refine_tol": 1e-300}))
@example(with_leaves("invert-source", {"time.T": 1e300, "truth.rho.value": 1e300}))
@example(with_leaves("forward", {"grid.L": 10**400}))  # ints beyond float range
@example(with_leaves("invert-source", {"time.T": 10**400}))
@example(with_leaves("invert-initial", {"truth.initial.coeffs_re": [10**400, 0.5]}))
@example(with_leaves("forward", {"time.n_t": 10**400}))  # sizes beyond numpy's index
@example(with_leaves("invert-order", {"grid.m": 10**30}))
@example(with_leaves("invert-order", {"grid.m": 10**18}))  # sizes that cannot be allocated
@example(with_leaves("invert-order", {"time.n_t": 10**18}))
@example(with_leaves("invert-order", {"inversion.coarse_points": 10**18}))
@example(with_leaves("invert-order", {"grid.m": 2**61}))  # numpy's ValueError from 2**60
@example(with_leaves("invert-order", {"time.n_t": 2**61}))
@example(with_leaves("invert-order", {"inversion.coarse_points": 2**61}))
def test_mutated_config_runs_or_names_its_fault(case):
    # an invalid config exits 2 naming its field; exit 3 is kept for real
    # numerical failures (an overflowing L or rho, a flat misfit)
    problem, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main([problem, "--config", path,
                           "--output", os.path.join(tmp, "out")])
    if rc != 0:
        err = json.loads(out.getvalue())["error"]
        assert (rc == 2 and err.get("field")) or (
            rc == 3 and err["kind"] == "numerical"), (rc, err, cfg)


# node samples of 1e200, whose energy overflows; a mode or mix datum has no
# energy outside its modes, so its tail energy is exactly 0
HUGE_SAMPLES = {"kind": "samples", "re": [1e200] * TINY["grid"]["m"]}
HUGE_MIX = {"kind": "mix", "coeffs_re": [1e200, 1e200]}


def run_recording_warnings(tmp_path, problem, cfg):
    """``cli.main`` on ``cfg``, writing to ``tmp_path/out``; returns the exit
    code and the numpy RuntimeWarnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main([problem, "--config", write_config(tmp_path, cfg),
                       "--output", str(tmp_path / "out")])
    return rc, [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("problem,leaves,check", [
    ("invert-initial", {"truth.initial": HUGE_SAMPLES}, "tail_energy"),
    ("invert-initial", {"noise.level": 1e308}, "Tikhonov coefficients"),
    ("forward", {"initial": HUGE_SAMPLES}, "tail_energy"),
    ("invert-source", {"noise.level": 1e308}, "Tikhonov coefficients"),
    ("invert-initial", {"noise.level": 1e308, "truth.initial.coeffs_re": [10.0, 10.0]},
     "weighted design or data overflow"),
    ("forward", {"source.rho.value": 1.7e308}, "field contains non-finite samples"),
    ("invert-source", {"truth.rho.value": 1.7e308}, "field contains non-finite samples"),
    ("invert-order", {"truth.initial": HUGE_MIX}, "order misfit"),
    ("invert-order", {"noise.level": 1e308}, "order misfit"),
])
def test_overflowing_check_exits_3(tmp_path, capsys, problem, leaves, check):
    # a check that is not a finite number fails the run, with no numpy
    # warning on stderr first; no report.json carries NaN or a false 0
    _, cfg = with_leaves(problem, leaves)
    rc, caught = run_recording_warnings(tmp_path, problem, cfg)
    assert not caught
    assert rc == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["kind"] == "numerical" and err["message"].startswith(check)
    assert not (tmp_path / "out" / "report.json").exists()
    # the field's rows are checked before either field artifact is begun,
    # and an inversion's before any data artifact
    left = [p.name for p in (tmp_path / "out").glob("*")]
    assert not [n for n in left if n.startswith(("field.", ".tfslab-")) or n.endswith(".part")]
    if check.startswith("field"):
        assert not [n for n in left if n.startswith("data.")]


# tracemalloc's peak in a forward run over the nbytes of the field it writes,
# at test_forward_run_never_holds_the_field's shape: 0.34 measured with numpy
# 2.4, set by the kernel evaluator's contour blocks in the modal solve.  The
# run that formed the whole field peaked at 1.36.
FIELD_PEAK_SHARE = 0.35
# the same share for the three inversions at that shape: 0.38-0.39 measured
# with numpy 2.4 (the field and its modulus, when they were formed: 1.58)
INVERSION_PEAK_SHARE = 0.45


def test_forward_run_never_holds_the_field(tmp_path):
    # 400 times at 255 nodes, a 1.6 MB field: the run keeps the 8 x 400
    # modal coefficients, and its checks and writers synthesize rows a block
    # at a time (a forked writer's rows are not traced here).  A first run
    # does the imports and fills the evaluator's node-set caches, which
    # outlive it.
    import tracemalloc

    cfg = forward_config(grid={"L": 1.0, "m": 255}, time={"T": 1.0, "n_t": 400},
                         n_modes=8, source=TestDeterminism.SOURCE)
    field_bytes = 400 * 255 * np.dtype(complex).itemsize
    cli.run(cfg, str(tmp_path / "first"))
    tracemalloc.start()
    try:
        report = cli.run(cfg, str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["checks"]["kernel_trajectory_max_dev"] <= 1e-10
    assert (tmp_path / "out" / "field.json").stat().st_size > field_bytes
    assert peak <= FIELD_PEAK_SHARE * field_bytes, (peak, field_bytes)


@pytest.mark.parametrize("problem,truth,inversion", [
    ("invert-initial", {"initial": {"kind": "mix", "coeffs_re": [1.0, 0.5, 0.25]}},
     {"gamma": 1e-6, "n_modes": 4}),
    ("invert-source", SOURCE_TRUTH, {"gamma": 1e-6, "n_modes": 4}),
    ("invert-order", ORDER_TRUTH, {"alpha_lo": 0.3, "alpha_hi": 0.9, "coarse_points": 5,
                                   "refine_tol": 1e-2}),
])
def test_inversion_never_holds_the_field(tmp_path, problem, truth, inversion):
    # test_forward_run_never_holds_the_field's shape, observed on [0.2, 0.25]:
    # the data are synthesized 32 rows at a time from the modal solution and
    # only their masked columns are kept
    import tracemalloc

    cfg = dict(inversion_config(problem, truth, inversion), grid={"L": 1.0, "m": 255},
               time={"T": 1.0, "n_t": 400}, n_modes=8, mask={"intervals": [[0.2, 0.25]]},
               noise={"level": 1e-3, "seed": 3})
    field_bytes = 400 * 255 * np.dtype(complex).itemsize
    cli.run(cfg, str(tmp_path / "first"))
    tracemalloc.start()
    try:
        cli.run(cfg, str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= INVERSION_PEAK_SHARE * field_bytes, (peak, field_bytes)


@pytest.mark.parametrize("problem,leaves,check,lo,hi", [
    ("forward", {"source.rho.value": 1e300}, "max_field_norm", 1e297, 1e299),
    ("forward", {"initial": HUGE_MIX}, "max_field_norm", 1e198, 1e200),
    ("invert-initial", {"truth.initial": HUGE_MIX}, "modal_rel_error", 0.0, 0.1),
])
def test_checks_past_the_squares_range(tmp_path, problem, leaves, check, lo, hi):
    # a field or an estimate whose entries are finite but whose squares
    # overflow has a finite norm: the checks take it scaled, the run exits 0
    # with no numpy warning, and the estimate keeps its size (about 1e200)
    _, cfg = with_leaves(problem, leaves)
    rc, caught = run_recording_warnings(tmp_path, problem, cfg)
    assert not caught
    assert rc == 0
    checks = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
    assert all(math.isfinite(value) for value in checks.values())
    assert lo <= checks[check] <= hi
    if problem == "invert-initial":
        estimate = json.loads((tmp_path / "out" / "estimate.json").read_text())
        assert 1e199 <= estimate["reg_norm"] <= 1e201


class TestMlEval:
    def test_exponential_value(self, capsys):
        rc = cli.main(["ml-eval", "--alpha", "1.0", "--beta", "1.0", "--re", "1.0"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["value"]["re"] == pytest.approx(math.e, rel=1e-12)

    @pytest.mark.parametrize("flag,value,field", [
        ("--alpha", "-1.0", "alpha"),
        ("--alpha", "inf", "alpha"),
        ("--alpha", "1e300", "alpha"),  # beyond the largest order; rejected before evaluation
        ("--beta", "nan", "beta"),
        ("--re", "inf", "re"),
        ("--im", "nan", "im"),
        ("--re", "2e4", "z"),  # beyond ml_eval's modulus cap
    ])
    def test_invalid_argument_exits_2(self, capsys, flag, value, field):
        args = {"--alpha": "0.5", "--beta": "1.0", "--re": "1.0", flag: value}
        rc = cli.main(["ml-eval", *(x for kv in args.items() for x in kv)])
        assert rc == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert (error["kind"], error["field"]) == ("config", field)

    @pytest.mark.parametrize("alpha,beta,re,im", [
        ("0.5", "-200.5", "-60", "0"),  # a weight 1/Gamma(-200.5) beyond double range
        ("0.5", "6", "1.0842888513528421", "1.401845338008663"),  # recurrence check
    ], ids=["overflow", "recurrence"])
    def test_numerical_failure_exits_3(self, capsys, alpha, beta, re, im):
        rc = cli.main(["ml-eval", "--alpha", alpha, "--beta", beta, "--re", re, "--im", im])
        assert rc == 3
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "numerical"

    @pytest.mark.parametrize("alpha,beta,re,im", [
        pytest.param("0.5", "-171", "1", "0", id="-171"),  # the node weights overflow
        pytest.param("0.5", "1e308", "1", "0", id="1e308"),  # the nodes overflow
        # math.lgamma of beta (asymptotic weights) and math.ceil of an infinite
        # truncation overflow as Python errors
        pytest.param("0.5", "1e308", "200", "0", id="lgamma"),
        pytest.param("0.5", "-1e308", "1", "0", id="ceil"),
        # math.lgamma of beta in the recurrence check
        pytest.param("0.5", "1e308", "30", "30", id="verify-lgamma"),
        # the pole term overflows
        pytest.param("0.9", "-171", "200", "0", id="pole"),
        pytest.param("1.5", "-1e5", "30", "0", id="reduced-pole"),
        # from alpha - beta = 650 on, the node sets are refused before they
        # are sized: -1e200 overflowed np.arange's length, and -1e12 sized
        # each set at about 39 million nodes
        pytest.param("0.5", "-1e200", "1", "0", id="-1e200"),
        pytest.param("0.5", "-1e12", "1", "0", id="-1e12"),
    ])
    def test_overflowing_contour_exits_3_without_warnings(self, capsys, alpha, beta, re, im):
        # the caches are cleared so that the node sets are built in this call
        from tfslab import mlf

        mlf._contour_nodes.cache_clear()
        mlf._parabola.cache_clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["ml-eval", "--alpha", alpha, f"--beta={beta}", f"--re={re}",
                           f"--im={im}"])
        assert rc == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "numerical"
        assert error["message"].startswith(f"E_{{{float(alpha)},{float(beta)}}}")

    def test_underflowing_term_floor_exits_0_without_warnings(self, capsys):
        # 1e-17 times the first asymptotic term underflows to 0 at this beta
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["ml-eval", "--alpha", "0.5", "--beta=171.7", "--re=-60"])
        assert rc == 0
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert math.isfinite(json.loads(capsys.readouterr().out)["value"]["re"])


@pytest.mark.parametrize("error,code", [
    (ConfigError("bad field", field="x"), 2),
    (MLOverflowError("too big"), 3),
    (OSError("disk gone"), 4),
], ids=["config", "numerical", "io"])
@pytest.mark.parametrize("command,callee", [
    ("forward", "tfslab.cli._run"),
    ("ml-eval", "tfslab.cli.ml_eval"),
    ("selftest", "tfslab.selftest.run_battery"),
])
def test_main_maps_each_failure_to_its_exit_code(tmp_path, monkeypatch, capsys, error,
                                                 code, command, callee):
    # one handler in main turns what any subcommand raises into one error line
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(callee, fail)
    argv = {"forward": ["--config", write_config(tmp_path, forward_config()),
                        "--output", str(tmp_path / "out")],
            "ml-eval": ["--alpha", "0.5", "--beta", "1", "--re", "1"],
            "selftest": []}[command]
    assert cli.main([command, *argv]) == code
    [line] = capsys.readouterr().out.splitlines()
    kind = {2: "config", 3: "numerical", 4: "io"}[code]
    assert json.loads(line)["error"]["kind"] == kind
    assert json.loads(line)["error"]["message"] == str(error)


class TestSelftestCommand:
    def test_subset_passes(self, capsys):
        rc = cli.main(["selftest", "--criteria",
                       "spectral-convergence,classical-limit"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2/2 criteria passed" in out

    def test_unknown_criterion_exits_2(self, capsys):
        rc = cli.main(["selftest", "--criteria", "no-such-criterion"])
        assert rc == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err == {"kind": "config", "field": "criteria",
                       "message": "unknown criteria: ['no-such-criterion']"}

    def test_perturbation_hook_fails_loudly(self, monkeypatch, capsys):
        # solver kernels scaled by 1 + 1e-3 fail the criterion: its
        # quadrature oracle evaluates ml_eval, which stays exact
        from tfslab import forward, selftest
        for module in (forward, selftest):
            monkeypatch.setattr(module, "kernel_grid", lambda *args, exact=module.kernel_grid:
                                exact(*args) * (1.0 + 1e-3))
        rc = cli.main(["selftest", "--criteria", "forward-single-mode"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_output_writes_selftest_json(self, tmp_path, capsys):
        out = tmp_path / "st"
        assert cli.main(["selftest", "--criteria", "residue-extraction",
                         "--output", str(out)]) == 0
        [row] = json.loads((out / "selftest.json").read_text())
        assert sorted(row) == ["detail", "limit", "name", "passed", "runtime"]
        assert row["name"] == "residue-extraction" and row["passed"] is True

    def test_output_that_is_a_file_exits_4(self, tmp_path, capsys):
        # an unwritable report is an io error, not a failed criterion
        out = tmp_path / "taken"
        out.write_text("keep")
        assert cli.main(["selftest", "--criteria", "residue-extraction",
                         "--output", str(out)]) == 4
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "io"
        assert out.read_text() == "keep"

    def test_repeated_runs_identical_verdicts(self, capsys):
        rc1 = cli.main(["selftest", "--criteria", "spectral-convergence"])
        first = capsys.readouterr().out.splitlines()[0].split()[0]
        rc2 = cli.main(["selftest", "--criteria", "spectral-convergence"])
        second = capsys.readouterr().out.splitlines()[0].split()[0]
        assert rc1 == rc2 == 0
        assert first == second == "PASS"


def test_cli_import_leaves_out_scipy_integrate():
    # scipy.integrate costs about a quarter of a second of start-up, and the
    # proof machinery integrates with its own Gauss-Legendre rules
    script = ("import sys\nimport tfslab.cli\nimport tfslab.selftest\n"
              "from tfslab.inverse import laplace_identity_gap\n"
              "laplace_identity_gap(0.5, 4.0, 1.0, 40.0)\n"
              "print('scipy.integrate' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_runs_without_scipy(tmp_path):
    # scipy is a test oracle only: with every scipy import failing, each
    # problem (forward on a variable operator), ml-eval and the selftest
    # battery still complete
    paths = {problem: write_config(tmp_path, cfg, f"{problem}.json")
             for problem, cfg in FUZZ_CONFIGS.items()}
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from tfslab.cli import main\n"
        f"paths = {paths!r}\n"
        "codes = [main([p, '--config', c, '--output', c + '.out'])\n"
        "         for p, c in paths.items()]\n"
        "codes.append(main(['ml-eval', '--alpha', '0.5', '--beta', '1.0', '--re', '1.0']))\n"
        "codes.append(main(['selftest']))\n"
        "sys.exit(max(codes))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "14/14 criteria passed" in proc.stdout
