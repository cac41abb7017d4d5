import contextlib
import copy
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voltrack import (
    SingularSystemError,
    TrackingKernel,
    cli,
    fredholm,
    qp,
    riccati,
    simulate,
    solve_riccati,
    solve_tracking,
)
from voltrack.cli import Instance, _write_long_field, _write_rows, main

from test_golden import configs as golden_configs

DEMO = Path(__file__).resolve().parent.parent / "demos" / "configs" / "tracking.json"

NO_SCIPY_PROBE = """
import sys
from voltrack.cli import main

for argv in (
    ["simulate"],
    ["synthesize", "--route", "fredholm"],
    ["synthesize", "--route", "riccati"],
    ["synthesize", "--route", "oracle"],
    ["compare"],
    ["verify"],
    ["convergence", "--grids", "30,60"],
):
    assert main(argv + ["--config", sys.argv[1], "--out", sys.argv[2]]) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def write_config(path, **overrides):
    cfg = {
        "dims": {"d": 1, "m": 1, "p": 1},
        "horizon": 1.0,
        "steps": 100,
        "A": [0.0],
        "B": [1.0],
        "C": [1.0],
        "kernel": {"type": "zero"},
        "reference": {"type": "zero"},
        "initial_state": {"tau_index": 0, "head": [0.0]},
        "control": {"type": "zero"},
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg, indent=1))
    return cfg


def tracking_config(path, steps=100):
    """The d=2 tracking instance in config form."""
    rng = np.random.default_rng(12345)
    A = 0.6 * rng.normal(size=(2, 2))
    G = 0.8 * rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 1))
    C = rng.normal(size=(1, 2))
    return write_config(
        path,
        dims={"d": 2, "m": 1, "p": 1},
        steps=steps,
        A=A.reshape(-1).tolist(),
        B=B.reshape(-1).tolist(),
        C=C.reshape(-1).tolist(),
        kernel={
            "type": "exponential",
            "terms": [{"matrix": G.reshape(-1).tolist(), "rate": 1.0}],
        },
        # polynomial so the signal survives --n / --grids overrides
        reference={"type": "polynomial", "coefficients": [[0.3, 0.5, -2.0, 1.0]]},
        initial_state={"tau_index": 0, "head": [0.9, -0.4]},
    )


def reference_long_field(path, nodes, field, name):
    """The long-format writer that stacks every row numerically first."""
    jj, ii = np.tril_indices(field.shape[1])
    entry = field.shape[2:]
    values = field[ii, jj].reshape(ii.size, -1)
    indices = np.indices(entry).reshape(len(entry), -1).T + 1.0
    count = values.shape[1]
    rows = np.column_stack(
        [
            np.repeat(nodes[ii], count),
            np.repeat(nodes[jj], count),
            np.tile(indices, (ii.size, 1)),
            values.reshape(-1),
        ]
    )
    _write_rows(path, ["s", "tau", "i", "j"][: 2 + len(entry)] + [name], rows)


def read_table(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split("\t")
    data = np.array([[float(v) for v in ln.split("\t")] for ln in lines[1:]])
    return header, data


def test_no_command_loads_scipy(tmp_path):
    # every dense solve is numpy's; one fresh process runs every command
    # (at 20 steps verify fails its three-way bound, so 30)
    cfg = tmp_path / "c.json"
    tracking_config(cfg, steps=30)
    src = str(Path(fredholm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PROBE, str(cfg), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"  # verify prints its checks first


class TestSimulate:
    def test_zero_run_writes_zero_trajectory(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        header, data = read_table(tmp_path / "trajectory.tsv")
        assert header == ["t", "w_1", "u_1"]
        assert np.abs(data[:, 1:]).max() == 0.0

    def test_last_step_computes_no_unread_slope(self, tmp_path):
        # one step from node 7 of 8 under a kernel of 1e308: the slope at the
        # last node overflowed, warning on a finite, exit-0 run; the
        # configured warnings-as-errors filter turns a warning into a failure
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            steps=8,
            kernel={"type": "exponential", "terms": [{"matrix": [1e308], "rate": 1.0}]},
            initial_state={
                "tau_index": 7,
                "head": [1.0],
                "tail": {"type": "polynomial", "coefficients": [[1.0]]},
            },
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, data = read_table(tmp_path / "trajectory.tsv")
        assert np.isfinite(data).all()

    def test_cosh_instance(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            steps=400,
            kernel={"type": "exponential", "terms": [{"matrix": [1.0], "rate": 0.0}]},
            initial_state={"tau_index": 0, "head": [1.0]},
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, data = read_table(tmp_path / "trajectory.tsv")
        assert abs(data[-1, 1] - math.cosh(1.0)) < 1e-3

    def test_malformed_matrix_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        write_config(cfg, dims={"d": 2, "m": 1, "p": 1}, A=[0.0, 1.0, -1.0])
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "field 'A'" in err and "4" in err

    @pytest.mark.parametrize("bad", [math.nan, True])
    def test_non_finite_or_boolean_matrix_entry_exits_2(self, tmp_path, capsys, bad):
        cfg = tmp_path / "c.json"
        write_config(cfg, A=[bad])
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "field 'A'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"steps": 2.5}, "steps"),
            ({"dims": {"d": 1, "m": True, "p": 1}}, "dims.m"),
            ({"initial_state": {"tau_index": 1.5, "head": [0.0]}}, "initial_state.tau_index"),
            ({"initial_state": {"tau_index": 0, "head": [True]}}, "initial_state.head"),
            (
                {"reference": {"type": "polynomial", "coefficients": [[0.5, True]]}},
                "reference.coefficients",
            ),
            ({"horizon": True}, "horizon"),
            (
                {"kernel": {"type": "exponential", "terms": [{"matrix": [0.1], "rate": True}]}},
                "kernel.terms[0].rate",
            ),
        ],
    )
    def test_non_integer_or_boolean_field_exits_2(self, tmp_path, capsys, overrides, field):
        cfg = tmp_path / "c.json"
        write_config(cfg, **overrides)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"kernel": 5}, "kernel"),
            ({"initial_state": 7}, "initial_state"),
            ({"reference": "x"}, "reference"),
            ({"control": [1]}, "control"),
            ({"tolerances": [1]}, "tolerances"),
            ({"dims": 3}, "dims"),
            ({"kernel": {"type": "exponential", "terms": 5}}, "kernel.terms"),
            ({"kernel": {"type": "exponential", "terms": [5]}}, "kernel.terms[0]"),
        ],
    )
    def test_section_of_wrong_json_type_exits_2(self, tmp_path, capsys, overrides, field):
        cfg = tmp_path / "c.json"
        write_config(cfg, **overrides)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, field",
        [
            (
                {
                    "kernel": {
                        "type": "exponential",
                        "terms": [
                            {"matrix": [0.1], "rate": 1.0},
                            {"matrix": "ab", "rate": 1.0},
                        ],
                    }
                },
                "kernel.terms[1].matrix",
            ),
            (
                {
                    "kernel": {
                        "type": "exponential",
                        "terms": [{"matrix": [0.1], "rate": 1.0}, {"matrix": [0.2]}],
                    }
                },
                "kernel.terms[1].rate",
            ),
            ({"dims": {"d": 1, "p": 1}}, "dims.m"),
            ({"initial_state": {"tau_index": 0}}, "initial_state.head"),
            ({"reference": {"type": "table"}}, "reference.values"),
            ({"dims": {"d": 0, "m": 1, "p": 1}}, "dims.d"),
            ({"dims": {"d": 1, "m": -1, "p": 1}}, "dims.m"),
            (
                {"initial_state": {"tau_index": 0, "head": [0.0], "tail": {"type": "sine"}}},
                "initial_state.tail.type",
            ),
            (
                {
                    "initial_state": {
                        "tau_index": 0,
                        "head": [0.0],
                        "tail": {"type": "polynomial", "coefficients": "x"},
                    }
                },
                "initial_state.tail.coefficients",
            ),
        ],
    )
    def test_nested_field_error_names_its_path(self, tmp_path, capsys, overrides, field):
        cfg = tmp_path / "c.json"
        write_config(cfg, **overrides)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "out, output_dir, field",
        [
            (None, 5, "output_dir"),
            (None, "taken", "output_dir"),
            ("taken", ".", "--out"),
            ("taken/sub", ".", "--out"),
        ],
    )
    def test_bad_output_dir_exits_2(
        self, tmp_path, monkeypatch, capsys, out, output_dir, field
    ):
        # "taken" is an existing file, so no directory can be made there
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("")
        cfg = tmp_path / "c.json"
        write_config(cfg, output_dir=output_dir)
        argv = ["simulate", "--config", str(cfg)] + ([] if out is None else ["--out", out])
        assert main(argv) == 2
        assert f"field '{field}'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "taken"]

    @pytest.mark.parametrize("defect", ["boolean", "string", "ragged"])
    @pytest.mark.parametrize(
        "field",
        ["kernel.values", "reference.values", "initial_state.tail.values", "control.values"],
    )
    def test_bad_node_table_exits_2(self, tmp_path, capsys, field, defect):
        section = field.split(".")[0]
        rows = 3 if section == "initial_state" else 5
        table = [[0.0] for _ in range(rows)]
        if defect == "ragged":
            table[1].append(0.0)
        else:
            table[0][0] = True if defect == "boolean" else "0.1"
        spec = {"type": "table", "values": table}
        if section == "initial_state":
            spec = {"tau_index": 2, "head": [0.0], "tail": spec}
        cfg = tmp_path / "c.json"
        write_config(cfg, steps=4, **{section: spec})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [(None, "error: cannot read config: "), ("[1, 2]", "error: config root must be an object")],
        ids=["unreadable", "list_root"],
    )
    def test_config_file_that_is_no_object_exits_2(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "c.json"
        if text is not None:
            cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "o").exists()

    def test_missing_initial_state_starts_from_zero_at_node_0(self, tmp_path):
        cfg = tmp_path / "c.json"
        raw = write_config(cfg, control={"type": "table", "values": [[1.0]] * 101})
        del raw["initial_state"]
        cfg.write_text(json.dumps(raw))
        state = Instance(raw, None).state
        assert state.tau_index == 0 and state.head.tolist() == [0.0]
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, data = read_table(tmp_path / "trajectory.tsv")
        # w' = u = 1 from w(0) = 0
        assert data[0, 1] == 0.0 and abs(data[-1, 1] - 1.0) < 1e-12

    def test_integral_float_steps_accepted(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg, steps=100.0)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("name", ["blowup", "threeway"])
    def test_nan_tolerance_exits_2(self, tmp_path, capsys, name):
        # a NaN bound would switch the blow-up guard off: A = 9 blows past 100
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            A=[9.0],
            initial_state={"tau_index": 0, "head": [1.0]},
            tolerances={"blowup": 100.0, name: math.nan},
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"field 'tolerances.{name}'" in capsys.readouterr().err

    def test_singular_step_matrix_exits_3(self, tmp_path, capsys):
        # h = 1/2 and A = 4 I make the implicit step matrix I - h/2 A exactly zero
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            dims={"d": 2, "m": 1, "p": 1},
            steps=2,
            A=[4.0, 0.0, 0.0, 4.0],
            B=[0.0, 1.0],
            C=[1.0, 0.0],
            initial_state={"tau_index": 0, "head": [1.0, 0.0]},
        )
        for argv in (["simulate"], ["synthesize", "--route", "riccati"]):
            assert main(argv + ["--config", str(cfg), "--out", str(tmp_path)]) == 3
            assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, overrides, flags, field",
        [
            ("simulate", {}, ["--n", "0"], "--n"),
            ("simulate", {"steps": 1}, [], "steps"),
            ("convergence", {}, ["--grids", "1,50"], "--grids"),
        ],
    )
    def test_too_few_grid_steps_names_the_field(
        self, tmp_path, capsys, command, overrides, flags, field
    ):
        cfg = tmp_path / "c.json"
        write_config(cfg, **overrides)
        argv = [command, "--config", str(cfg), "--out", str(tmp_path)] + flags
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"field '{field}'" in err and "at least 2 steps" in err

    def test_non_finite_nystrom_system_exits_3(self, tmp_path, capsys, monkeypatch):
        build_kernel = fredholm.build_kernel

        def nan_kernel(Z, start_index):
            kernel = build_kernel(Z, start_index)
            kernel.ktilde[1, 2] = np.nan
            return kernel

        monkeypatch.setattr(fredholm, "build_kernel", nan_kernel)
        cfg = tmp_path / "c.json"
        tracking_config(cfg, steps=10)
        assert main(["synthesize", "--route", "fredholm", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "Nystrom system has non-finite entries" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # refused, not warned
    def test_non_finite_normal_equations_exit_3(self, tmp_path, capsys, monkeypatch):
        build_affine_map = qp.build_affine_map

        def inf_map(*args):
            dmap = build_affine_map(*args)
            dmap.G[3, 1] = np.inf
            return dmap

        monkeypatch.setattr(qp, "build_affine_map", inf_map)
        cfg = tmp_path / "c.json"
        tracking_config(cfg, steps=10)
        assert main(["synthesize", "--route", "oracle", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "QP normal equations have non-finite entries" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # refused, not warned
    def test_non_finite_resolvent_window_exits_3(self, tmp_path, capsys, monkeypatch):
        resolvent = fredholm.resolvent

        def nan_resolvent(kernel):
            R = resolvent(kernel)
            R.values[3, 2, 1, 0] = np.nan
            return R

        monkeypatch.setattr(fredholm, "resolvent", nan_resolvent)
        cfg = tmp_path / "c.json"
        tracking_config(cfg, steps=10)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "resolvent on the window from node 0 has non-finite entries" in err

    def test_singular_nystrom_matrix_exits_3(self, tmp_path, capsys, monkeypatch):
        # Ktilde(t_0, t_0) BB* w_0 = -8 * 1 * 1/8 = -1 exactly, so the Nystrom
        # matrix has an all-zero first column
        def singular_kernel(Z, start_index):
            ktilde = np.zeros((Z.sys.grid.steps + 1 - start_index,) * 2 + (1, 1))
            ktilde[0, 0] = -8.0
            return TrackingKernel(start_index, ktilde, Z)

        monkeypatch.setattr(fredholm, "build_kernel", singular_kernel)
        cfg = tmp_path / "c.json"
        write_config(cfg, steps=4)
        assert main(["synthesize", "--route", "fredholm", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        assert "Nystrom matrix is singular" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, grids, field",
        [
            (["synthesize", "--route", "riccati", "--n", "20000"], None, "--n"),
            (["synthesize", "--route", "riccati"], None, "steps"),
            (["convergence", "--grids", "20,40"], None, "--grids"),
            (["convergence"], [20, 40], "grids"),
        ],
    )
    def test_out_of_memory_names_the_grid_size(
        self, tmp_path, capsys, monkeypatch, argv, grids, field
    ):
        # the solver raises as an oversized allocation would; nothing large is allocated
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 11.9 GiB for an array")

        monkeypatch.setattr(riccati, "solve_riccati", out_of_memory)
        cfg = tmp_path / "c.json"
        write_config(cfg, steps=20, **({"grids": grids} if grids else {}))
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"field '{field}'" in err and "Unable to allocate" in err

    def test_unparseable_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text("{broken")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_blowup_exits_3(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            A=[9.0],
            initial_state={"tau_index": 0, "head": [1.0]},
            tolerances={"blowup": 100.0},
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 3

    @pytest.mark.parametrize(
        "argv, overrides, field",
        [
            (
                ["synthesize", "--route", route],
                {"reference": {"type": "polynomial", "coefficients": [[0, 1e308, 1e308]]}},
                "reference.coefficients",
            )
            for route in ("fredholm", "riccati", "oracle")
        ]
        + [
            (
                ["simulate"],
                {
                    "initial_state": {
                        "tau_index": 50,
                        "head": [0.0],
                        "tail": {"type": "polynomial", "coefficients": [[0, 1e308, 1e308]]},
                    }
                },
                "initial_state.tail.coefficients",
            )
        ],        ids=["fredholm", "riccati", "oracle", "simulate_tail"],
    )
    def test_overflowing_polynomial_names_its_field(
        self, tmp_path, capsys, argv, overrides, field
    ):
        # on [0, 10] the polynomial overflows to Infinity
        cfg = tmp_path / "c.json"
        write_config(cfg, horizon=10.0, **overrides)
        assert main(argv + ["--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert f"field '{field}': values must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, overrides, field, quoted",
        [
            ("simulate", {"kernel": {"type": "exponential", "terms": []}}, "kernel.terms", "[]"),
            (
                "simulate",
                {"initial_state": {"tau_index": 100, "head": [0.0]}},
                "initial_state.tau_index",
                "got 100",
            ),
            (
                "simulate",
                {"initial_state": {"tau_index": 0, "head": [0.5, 1.5]}},
                "initial_state.head",
                "[0.5, 1.5]",
            ),
            (
                "simulate",
                {
                    "initial_state": {
                        "tau_index": 2,
                        "head": [0.0],
                        "tail": {"type": "polynomial", "coefficients": [[1.0], [2.0]]},
                    }
                },
                "initial_state.tail.coefficients",
                "got 2",
            ),
            (
                "simulate",
                {"reference": {"type": "polynomial", "coefficients": [[1.0], [2.0]]}},
                "reference.coefficients",
                "got 2",
            ),
            ("simulate", {"kernel": {"type": "gauss"}}, "kernel.type", "'gauss'"),
            ("simulate", {"reference": {"type": "sine"}}, "reference.type", "'sine'"),
            (
                "simulate",
                {"initial_state": {"tau_index": 2, "head": [0.0], "tail": {"type": "sine"}}},
                "initial_state.tail.type",
                "'sine'",
            ),
            ("simulate", {"control": {"type": "sine"}}, "control.type", "'sine'"),
            (
                "simulate",
                {"control": {"type": "polynomial", "coefficients": [[1.0]]}},
                "control.type",
                "expected one of zero|table, got 'polynomial'",
            ),
            (
                "simulate",
                {"kernel": {"type": "polynomial", "coefficients": [[1.0]]}},
                "kernel.type",
                "expected one of zero|exponential|table, got 'polynomial'",
            ),
            # a null control or kernel is refused; a null reference is zero
            ("simulate", {"control": None}, "control", "expected an object, got NoneType"),
            ("simulate", {"kernel": None}, "kernel", "expected an object, got NoneType"),
            (
                "compare",
                {"initial_state": {"tau_index": 99, "head": [0.0]}},
                "initial_state.tau_index",
                "got 99",
            ),
            ("convergence", {"grids": [50]}, "grids", "[50]"),
            ("synthesize", {}, "route", "missing"),
        ],
    )
    def test_message_names_the_field_and_quotes_the_value(
        self, tmp_path, capsys, command, overrides, field, quoted
    ):
        cfg = tmp_path / "c.json"
        write_config(cfg, **overrides)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: field '{field}': " in err and quoted in err


class TestLongFieldWriter:
    @pytest.mark.parametrize("n", [2, 50])
    @pytest.mark.parametrize("entry", [(1, 1), (3, 3), (1,), (3,)], ids=str)
    def test_bytes_equal_reference(self, tmp_path, n, entry):
        rng = np.random.default_rng(n + 10 * len(entry) + entry[0])
        field = rng.normal(size=(n + 1, n + 1) + entry) * 10.0 ** rng.integers(
            -300, 300, size=(n + 1, n + 1) + entry
        )
        # one (s, tau) node pair of the written triangle per special value
        special = np.array([-0.0, 5e-324, 1e300, -1e300, -5e-324, -2.5])
        ii, jj = np.tril_indices(n + 1)
        field[ii[: special.size], jj[: special.size]] = special.reshape((-1,) + (1,) * len(entry))
        nodes = np.linspace(0.0, 1.0, n + 1)
        name = "p1" if len(entry) == 2 else "d2"
        _write_long_field(tmp_path / "new.tsv", nodes, field, name)
        reference_long_field(tmp_path / "ref.tsv", nodes, field, name)
        assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "ref.tsv").read_bytes()

    def test_memory_stays_at_one_column(self, tmp_path):
        # the whole p1 text at n = 240, d = 3 is ~22 MB; one tau column is ~0.1 MB
        field = np.random.default_rng(3).normal(size=(241, 241, 3, 3))
        nodes = np.linspace(0.0, 1.0, 241)
        tracemalloc.start()
        try:
            _write_long_field(tmp_path / "p1.tsv", nodes, field, "p1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestSynthesize:
    def test_zero_problem_all_routes(self, tmp_path):
        # a null reference runs as the zero reference
        cfg = tmp_path / "c.json"
        for reference in ({"type": "zero"}, None):
            write_config(cfg, reference=reference)
            for route in ("fredholm", "riccati", "oracle"):
                out = tmp_path / f"{route}_{reference is None}"
                rc = main(
                    ["synthesize", "--config", str(cfg), "--out", str(out), "--route", route]
                )
                assert rc == 0
                _, data = read_table(out / "control.tsv")
                assert np.abs(data[:, 1]).max() == 0.0
                assert float((out / "cost.txt").read_text()) == 0.0

    def test_tanh_field_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(
            cfg,
            steps=200,
            initial_state={"tau_index": 0, "head": [1.0]},
            route="riccati",
        )
        assert main(["synthesize", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        _, p0 = read_table(tmp_path / "p0.tsv")
        assert abs(p0[0, 1] - math.tanh(1.0)) < 1e-3
        # long-format P1 field exists with (s, tau, i, j, value) rows
        header, _ = read_table(tmp_path / "p1.tsv")
        assert header == ["s", "tau", "i", "j", "p1"]

    def test_long_field_layout(self, tmp_path):
        # one row per (tau_j, s_i <= tau_j, entry), in that order, values at 17 digits
        cfg = tmp_path / "c.json"
        n = 12
        raw = tracking_config(cfg, steps=n)
        argv = ["synthesize", "--config", str(cfg), "--out", str(tmp_path), "--route", "riccati"]
        assert main(argv) == 0
        inst = Instance(raw, None)
        ric = solve_riccati(inst.sys, blowup_limit=inst.blowup)
        trk = solve_tracking(ric, inst.reference)
        nodes = inst.grid.nodes
        for name, field in (("p1", ric.p1), ("d2", trk.d2)):
            _, data = read_table(tmp_path / f"{name}.tsv")
            entry = field.shape[2:]
            assert data.shape[0] == (n + 1) * (n + 2) // 2 * inst.d ** len(entry)
            expected = [
                (nodes[i], nodes[j], *(np.array(idx) + 1.0), field[(i, j) + idx])
                for j in range(n + 1)
                for i in range(j + 1)
                for idx in np.ndindex(entry)
            ]
            np.testing.assert_array_equal(data, np.array(expected))

    def test_route_agreement(self, tmp_path):
        cfg = tmp_path / "c.json"
        tracking_config(cfg, steps=100)
        controls = {}
        for route in ("fredholm", "riccati", "oracle"):
            out = tmp_path / route
            assert (
                main(
                    [
                        "synthesize",
                        "--config",
                        str(cfg),
                        "--out",
                        str(out),
                        "--route",
                        route,
                    ]
                )
                == 0
            )
            _, data = read_table(out / "control.tsv")
            controls[route] = data[:, 1]
        h = 1.0 / 100
        w = np.full(101, h)
        w[0] = w[-1] = h / 2
        pairs = [("fredholm", "riccati"), ("fredholm", "oracle"), ("riccati", "oracle")]
        for a, b in pairs:
            num = math.sqrt(w @ (controls[a] - controls[b]) ** 2)
            den = math.sqrt(w @ controls[b] ** 2)
            assert num / den <= 5e-2

    def test_missing_route_exits_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg)
        assert main(["synthesize", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("route", [[1], 5, {"name": "riccati"}, "lqr"])
    def test_bad_config_route_exits_2(self, tmp_path, capsys, route):
        cfg = tmp_path / "c.json"
        write_config(cfg, route=route)
        assert main(["synthesize", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "field 'route'" in capsys.readouterr().err

    def test_determinism(self, tmp_path):
        cfg = tmp_path / "c.json"
        tracking_config(cfg, steps=60)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert (
                main(
                    [
                        "synthesize",
                        "--config",
                        str(cfg),
                        "--out",
                        str(out),
                        "--route",
                        "riccati",
                    ]
                )
                == 0
            )
        for name in ("control.tsv", "trajectory.tsv", "cost.txt", "p0.tsv", "p1.tsv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestCompare:
    def test_report_contents(self, tmp_path):
        cfg = tmp_path / "c.json"
        tracking_config(cfg, steps=80)
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = (tmp_path / "report.txt").read_text()
        assert "check\tP0(T) = 0\tpass" in report
        costs = {}
        for line in report.splitlines():
            if line.startswith("cost_"):
                key, val = line.split("\t")
                costs[key] = float(val)
        vals = sorted(costs.values())
        assert vals[-1] - vals[0] < 1e-3  # three costs within O(h) of each other

    def test_zero_problem_zero_discrepancies(self, tmp_path):
        cfg = tmp_path / "c.json"
        write_config(cfg)
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = (tmp_path / "report.txt").read_text()
        for line in report.splitlines():
            if line.startswith("discrepancy_"):
                assert float(line.split("\t")[1]) == 0.0


    @pytest.mark.filterwarnings("default::RuntimeWarning")  # shown, as by the CLI, not raised
    def test_non_finite_report_exits_3(self, tmp_path, capsys):
        # a head of 1e308 overflows the costs to inf and the value, the
        # discrepancies and the DI slack to nan; verify exits 3 on it too
        cfg = json.loads(DEMO.read_text())
        cfg["initial_state"]["head"] = [1e308, 0.0]
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        with warnings.catch_warnings(record=True) as caught:
            assert main(["compare", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
        assert not caught  # the overflows on the way are not shown
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: not finite in the report: cost_fredholm,")
        assert err.count("\n") == 1
        for name in ("cost_oracle", "value_function", "discrepancy_riccati_oracle", "di_slack_max"):
            assert name in err
        assert "P0(T) = 0" not in err  # the final conditions stay exact zeros


@pytest.mark.parametrize("command", ["compare", "verify"])
def test_start_at_last_interior_node_is_refused(tmp_path, capsys, command):
    cfg = tmp_path / "c.json"
    tracking_config(cfg, steps=40)
    raw = json.loads(cfg.read_text())
    raw["initial_state"] = {"tau_index": 39, "head": [0.9, -0.4]}
    cfg.write_text(json.dumps(raw))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "initial_state.tau_index" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.txt"))


@pytest.mark.parametrize(
    "command, overrides, field",
    [
        ("simulate", {"dims": []}, "dims"),
        ("simulate", {"control": {"type": "table", "values": [[0.0]]}}, "control.values"),
        ("synthesize", {"route": "lqr"}, "route"),
        ("compare", {"initial_state": {"tau_index": 99, "head": [0.0]}}, "initial_state.tau_index"),
        ("verify", {"initial_state": {"tau_index": 99, "head": [0.0]}}, "initial_state.tau_index"),
        # node 5 of 20 steps is node 7.5 of 30
        (
            "convergence",
            {"grids": [20, 30], "initial_state": {"tau_index": 5, "head": [0.0]}},
            "initial_state.tau_index",
        ),
        # a node table fits the first grid only, so the second grid's instance fails
        ("convergence", {"kernel": {"type": "table", "values": [[0.0]] * 21}}, "kernel.values"),
    ],
)
def test_refused_config_creates_no_output_dir(tmp_path, capsys, command, overrides, field):
    cfg = tmp_path / "c.json"
    write_config(cfg, **{"steps": 20, "grids": [20, 40], **overrides})
    out = tmp_path / "new" / "a" / "b"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert f"field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize(
    "argv, overrides, field",
    [
        (["simulate"], {"steps": 1e18}, "steps"),
        (["simulate"], {"steps": 1e200}, "steps"),
        (["simulate", "--n", str(10**18)], {}, "--n"),
        (["convergence"], {"grids": [20, 1e308]}, "grids"),
        (["convergence", "--grids", "20,1e18"], {}, "--grids"),
    ],
)
def test_unindexable_grid_size_is_refused_by_name(tmp_path, capsys, argv, overrides, field):
    # numpy cannot index such a grid's arrays; on a d = 2 plant its own
    # errors, "array is too big" and "Maximum allowed dimension exceeded",
    # name no field, so the size is refused before anything is allocated
    cfg = tmp_path / "c.json"
    raw = {**tracking_config(cfg, steps=20), "grids": [20, 40], **overrides}
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "new"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert f"field '{field}': grid too large for memory" in capsys.readouterr().err
    assert not out.exists()


class TestConvergence:
    def test_orders(self, tmp_path):
        cfg = tmp_path / "c.json"
        tracking_config(cfg, steps=50)
        assert (
            main(
                [
                    "convergence",
                    "--config",
                    str(cfg),
                    "--out",
                    str(tmp_path),
                    "--grids",
                    "50,100,200",
                ]
            )
            == 0
        )
        header, data = read_table(tmp_path / "convergence.tsv")
        assert header[0] == "n"
        orders_three = data[1:, 3]
        orders_voc = data[1:, 5]
        assert (orders_three >= 1.0).all()
        assert (orders_voc >= 1.8).all()

    def test_routes_simulate_only_what_is_read(self, tmp_path, monkeypatch):
        # per grid at m = 1: 2m + 1 impulse runs for the oracle's map and one
        # for the simulate/voc error; no route's trajectory is simulated
        calls = []

        def counting_simulate(*args):
            calls.append(args[0].grid.steps)
            return simulate(*args)

        monkeypatch.setattr(cli, "simulate", counting_simulate)
        monkeypatch.setattr(qp, "simulate", counting_simulate)
        cfg = tmp_path / "c.json"
        tracking_config(cfg, steps=20)
        argv = ["convergence", "--config", str(cfg), "--out", str(tmp_path), "--grids", "20,40"]
        assert main(argv) == 0
        assert calls.count(20) == calls.count(40) == 4 and len(calls) == 8

    def test_start_between_nodes_is_refused(self, tmp_path, capsys):
        # tau = 20 T / 50 is node 25.6 of 64 steps, so that grid has no node at tau
        cfg = tmp_path / "c.json"
        raw = tracking_config(cfg, steps=50)
        raw["initial_state"] = {"tau_index": 20, "head": [0.9, -0.4]}
        cfg.write_text(json.dumps(raw))
        argv = ["convergence", "--config", str(cfg), "--out", str(tmp_path)]
        assert main(argv + ["--grids", "50,64"]) == 2
        assert "field 'initial_state.tau_index'" in capsys.readouterr().err
        assert not (tmp_path / "convergence.tsv").exists()

    def test_grid_override_flag_is_refused(self, tmp_path, capsys):
        # the grid sizes come from --grids or grids alone, so --n is an error
        cfg = tmp_path / "c.json"
        tracking_config(cfg, steps=50)
        argv = ["convergence", "--config", str(cfg), "--out", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--n", "7", "--grids", "20,40"])
        assert exc.value.code == 2
        assert "--n" in capsys.readouterr().err
        assert not (tmp_path / "convergence.tsv").exists()

    def test_single_grid_exits_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        tracking_config(cfg, steps=50)
        rc = main(
            ["convergence", "--config", str(cfg), "--out", str(tmp_path), "--grids", "50"]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "flag, grids, field",
        [
            ("50,50", None, "--grids"),
            ("50,abc", None, "--grids"),
            (None, [50, 50], "grids"),
            (None, "50,100", "grids"),
        ],
    )
    def test_bad_grid_sizes_exit_2(self, tmp_path, capsys, flag, grids, field):
        cfg = tmp_path / "c.json"
        raw = tracking_config(cfg, steps=50)
        if grids is not None:
            raw["grids"] = grids
            cfg.write_text(json.dumps(raw))
        argv = ["convergence", "--config", str(cfg), "--out", str(tmp_path)]
        assert main(argv + (["--grids", flag] if flag else [])) == 2
        assert f"field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "convergence.tsv").exists()


class TestGridChangeKeepsTau:
    """A grid size not from `steps` (--n, grids, --grids) keeps tau's time:
    node k of `steps` becomes node k n / steps, which must be an integer."""

    def history(self, tmp_path, **overrides) -> Path:
        # the golden `history` config: 100 steps, tau at node 20, head = history(tau)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**golden_configs()["history"], **overrides}))
        return path

    @pytest.mark.parametrize("n", ["50", "200"])
    def test_verify_passes_on_another_grid(self, tmp_path, capsys, n):
        cfg = self.history(tmp_path)
        argv = ["verify", "--config", str(cfg), "--out", str(tmp_path / "out"), "--n", n]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("PASS\t") == 12 and "FAIL" not in out

    def test_start_between_nodes_is_refused(self, tmp_path, capsys):
        # node 20 of 100 steps is node 19.8 of 99
        cfg = self.history(tmp_path)
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out), "--n", "99"]) == 2
        assert "field 'initial_state.tau_index'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["simulate"], ["synthesize", "--route", "riccati"], ["compare"], ["verify"]],
    )
    def test_n_equal_to_steps_changes_nothing(self, tmp_path, capsys, argv):
        cfg = self.history(tmp_path)
        runs = []  # (stdout and stderr, output files) without and with --n
        for name, flags in (("plain", []), ("n", ["--n", "100"])):
            out = tmp_path / name
            assert main(argv + ["--config", str(cfg), "--out", str(out)] + flags) == 0
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            runs.append((capsys.readouterr(), files))
        assert runs[0] == runs[1]

    def test_node_table_tail_is_refused(self, tmp_path, capsys):
        # the 21 rows sit on nodes 0..20 of 100 steps; read on 200 steps they
        # would squeeze the history into [0, tau / 2]
        tail = {"type": "table", "values": [[1.0, 0.0]] * 21}
        state = {"tau_index": 20, "head": [1.0, 0.0], "tail": tail}
        cfg = self.history(tmp_path, initial_state=state)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--n", "200"]) == 2
        assert "field 'initial_state.tail.values'" in capsys.readouterr().err


class TestVerify:
    def test_full_invariant_suite_passes(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        tracking_config(cfg, steps=60)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "final_conditions_zero" in out
        assert (tmp_path / "verify.txt").exists()

    def test_one_resolvent_and_one_perturbed_batch(self, tmp_path, monkeypatch):
        # the Nystrom matrix is factored twice, for the costate and for the
        # window-0 resolvent; every later window is a downdate of the latter.
        # The ten perturbed controls take one simulate and one di_residual call.
        calls = []

        def counting(mod, name):
            real = getattr(mod, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(mod, name, wrapper)

        for mod, name in [
            (fredholm, "resolvent"),
            (fredholm, "_nystrom_solve"),
            (cli, "simulate"),
            (riccati, "di_residual"),
        ]:
            counting(mod, name)
        cfg = tmp_path / "c.json"
        tracking_config(cfg, steps=40)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert calls.count("resolvent") == 1
        assert calls.count("_nystrom_solve") == 2
        assert calls.count("di_residual") == 2  # the optimal pair and the batch
        assert calls.count("simulate") == 3  # the Fredholm and oracle routes, the batch


HUGE_TAIL = {
    "initial_state": {
        "tau_index": 2,
        "head": [1.0, 0.0],
        "tail": {"type": "polynomial", "coefficients": [[1e308, 0], [0, 0]]},
    }
}

HUGE_REFERENCE = {
    "grids": [8, 16],
    "reference": {"type": "polynomial", "coefficients": [[1e308, 0.5, -2.0, 1.0]]},
}


@pytest.mark.filterwarnings("default::RuntimeWarning")  # shown, as by the CLI, not raised
@pytest.mark.parametrize(
    "argv, overrides, message",
    [
        (
            ["synthesize", "--route", "riccati"],
            HUGE_TAIL,
            "trajectory exceeded the blow-up bound 1e+08",
        ),
        (["compare"], HUGE_TAIL, "not finite in the report: cost_fredholm, cost_riccati, "),
        (["compare"], {"B": [-1e308, 1.0]}, "Nystrom system has non-finite entries"),
        (["verify"], {"B": [-1e308, 1.0]}, "Nystrom system has non-finite entries"),
        (["convergence"], HUGE_REFERENCE, "not finite in the convergence table: err_threeway\n"),
    ],
    ids=["synthesize_tail", "compare_tail", "compare_B", "verify_B", "convergence_reference"],
)
def test_numerical_failure_prints_one_line(tmp_path, capsys, argv, overrides, message):
    # numpy overflows on the way to each failure; its warnings are not shown
    cfg = {**json.loads(DEMO.read_text()), "steps": 8, **overrides}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        assert main(argv + ["--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert not caught
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure: {message}") and err.count("\n") == 1


def test_warnings_are_shown_only_for_a_finished_run(tmp_path, capsys, monkeypatch):
    # every simulate run warns; w(1) = e^9 ~ 8.1e3 passes the default blow-up bound, not 100
    def warning_simulate(*args):
        np.multiply(1e308, 10.0)  # RuntimeWarning: overflow
        return simulate(*args)

    monkeypatch.setattr(cli, "simulate", warning_simulate)
    cfg = tmp_path / "c.json"
    argv = ["simulate", "--config", str(cfg), "--out", str(tmp_path)]
    write_config(cfg, A=[9.0], initial_state={"tau_index": 0, "head": [1.0]})
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # as under the configured pytest filter
        with pytest.raises(RuntimeWarning, match="overflow"):
            main(argv)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        assert main(argv) == 0
    assert [(w.category, w.filename) for w in caught] == [(RuntimeWarning, __file__)]
    write_config(
        cfg, A=[9.0], initial_state={"tau_index": 0, "head": [1.0]}, tolerances={"blowup": 100.0}
    )
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        assert main(argv) == 3
    assert not caught
    assert capsys.readouterr().err == "numerical failure: trajectory exceeded the blow-up bound 100\n"


# the CLI contract under a config fuzz: one or two fields of a small demo
# config, n = 8 from a tau = 2 polynomial history, replaced or deleted, and
# an optional --n for the commands that take one: tau = 2 T / 8 is node 1 of 4
# and node 4 of 16, and no node of 7
FUZZ_CONFIG = {
    **json.loads(DEMO.read_text()),
    "steps": 8,
    "initial_state": {
        "tau_index": 2,
        "head": [1.0, 0.0],
        "tail": {"type": "polynomial", "coefficients": [[0.6, 1.5, 2.5], [0.3, -2.0, 2.5]]},
    },
    "grids": [8, 16],
}
DELETE = object()
FUZZ_VALUES = [
    math.nan, math.inf, -math.inf, 1e308, -1e308, 1e200,
    "x", "", [], [1.0, 2.0], {}, {"type": "zero"}, None, True, False, DELETE,
]  # fmt: skip


def _field_paths(node, prefix=()):
    """The key path of every field below ``node``, nested ones included."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


def _mutated(mutations) -> dict:
    cfg = copy.deepcopy(FUZZ_CONFIG)
    for path, value in mutations:
        node = cfg
        try:
            for key in path[:-1]:
                node = node[key]
            if value is DELETE:
                del node[path[-1]]
            else:
                node[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced this field's section
    return cfg


def _non_finite_numbers(path: Path) -> list[str]:
    """The numbers in an output file that are not finite; the order columns of
    convergence.tsv, NaN where no order is defined, are left out."""
    rows = [line.split("\t") for line in path.read_text().splitlines()]
    skip = set()
    if path.name == "convergence.tsv":
        skip = {i for i, name in enumerate(rows[0]) if name.startswith("order_")}
    bad = []
    for row in rows:
        for i, token in enumerate(row):
            try:
                value = float(token)
            except ValueError:
                continue
            if i not in skip and not math.isfinite(value):
                bad.append(token)
    return bad


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(list(_field_paths(FUZZ_CONFIG))), st.sampled_from(FUZZ_VALUES)),
        min_size=1,
        max_size=2,
    ),
    st.sampled_from([None, 4, 7, 16]),
)
def test_mutated_config_keeps_the_exit_contract(mutations, n):
    cfg = _mutated(mutations)
    between_nodes = n == 7 and all(cfg.get(f) == FUZZ_CONFIG[f] for f in ("steps", "initial_state"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(cfg))
        for command in ("simulate", "synthesize", "compare", "verify", "convergence"):
            outdir = Path(tmp) / command
            stdout, err = io.StringIO(), io.StringIO()
            with (
                contextlib.redirect_stdout(stdout),
                contextlib.redirect_stderr(err),
                warnings.catch_warnings(record=True) as caught,
            ):
                warnings.simplefilter("always")
                flags = [] if n is None or command == "convergence" else ["--n", str(n)]
                code = main([command, "--config", str(path), "--out", str(outdir)] + flags)
            assert code in (0, 2, 3), (command, err.getvalue())
            if between_nodes and flags:
                assert code == 2, (command, err.getvalue())
            lines = err.getvalue().splitlines()
            if code == 2:
                assert len(lines) == 1 and "field '" in lines[0], (command, lines)
            if code == 3:
                # one line and no warning; a verify whose table has a FAIL prints none
                failed_verify = command == "verify" and "FAIL\t" in stdout.getvalue()
                assert len(lines) == (0 if failed_verify else 1), (command, lines)
                assert all(ln.startswith("numerical failure: ") for ln in lines), (command, lines)
            if code != 0:
                assert not caught, (command, [str(w.message) for w in caught])
            else:
                warned = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
                assert not warned, (command, warned)
                for out in outdir.iterdir():
                    assert not _non_finite_numbers(out), (command, out.name)


def test_hypothesis_failure_report_imports_under_the_warning_filters():
    # a failing @given test makes hypothesis import this module for its report;
    # if the import raised under the session's filters, pytest would stop with
    # INTERNALERROR and run no later test. The module needs libcst, which the
    # plain hypothesis install does not bring; like hypothesis's plugin, skip on
    # an ImportError only. (pytest.importorskip would ignore every warning.)
    try:
        importlib.import_module("hypothesis.extra._patching")
    except ImportError as exc:
        pytest.skip(f"hypothesis failure report unavailable: {exc}")
