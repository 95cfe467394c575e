import json

import numpy as np
import pytest

from cvnnuniv import cli, wirtinger
from cvnnuniv.activations import by_name
from cvnnuniv.classifier import largest_radius
from cvnnuniv.cli import run_cli
from cvnnuniv.constructor import ConstructorConfig, synthesize_deep, synthesize_shallow
from cvnnuniv.network import load_network
from cvnnuniv.targets import resolve_target
from cvnnuniv.verify import MAX_LAPLACIAN_POWER, error_floor_experiment


def test_unknown_activation_exits_2(capsys):
    assert run_cli(["classify", "--activation", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "ratio" in err  # the catalog is listed


def test_unknown_target_exits_2(capsys):
    assert run_cli(["approximate", "--activation", "ratio", "--target", "nosuch"]) == 2


def test_missing_subcommand_exits_2():
    assert run_cli([]) == 2


def test_refused_synthesis_exits_1(capsys):
    code = run_cli(["approximate", "--activation", "sin", "--target", "cone", "--degree", "2"])
    assert code == 1
    assert "refused" in capsys.readouterr().err


def test_refused_deep_synthesis_exits_1_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "cert.json"
    argv = ["approximate", "--activation", "sin", "--target", "cone", "--deep", "--layers", "2", "--out", str(out)]
    assert run_cli(argv) == 1
    assert "refused" in capsys.readouterr().err
    assert not out.exists()


def test_classify_writes_report(tmp_path):
    outs = [tmp_path / "report1.json", tmp_path / "report2.json"]
    for seed, out in zip(("1", "2"), outs):
        assert run_cli(["classify", "--activation", "abs2", "--seed", seed, "--out", str(out)]) == 0
    doc = json.loads(outs[0].read_text())
    assert doc["shallow_universal"] == "no"
    assert doc["deep_universal"] == "no"
    assert doc["version"]
    # classify draws no random numbers: the seed is neither echoed nor able to change a byte
    assert "seed" not in doc["cli"] and "seed" not in doc["config_echo"]
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert doc["cli"] == {"activation": "abs2", "radius": None, "tol": None}


def test_invariants_subcommand(tmp_path):
    out = tmp_path / "inv.json"
    code = run_cli(
        [
            "invariants",
            "--activation",
            "sin",
            "--kind",
            "dbar",
            "--layers",
            "1",
            "--trials",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["invariant_kind"] == "dbar_vanishes"
    assert doc["max_residual"] <= 1e-5


def test_floor_csv_and_json(tmp_path):
    csv_out = tmp_path / "floor.csv"
    code = run_cli(
        ["floor", "--activation", "ratio", "--target", "cone", "--widths", "10,20", "--out", str(csv_out), "--format", "csv"]
    )
    assert code == 0
    lines = csv_out.read_text().strip().split("\n")
    assert lines[0] == "width,sup_error,l1_error"
    table = error_floor_experiment(by_name("ratio"), resolve_target("cone"), (10, 20), (0.0, 1.0), seed=0)
    assert csv_out.read_text() == table.to_csv()
    json_out = tmp_path / "floor.json"
    assert run_cli(["floor", "--activation", "ratio", "--target", "cone", "--widths", "10", "--out", str(json_out)]) == 0
    doc = json.loads(json_out.read_text())
    assert doc["rows"][0]["width"] == 10


# (work function, argv) of each subcommand; every job here must be rejected before its work function runs
JOBS = (
    ("classify", ["classify", "--activation", "ratio"]),
    ("synthesize_shallow", ["approximate", "--activation", "ratio", "--target", "cone", "--override"]),
    ("check_network_invariant", ["invariants", "--activation", "sin"]),
    ("error_floor_experiment", ["floor", "--activation", "ratio", "--target", "cone"]),
)


def _no_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the job ran")

    for attr, _ in JOBS:
        monkeypatch.setattr(cli, attr, refuse)


def test_format_csv_only_on_floor_exits_2_before_work(tmp_path, monkeypatch):
    _no_work(monkeypatch)
    out = tmp_path / "report.csv"
    for _, argv in JOBS[:3]:
        assert run_cli(argv + ["--format", "csv", "--out", str(out)]) == 2, argv
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["approximate", "--activation", "ratio", "--target", "cone", "--degree", "8"],
        ["approximate", "--activation", "ratio", "--target", "cone", "--degree", "-1"],
        ["approximate", "--activation", "ratio", "--target", "cone", "--deep", "--layers", "1"],
        ["approximate", "--activation", "ratio", "--target", "cone", "--radius", "-1"],
        ["approximate", "--activation", "ratio", "--target", "cone", "--dims", "0"],
        ["classify", "--activation", "ratio", "--tol", "-1"],
        ["invariants", "--activation", "sin", "--layers", "0"],
        ["invariants", "--activation", "sin", "--trials", "0"],
        ["floor", "--activation", "ratio", "--target", "cone", "--widths", "0"],
        ["floor", "--activation", "ratio", "--target", "cone", "--widths", ","],
        ["invariants", "--activation", "sin", "--kind", "laplacian:x"],
        ["invariants", "--activation", "sin", "--kind", "laplacian:-1"],
        ["invariants", "--activation", "sin", "--kind", "laplacian:0"],
        ["invariants", "--activation", "sin", "--kind", "laplacian_power_vanishes(x)"],
        ["floor", "--activation", "ratio", "--target", "cone", "--widths", "100,50"],
        ["floor", "--activation", "ratio", "--target", "cone", "--widths", "50,50"],
        ["invariants", "--activation", "sin", "--kind", f"laplacian:{MAX_LAPLACIAN_POWER + 1}"],
        ["invariants", "--activation", "sin", "--kind", "laplacian:600"],
    ],
)
def test_out_of_range_flag_exits_2_before_work(argv, tmp_path, capsys, monkeypatch):
    _no_work(monkeypatch)
    for attr in ("synthesize_deep", "lift_dimension"):
        monkeypatch.setattr(cli, attr, lambda *args, **kwargs: pytest.fail("the job ran"))
    out = tmp_path / "report.json"
    assert run_cli(argv + ["--out", str(out)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert not out.exists()


MOLLIFIED = ("ratio", "zlog", "rho_c", "example_4_8", "arcsin_principal")


def test_classify_radius_past_the_lattice_reach_exits_2(tmp_path, capsys, monkeypatch):
    # past largest_radius a grid point or stencil node of a mollified classification may be off the lattice
    _no_work(monkeypatch)
    out = tmp_path / "report.json"
    for name in MOLLIFIED:
        limit = largest_radius(by_name(name))
        for radius in (np.nextafter(limit, np.inf), 5e4, 1e7):
            assert run_cli(["classify", "--activation", name, "--radius", repr(float(radius)), "--out", str(out)]) == 2
            assert f"--radius must be at most {limit:.6g} for {name}" in capsys.readouterr().err
            assert not out.exists()
    assert largest_radius(by_name("sin")) == np.inf


def test_classify_up_to_the_lattice_reach_stays_on_the_lattice(tmp_path, monkeypatch):
    # the lattice sums are replaced by cheap pseudo-random values: every point still passes the lattice test
    def values(self, u, v):
        x = np.sin(12.9898 * u + 78.233 * v) * 43758.5453
        return (x - np.floor(x)) + 1j * np.cos(0.37 * u + v)

    monkeypatch.setattr(wirtinger.LatticeMollification, "_values", values)
    out = tmp_path / "report.json"
    for name in MOLLIFIED:
        limit = largest_radius(by_name(name))
        for radius in (limit, 0.999 * limit, 0.5 * limit):
            assert run_cli(["classify", "--activation", name, "--radius", repr(float(radius)), "--out", str(out)]) == 0


def test_config_flag_exits_2(tmp_path, monkeypatch):
    _no_work(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("widths = 10\nseed = 5\n")
    out = tmp_path / "report.json"
    for _, argv in JOBS:
        assert run_cli(argv + ["--config", str(cfg), "--out", str(out)]) == 2, argv
        assert not out.exists()


def test_env_seed_is_ignored(tmp_path, monkeypatch):
    monkeypatch.setenv("CVNN_SEED", "77")
    out = tmp_path / "floor.json"
    assert run_cli(["floor", "--activation", "ratio", "--target", "cone", "--widths", "10", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["cli"]["seed"] == 0


def test_deep_approximate(tmp_path):
    out = tmp_path / "cert.json"
    code = run_cli(
        [
            "approximate",
            "--activation",
            "example_4_8",
            "--target",
            "cone",
            "--deep",
            "--layers",
            "2",
            "--radius",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["sup_error"] <= 0.1
    assert doc["network_size"][0] == 2  # two hidden layers


def test_degree_zero_approximates_by_a_constant(tmp_path):
    out, net = tmp_path / "cert.json", tmp_path / "net.json"
    argv = ["approximate", "--activation", "ratio", "--target", "cone", "--degree", "0"]
    assert run_cli(argv + ["--out", str(out), "--network-out", str(net)]) == 0
    doc = json.loads(out.read_text())
    assert doc["network_size"] == [1, 0] and doc["failures"] == []
    assert doc["sup_error"] < 0.6
    assert load_network(net).hidden_layers == 1


def test_dims_routes_to_lifting(tmp_path):
    out = tmp_path / "cert.json"
    code = run_cli(
        [
            "approximate",
            "--activation",
            "ratio",
            "--target",
            "rez",
            "--dims",
            "2",
            "--radius",
            "1",
            "--override",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["domain"]["d"] == 2
    assert doc["sup_error"] <= 0.05


def test_network_out(tmp_path, monkeypatch):
    nets = []
    for run in range(2):
        cert = tmp_path / f"cert{run}.json"
        nets.append(tmp_path / f"net{run}.json")
        argv = ["approximate", "--activation", "abs2", "--target", "abs2_target", "--degree", "2", "--override"]
        code = run_cli(argv + ["--seed", "4", "--out", str(cert), "--network-out", str(nets[-1])])
        assert code == 0
    doc = json.loads(nets[0].read_text())
    assert doc["format"] == "cvnn-network/1"
    assert doc["L"] == 1
    assert nets[0].read_bytes() == nets[1].read_bytes()
    shallow, _ = synthesize_shallow(
        by_name("abs2"),
        resolve_target("abs2_target"),
        (0.0, 1.0),
        2,
        ConstructorConfig(seed=4),
        target_name="abs2_target",
        gate=False,
    )
    want = shallow.to_network()
    got = load_network(nets[0])
    _assert_same_layers(want, got)

    # deep: a cvnn-network/2 document of the ridge layer and the shared trunk
    deep_net = tmp_path / "deep.json"
    argv = ["approximate", "--activation", "example_4_8", "--target", "cone", "--deep", "--override", "--seed", "4"]
    assert run_cli(argv + ["--out", str(tmp_path / "deep-cert.json"), "--network-out", str(deep_net)]) == 0
    assert json.loads(deep_net.read_text())["format"] == "cvnn-network/2"
    want, _ = synthesize_deep(
        by_name("example_4_8"), resolve_target("cone"), 1, 2, (0.0, 1.0), ConstructorConfig(seed=4), gate=False
    )
    _assert_same_ridges(want, load_network(deep_net))

    # lifted: also a cvnn-network/2 document, the psi fit as a depth-1 trunk
    lifted = []

    def record(*args, fn=cli.lift_dimension, **kwargs):
        lifted.append(fn(*args, **kwargs))
        return lifted[-1]

    monkeypatch.setattr(cli, "lift_dimension", record)
    lifted_net = tmp_path / "lifted.json"
    argv = ["approximate", "--activation", "ratio", "--target", "rez", "--dims", "2", "--override"]
    assert run_cli(argv + ["--out", str(tmp_path / "lifted-cert.json"), "--network-out", str(lifted_net)]) == 0
    assert json.loads(lifted_net.read_text())["format"] == "cvnn-network/2"
    _assert_same_ridges(lifted[0][0], load_network(lifted_net))


def _assert_same_ridges(want, got):
    for name in ("c", "a", "w", "b"):
        want_bits, got_bits = (np.atleast_1d(getattr(n.ridge, name)).view(np.uint64) for n in (want, got))
        assert np.array_equal(want_bits, got_bits)
    _assert_same_layers(want.trunk, got.trunk)


def _assert_same_layers(want, got):
    assert len(got.layers) == len(want.layers)
    for (a1, b1), (a2, b2) in zip(want.layers, got.layers):
        assert np.array_equal(a1.view(np.uint64), a2.view(np.uint64))
        assert np.array_equal(b1.view(np.uint64), b2.view(np.uint64))


def test_unwritable_output_exits_2(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "missing" / "x.json"
    floor = ["floor", "--activation", "ratio", "--target", "cone", "--widths", "10"]
    assert run_cli(floor + ["--out", str(missing)]) == 2
    assert "cannot write" in capsys.readouterr().err
    approx = ["approximate", "--activation", "abs2", "--target", "abs2_target", "--degree", "2", "--override"]
    assert run_cli(approx + ["--out", str(tmp_path / "cert.json"), "--network-out", str(missing)]) == 2
    assert "cannot write" in capsys.readouterr().err
    assert not missing.parent.exists()

    # both outputs are checked before synthesis starts, and the failed run writes no certificate
    def no_synthesis(*args, **kwargs):
        raise AssertionError("synthesis ran despite an unwritable output")

    monkeypatch.setattr(cli, "synthesize_shallow", no_synthesis)
    assert run_cli(approx + ["--out", str(tmp_path / "cert.json"), "--network-out", str(missing)]) == 2
    assert run_cli(approx + ["--out", str(missing), "--network-out", str(tmp_path / "net.json")]) == 2
    assert not (tmp_path / "cert.json").exists()
    assert not (tmp_path / "net.json").exists()


def test_eps_outside_deep_relu_c_exits_2(tmp_path, capsys):
    # the ReLU surrogate's budget is fixed, so --eps is an unknown flag on every run, deep relu_c on C^1 included
    out, net = tmp_path / "cert.json", tmp_path / "net.json"
    approx = ["approximate", "--activation", "ratio", "--degree", "2", "--eps", "0.5"]
    runs = (["--target", "cone"], ["--target", "cone", "--deep"], ["--target", "cone", "--dims", "2"])
    runs += (["--target", "relu_c"], ["--target", "relu_c", "--deep"], ["--target", "relu_c", "--deep", "--dims", "2"])
    for extra in runs:
        argv = approx + extra + ["--out", str(out), "--network-out", str(net)]
        assert run_cli(argv) == 2, extra
        assert "--eps" in capsys.readouterr().err
        assert not out.exists() and not net.exists()
