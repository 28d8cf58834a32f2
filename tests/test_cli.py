import json
import subprocess
import sys

import numpy as np
import pytest

from trilevel.cli import ConfigError, main, parse_config

LAMBDA_CONF = """\
# minimal lambda run
scheme = lambda
atoms = 1
n_max = 4
omega = 1.0
E1 = 0.0
E2 = 0.0
E3 = 3.0
g31 = 0.1
g32 = 0.1
t_max = 40.0
n_samples = 101
initial.atom = 1,0,0
initial.field = fock:1
"""

VEE_CONF = """\
scheme = vee
atoms = 1
n_max = 4
omega = 1.0
E1 = 0.0
E2 = 3.0
E3 = 3.0
g31 = 0.1
g21 = 0.1
t_max = 1000.0
n_samples = 501
initial.atom = 0,0,1
initial.field = fock:0
"""


def write_conf(tmp_path, text, name="run.conf"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_minimal_lambda_config():
    cfg = parse_config(LAMBDA_CONF)
    assert cfg.hamiltonian.scheme == "lambda"
    assert cfg.space.atoms == 1 and cfg.space.n_max == 4
    assert cfg.hamiltonian.energies == (0.0, 0.0, 3.0)
    assert cfg.initial_state().field == ("fock", 1)


def test_missing_coupling_names_key():
    broken = VEE_CONF.replace("g21 = 0.1\n", "")
    with pytest.raises(ConfigError, match="g21"):
        parse_config(broken)


def test_energy_ordering_names_key():
    broken = LAMBDA_CONF.replace("E2 = 0.0", "E2 = -1.0")
    with pytest.raises(ConfigError, match="E2"):
        parse_config(broken)


def test_unknown_and_duplicate_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        parse_config(LAMBDA_CONF + "flux = 2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(LAMBDA_CONF + "omega = 2.0\n")


def test_verify_command_passes(tmp_path):
    conf = write_conf(tmp_path, LAMBDA_CONF)
    out = tmp_path / "out"
    status = main(["verify", "--config", str(conf), "--out", str(out)])
    assert status == 0
    report = json.loads((out / "report.json").read_text())
    assert report["overall_pass"] is True
    assert len(report["checks"]) >= 85  # 81 first-order + 4 second-order + extras


def test_verify_guard_zero_fails_with_exit_1(tmp_path):
    conf = write_conf(tmp_path, LAMBDA_CONF)
    out = tmp_path / "out"
    status = main(["verify", "--config", str(conf), "--out", str(out), "--guard", "0"])
    assert status == 1
    report = json.loads((out / "report.json").read_text())
    assert report["overall_pass"] is False


def test_evolve_writes_normalized_trajectory(tmp_path):
    conf = write_conf(tmp_path, LAMBDA_CONF)
    out = tmp_path / "out"
    assert main(["evolve", "--config", str(conf), "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,pop1,pop2,pop3,n_photon,norm,excitation,leakage"
    assert len(lines) == 102
    for line in lines[1:]:
        norm = float(line.split(",")[5])
        assert abs(norm - 1.0) <= 1e-10


def test_evolve_truncation_unsafe_exit(tmp_path):
    leaky = LAMBDA_CONF.replace("initial.field = fock:1", "initial.field = fock:4")
    conf = write_conf(tmp_path, leaky)
    status = main(["evolve", "--config", str(conf), "--out", str(tmp_path / "o")])
    assert status == 3


def test_coherent_rejection_exit(tmp_path):
    tight = LAMBDA_CONF.replace("initial.field = fock:1",
                                "initial.field = coherent:2.0")
    conf = write_conf(tmp_path, tight)
    status = main(["evolve", "--config", str(conf), "--out", str(tmp_path / "o")])
    assert status == 3


def test_missing_config_file_exit(tmp_path):
    status = main(["verify", "--config", str(tmp_path / "nope.conf")])
    assert status == 2


def test_config_error_exit(tmp_path):
    conf = write_conf(tmp_path, "scheme = lambda\n")
    status = main(["verify", "--config", str(conf)])
    assert status == 2


def test_weights_outputs(tmp_path):
    conf = write_conf(tmp_path, LAMBDA_CONF)
    out = tmp_path / "out"
    assert main(["weights", "--config", str(conf), "--out", str(out)]) == 0
    lines = (out / "weights.csv").read_text().splitlines()
    assert lines[0] == "operator,order,kappa1,kappa2,x,y"
    assert len(lines) == 7  # six data rows for the quantum layout
    assert (out / "weights.svg").read_bytes().startswith(b"<?xml")


def test_weights_classical_mode(tmp_path):
    conf = write_conf(tmp_path, LAMBDA_CONF + "classical_alpha = 0.5+0.5j\n")
    out = tmp_path / "out"
    assert main(["weights", "--config", str(conf), "--out", str(out)]) == 0
    table = (out / "weights.csv").read_text()
    assert "alphaS31" in table


def test_dispersive_compare_outputs(tmp_path):
    conf = write_conf(tmp_path, VEE_CONF.replace("n_max = 4", "n_max = 8"))
    out = tmp_path / "out"
    assert main(["dispersive-compare", "--config", str(conf), "--out", str(out)]) == 0
    payload = json.loads((out / "dispersive.json").read_text())
    assert payload["order_estimate"] >= 2.0
    assert payload["block_residual"] > 0.0
    assert payload["max_population_deviation"] <= 0.05
    assert (out / "dispersive_exact.csv").exists()
    assert (out / "dispersive_effective.csv").exists()


def test_sweep_outputs(tmp_path):
    conf = write_conf(tmp_path, LAMBDA_CONF + "sweep.n_bar = 4,8,16\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(conf), "--out", str(out)]) == 0
    payload = json.loads((out / "sweep.json").read_text())
    assert len(payload["rows"]) == 3
    assert payload["slope"] == pytest.approx(-1.0, abs=0.05)


def test_spectrum_sorted(tmp_path):
    conf = write_conf(tmp_path, LAMBDA_CONF)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(conf), "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values)
    assert len(values) == 15  # 3 x 5 product dimension


def test_console_entry_point(tmp_path):
    conf = write_conf(tmp_path, LAMBDA_CONF)
    proc = subprocess.run(
        [sys.executable, "-m", "trilevel.cli", "verify",
         "--config", str(conf), "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "checks passed" in proc.stdout
