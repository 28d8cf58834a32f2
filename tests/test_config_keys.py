"""The config key table: each key parsed once at parse time, the model rules
left to the library's specs, overrides through the same parsers, the README's
key table and examples in step with the parser, and the sweep's cutoff range."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from trilevel.cli import KEYS, ConfigError, main, parse_config
from trilevel.dynamics import COHERENT_TAIL_LIMIT, required_fock_cutoff
from trilevel.hamiltonian import HamiltonianSpec
from trilevel.hilbert import SpaceSpec
from trilevel.operators import layout

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
COMMANDS = ["verify", "evolve", "dispersive-compare", "weights", "sweep", "spectrum"]

BASE = """\
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


def with_value(key: str, value: str) -> str:
    lines = [line for line in BASE.splitlines() if not line.startswith(f"{key} =")]
    return "\n".join(lines + [f"{key} = {value}"]) + "\n"


def library_text(build, *args, **kwargs) -> str:
    with pytest.raises(ValueError) as err:
        build(*args, **kwargs)
    return str(err.value)


LIBRARY_RULES = [
    ("atoms", "0", library_text(SpaceSpec, 0, 4)),
    ("n_max", "0", library_text(SpaceSpec, 1, 0)),
    ("E2", "-1.0", library_text(HamiltonianSpec, "lambda", (0.0, -1.0, 3.0), 1.0,
                                g31=0.1, g32=0.1)),
    ("scheme", "vea", library_text(layout, "vea")),
]


@pytest.mark.parametrize("key,value,text", LIBRARY_RULES, ids=[r[0] for r in LIBRARY_RULES])
def test_model_rules_raise_the_library_text(key, value, text):
    with pytest.raises(ConfigError) as err:
        parse_config(with_value(key, value))
    assert str(err.value) == text


def run(tmp_path, command, text, *extra):
    conf = tmp_path / "run.conf"
    conf.write_text(text)
    return main([command, "--config", str(conf), "--out", str(tmp_path / "o"), *extra])


@pytest.mark.parametrize("command", COMMANDS)
def test_short_initial_atom_fails_every_command_before_any_output(command, tmp_path, capsys):
    assert run(tmp_path, command, with_value("initial.atom", "1,1")) == 2
    assert capsys.readouterr().err == (
        "config error: initial.atom: occupation must have three entries\n")
    assert not (tmp_path / "o").exists()


PARSE_ERRORS = [
    ("verify", with_value("atoms", "0"), (), "atoms must be >= 1, got 0"),
    ("verify", BASE, ("--guard", "-1"), "guard: must be >= 0"),
    ("dispersive-compare", BASE, ("--guard", "-1"), "guard: must be >= 0"),
    ("verify", BASE, ("--guard", "two"), "guard: cannot parse 'two' as int"),
    ("verify", with_value("guard", "-1"), (), "guard: must be >= 0"),
    ("verify", with_value("out", "elsewhere"), (), "out: unknown key"),
    ("sweep", with_value("sweep.n_bar", "4,-1"), (), "sweep.n_bar: must be >= 0"),
    ("weights", with_value("initial.field", "fock:x"), (),
     "initial.field: cannot parse 'x' as int"),
]


@pytest.mark.parametrize("command,text,extra,message", PARSE_ERRORS,
                         ids=["atoms", "guard-flag-verify", "guard-flag-dispersive",
                              "guard-flag-text", "guard-key", "out-key", "n_bar", "field"])
def test_parse_time_config_error_creates_no_output_directory(
        command, text, extra, message, tmp_path, capsys):
    assert run(tmp_path, command, text, *extra) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_guard_override_replaces_the_config_value(tmp_path):
    assert run(tmp_path, "verify", with_value("guard", "0")) == 1
    assert run(tmp_path, "verify", with_value("guard", "0"), "--guard", "2") == 0


def test_each_key_is_parsed_to_its_final_type():
    cfg = parse_config(BASE + "guard = 3\nsweep.n_bar = 4, 8\nclassical_alpha = 1+1j\n")
    assert cfg.initial_atom == (1, 0, 0)
    assert cfg.initial_field == ("fock", 1)
    assert cfg.n_bars == (4.0, 8.0)
    assert cfg.guard == 3 and cfg.n_samples == 101 and cfg.classical_alpha == 1 + 1j
    assert cfg.space == SpaceSpec(1, 4)
    assert cfg.hamiltonian == HamiltonianSpec("lambda", (0.0, 0.0, 3.0), 1.0,
                                              g31=0.1, g32=0.1)
    dark = parse_config(with_value("initial.atom", "dark"))
    assert dark.initial_atom == "dark"
    assert parse_config(with_value("scheme", "LAMBDA")).hamiltonian.scheme == "lambda"


def readme_key_table() -> dict[str, list[str]]:
    """The README's config-key table as {key: [type, read by, default, check]}."""
    lines = README.splitlines()
    start = lines.index("| key | type | read by | default | check |")
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip("|").split("|")]
        rows[re.fullmatch(r"`([^`]+)`", cells[0]).group(1)] = cells[1:]
    return rows


def readme_example() -> str:
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.S | re.M)
    examples = [body for _, body in blocks if body.startswith("scheme = ")]
    assert len(examples) == 1
    return examples[0]


def test_readme_key_table_lists_exactly_the_parsed_keys():
    table = readme_key_table()
    assert set(table) == set(KEYS)
    required = set()
    for key in KEYS:  # the example config without the key
        text = "".join(line for line in readme_example().splitlines(True)
                       if not line.startswith(f"{key} ="))
        try:
            parse_config(text)
        except ConfigError as err:
            if str(err) == f"{key}: missing required key":
                required.add(key)
    assert required == {key for key, cells in table.items() if cells[2] == "required"}


def test_readme_example_config_parses():
    cfg = parse_config(readme_example())
    assert cfg.initial_atom == (0, 0, 1) and cfg.initial_field == ("fock", 0)


@pytest.mark.parametrize("name", ["lambda.conf", "vee.conf", "sweep.conf"])
def test_committed_config_parses(name):
    parse_config((ROOT / "configs" / name).read_text())


LOG_FACTORIAL = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, 3001)))])


def poisson_tail(n_bar: float, n: int) -> float:
    """P(N > n) for N ~ Poisson(n_bar), each term formed in log space."""
    if n_bar == 0:
        return 0.0
    k = np.arange(n + 1, len(LOG_FACTORIAL))
    return float(np.sum(np.exp(-n_bar + k * math.log(n_bar) - LOG_FACTORIAL[k])))


def test_fock_cutoff_is_the_smallest_safe_one_up_to_708():
    for n_bar in np.arange(0.0, 708.5, 0.5):
        n = required_fock_cutoff(math.sqrt(n_bar))
        assert poisson_tail(n_bar, n) <= COHERENT_TAIL_LIMIT, n_bar
        assert n == 0 or poisson_tail(n_bar, n - 1) > COHERENT_TAIL_LIMIT, n_bar
    assert [required_fock_cutoff(math.sqrt(nb)) for nb in (4, 8, 16, 32)] == [22, 32, 47, 74]


@pytest.mark.parametrize("n_bar", [708.5, 709, 744, 746, 800, 1521, 2000])
def test_fock_cutoff_beyond_708_is_the_smallest_safe_one(n_bar):
    n = required_fock_cutoff(math.sqrt(n_bar))
    assert poisson_tail(n_bar, n) <= COHERENT_TAIL_LIMIT < poisson_tail(n_bar, n - 1)


def lgamma_tail(n_bar: float, n: int) -> float:
    """P(N > n) for N ~ Poisson(n_bar): math.fsum of exp(-n_bar + k log n_bar - lgamma(k + 1))
    over k > n, to 60 standard deviations past the mean."""
    top = int(n_bar + 60 * math.sqrt(n_bar)) + 60
    return math.fsum(math.exp(-n_bar + k * math.log(n_bar) - math.lgamma(k + 1))
                     for k in range(n + 1, top))


@pytest.mark.parametrize("n_bar,cutoff", [(10_000, 10_643), (50_000, 51_429)])
def test_fock_cutoff_is_the_smallest_safe_one_past_thousands_of_terms(n_bar, cutoff):
    """A sum of 1 - total from n = 0 carried the rounding of every addition: it gave
    10,641 (tail 1.08e-10) and 51,443 here."""
    n = required_fock_cutoff(math.sqrt(n_bar))
    assert lgamma_tail(n_bar, n) <= COHERENT_TAIL_LIMIT < lgamma_tail(n_bar, n - 1)
    assert n == cutoff


def summed_from_zero(n_bar: float) -> int:
    """The cutoff with the Poisson sum started at exp(-|alpha|^2), n = 0."""
    lam = math.sqrt(n_bar) ** 2
    weight = total = math.exp(-lam)
    n = 0
    while 1.0 - total > COHERENT_TAIL_LIMIT:
        n += 1
        weight *= lam / n
        total += weight
    return n


def test_fock_cutoff_up_to_708_keeps_the_sum_from_zero():
    """Where exp(-|alpha|^2) is a normal float the sum starts there, as it always did."""
    n_bars = np.arange(1, 2833) / 4  # 0.25 ... 708
    assert [required_fock_cutoff(math.sqrt(nb)) for nb in n_bars] == [
        summed_from_zero(nb) for nb in n_bars]


def test_sweep_beyond_708_runs(tmp_path):
    assert run(tmp_path, "sweep", with_value("sweep.n_bar", "4,744")) == 0
    rows = json.loads((tmp_path / "o" / "sweep.json").read_text())["rows"]
    assert [row["n_max"] for row in rows] == [22, required_fock_cutoff(math.sqrt(744))]


@pytest.mark.parametrize("n_bars, named", [("1e-320,4", "1e-320"), ("1000,1e-306", "1e-306")])
def test_sweep_row_that_is_not_finite_fails_before_any_output(n_bars, named, tmp_path, capsys):
    """An n_bar near 0 overflows the relative difference (1e-320) or, beside a large
    first n_bar, the coupling scale (1e-306): a config error naming it, no Infinity written."""
    assert run(tmp_path, "sweep", with_value("sweep.n_bar", n_bars)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: n_bar = {named} ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()
