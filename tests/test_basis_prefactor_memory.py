"""One cached basis object per spec, and out-of-memory runs as config errors."""

import pytest

import trilevel.cli as cli
from trilevel.hilbert import SpaceSpec, index_map


@pytest.mark.parametrize("atoms,n_max", [(1, 3), (3, 2)])
def test_one_cached_index_map_per_spec(atoms, n_max):
    spec = SpaceSpec(atoms, n_max)
    imap = index_map(spec)
    assert index_map(SpaceSpec(atoms, n_max)) is imap
    for flat in range(spec.product_dim):
        occ, n = imap.split(flat)
        assert tuple(imap.occupations[flat]) == occ
        assert imap.photons[flat] == n
    assert not imap.occupations.flags.writeable and not imap.photons.flags.writeable


CONF = """\
scheme = lambda
atoms = 1
n_max = 4
omega = 1.0
E1 = 0.0
E2 = 0.0
E3 = 3.0
g31 = 0.1
g32 = 0.1
"""


@pytest.mark.parametrize("message,shown", [
    ("Unable to allocate 8.00 GiB for an array", "Unable to allocate 8.00 GiB for an array"),
    ("", "out of memory"),
])
def test_memory_error_is_a_config_error(message, shown, tmp_path, monkeypatch, capsys):
    def exhausted(cfg, out):
        raise MemoryError(message)

    monkeypatch.setitem(cli.COMMANDS, "spectrum", exhausted)
    conf = tmp_path / "run.conf"
    conf.write_text(CONF)
    status = cli.main(["spectrum", "--config", str(conf), "--out", str(tmp_path / "o")])
    assert status == cli.EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: problem size: {shown}\n"
