"""Set-up probe: import trilevel and parse the given config files, then exit.

run.py times a fresh process running this, because every CLI invocation
pays interpreter start, the package import and config parsing:

    python3 perfbench/probe.py CONFIG...
"""

import sys
from pathlib import Path

from trilevel import cli

for path in sys.argv[1:]:
    cli.parse_config(Path(path).read_text())
