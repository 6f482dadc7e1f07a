"""A directory of links to the pure-Python distributions of this
interpreter's site-packages.

    python3 scripts/pure_site.py DIR

Deletes DIR and makes it again (a link in it is removed, not what it
points to), then links into it each top-level module and package of
every distribution in site-packages whose ``RECORD`` lists no extension
module. A distribution
without a ``RECORD`` is left out, as its files are unknown; so are the
``.dist-info`` directories, so no entry point is found through DIR.
Prints DIR's absolute path.

With DIR on ``PYTHONPATH``, another interpreter that has no pytest can
run the tests with this one's pytest and Hypothesis: ``make test-py``. It
must load Hypothesis's plugin by name (``-p _hypothesis_pytestplugin``),
since the plugin's entry point is not linked. A distribution that needs
a compiled one, such as ``jsonschema`` through ``rpds``, fails to import
there.
"""

from __future__ import annotations

import importlib.metadata
import shutil
import site
import sys
from pathlib import Path

#: Suffixes of an extension module, on POSIX and on Windows.
EXTENSIONS = (".so", ".pyd")


def pure_tops(site_dir: Path) -> set[str]:
    """Top-level names, relative to ``site_dir``, of the files of each
    pure distribution installed there."""
    tops: set[str] = set()
    for dist in importlib.metadata.distributions(path=[str(site_dir)]):
        files = dist.files
        if files is None or any(f.name.endswith(EXTENSIONS) for f in files):
            continue
        tops.update(f.parts[0] for f in files
                    if f.parts[0] not in ("..", "__pycache__")
                    and not f.parts[0].endswith(".dist-info"))
    return tops


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out = Path(argv[0]).absolute()
    if out.exists():
        shutil.rmtree(out)  # removes the links, not what they point to
    out.mkdir(parents=True)
    for site_dir in map(Path, site.getsitepackages()):
        for top in sorted(pure_tops(site_dir)):
            if (site_dir / top).exists() and not (out / top).exists():
                (out / top).symlink_to(site_dir / top)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
