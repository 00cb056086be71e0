"""``python -m pulsespec``: the command-line front-end of ``pulsespec.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
