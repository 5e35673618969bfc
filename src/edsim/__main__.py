"""`python -m edsim <command> ...`: the `edsim` command without installing."""

from .cli import main

raise SystemExit(main())
