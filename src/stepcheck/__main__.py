"""``python -m stepcheck``: the same command line as ``stepcheck``."""
from .cli import main

raise SystemExit(main())
