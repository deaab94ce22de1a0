"""`python -m polybox`: the `polybox` command line."""
import sys

from .cli import main

sys.exit(main())
