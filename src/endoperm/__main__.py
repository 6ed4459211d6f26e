"""`python -m endoperm`: the command-line interface of `endoperm.cli`."""

import sys

from .cli import main

sys.exit(main())
