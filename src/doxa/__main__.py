"""``python -m doxa``: the ``doxa`` command."""

import sys

from .cli import main

sys.exit(main())
