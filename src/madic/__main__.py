"""`python -m madic COMMAND FILE [flags]`: the `madic` command of `cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
