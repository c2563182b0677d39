"""``python -m iclsq``: the command line interface of ``iclsq.harness``."""

from .harness import main

if __name__ == "__main__":
    raise SystemExit(main())
