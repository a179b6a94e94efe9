"""python -m gausspde <command> ...: the same command line as the gausspde script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
