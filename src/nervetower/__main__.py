"""`python -m nervetower`: the same command line as the `nervetower` script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
