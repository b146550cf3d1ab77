"""``python -m consultmarket``: the command-line interface of ``consultmarket.cli``."""

from .cli import main

if __name__ == "__main__":
    main()
