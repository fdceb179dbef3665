"""``python -m asrt``: the command line of cli.py."""

from .cli import main

if __name__ == "__main__":
    main()
