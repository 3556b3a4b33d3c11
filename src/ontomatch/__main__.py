"""``python -m ontomatch``: the ``ontomatch`` command line."""

from .cli import main

if __name__ == "__main__":
    main()
