"""`python -m corings JOB`: the same command-line tool as the `corings` script."""

from .cli import main

if __name__ == "__main__":
    main()
