"""Arms the census hook in every process a ``tools/census.py`` driver starts."""
import atexit
import os
if "CENSUS_DIR" in os.environ:
    import census
    atexit.register(census.dump)
    census.arm(os.environ["CENSUS_TAG"])
