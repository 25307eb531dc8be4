import gc

from .cli import main

if __name__ == "__main__":
    # The import-time objects live until exit; frozen, the collector's
    # sweeps, the one at exit included, pass them over.
    gc.freeze()
    raise SystemExit(main())
