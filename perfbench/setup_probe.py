"""Set-up time of a fresh process: import topowalk, then build and validate configs.

    python3 setup_probe.py <src dir> <configs.json>

Prints the seconds from just before `import topowalk` to the moment every
config in the JSON list has passed `config_from_dict`, i.e. up to the first run().
"""

import json
import sys
import time


def main() -> None:
    src, configs_path = sys.argv[1], sys.argv[2]
    with open(configs_path, encoding="utf-8") as fh:
        configs = json.load(fh)
    sys.path.insert(0, src)
    start = time.perf_counter()
    import topowalk

    for cfg in configs:
        topowalk.config_from_dict(cfg)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main()
