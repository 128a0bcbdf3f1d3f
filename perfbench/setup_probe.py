"""Pay the fixed cost of a CLI run, then exit before any classification.

    python3 perfbench/setup_probe.py DATASET MASKS hash|linear NUM_LABELS SEED

Imports the package, loads the dataset and the mask set, and builds the
classifier, as every `evaluate` and `verify` run does before its first
classifier call. The benchmark times the whole process.
"""

import sys


def main(argv: list[str]) -> int:
    dataset, masks, kind, num_labels, seed = argv
    import patchcert
    from patchcert import dataset_io

    records = dataset_io.load_dataset(dataset)
    mask_set = dataset_io.load_maskset(masks)
    backend = {"hash": patchcert.HashClassifier,
               "linear": patchcert.LinearClassifier}[kind]
    backend(seed=int(seed), num_labels=int(num_labels))
    print(len(records), len(mask_set))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
