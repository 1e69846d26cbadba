#!/usr/bin/env python3
"""Walk the full formula-to-automatic-sequence pipeline for each bundled
word with a digit automaton, optionally writing the artifacts.  Each
output automaton is checked at n = 0..256 against the L column of the
direct route.

Usage: run_pipeline_demo.py [output-dir]
"""

import os
import sys
import time

from liewords.bundled import PIPELINE_WORDS, get_word
from liewords.complexity import complexity_table
from liewords.counting import (
    counting_representation,
    minimize_representation,
    representation_to_text,
    sup_value,
    to_dfao,
)
from liewords.logic import build_predicate_library
from liewords.words import dfao_eval, dfao_to_text


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    for name in PIPELINE_WORDS:
        word = get_word(name)
        started = time.monotonic()
        lib = build_predicate_library(word.dfao)
        lie = lib["lie"]
        rep = counting_representation(lie)
        small = minimize_representation(rep)
        d = to_dfao(small)
        built = time.monotonic() - started

        for row in complexity_table(word, range(257)):
            assert int(dfao_eval(d, row.n)) == row.L, (name, row.n)

        head = " ".join(dfao_eval(d, n) for n in range(17))
        print("%s (base %d), built in %.1fs" % (name, word.dfao.base, built))
        print(
            "  predicate %d states -> representation %d -> %d -> output automaton %d states"
            % (lie.n_states, rep.dimension, small.dimension, d.n_states)
        )
        print("  counts 0..16: %s   sup %d" % (head, sup_value(d)))

        if out_dir:
            stem = os.path.join(out_dir, name.replace("-", "_"))
            with open(stem + "_lie.linrep", "w") as fh:
                fh.write(representation_to_text(small))
            with open(stem + "_lie.dfao", "w") as fh:
                fh.write(dfao_to_text(d))
            print("  wrote %s_lie.linrep and %s_lie.dfao" % (stem, stem))
    return 0


if __name__ == "__main__":
    sys.exit(main())
