#!/usr/bin/env bash
# Compare two outputs of scripts/digests.py, a base's and a head's:
#     scripts/compare_digests.sh BASE_FILE HEAD_FILE
# Every digest that the base prints must be printed by the head with the
# same value.  A digest that only the head prints is listed, not compared,
# so that a change can add one.  Exits 1 on a differing or dropped digest.
set -euo pipefail

awk 'NR == FNR { base[$1] = $2; next }
     { head[$1] = $2 }
     END {
         for (name in base) {
             if (!(name in head)) { print "head drops digest " name; bad = 1 }
             else if (head[name] != base[name]) {
                 print "digest " name " differs: " base[name] " -> " head[name]; bad = 1
             }
         }
         for (name in head)
             if (!(name in base)) print "new digest, not compared: " name " " head[name]
         exit bad
     }' "$1" "$2"
