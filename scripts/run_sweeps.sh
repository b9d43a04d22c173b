#!/usr/bin/env bash
# Hyperparameter sweeps on the blobs dataset (minutes, no downloads):
#   m  — transition sharpness of the stochastic weight hop
#   r  — activation zero-window (drives activation sparsity)
#   a  — surrogate pulse half-width
#   n1 — weight grid depth: binary (0), ternary (1) and multi-level (2, 3)
#   n2 — activation grid depth, over the same four grids
# Each sweep trains one model per value and writes runs/sweeps/sweep_<param>.csv.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=${1:-runs/sweeps}

python3 -m gxnor sweep --config configs/blobs.cfg --param m \
    --values 0.2,0.5,1,2,3,5,10 --out-dir "$OUT"
python3 -m gxnor sweep --config configs/blobs.cfg --param r \
    --values 0.2,0.5,0.8,1.2,2,3.5 --out-dir "$OUT"
python3 -m gxnor sweep --config configs/blobs.cfg --param a \
    --values 0.1,0.25,0.5,1 --out-dir "$OUT"
python3 -m gxnor sweep --config configs/blobs.cfg --param n1 \
    --values 0,1,2,3 --out-dir "$OUT"
python3 -m gxnor sweep --config configs/blobs.cfg --param n2 \
    --values 0,1,2,3 --out-dir "$OUT"
