#!/usr/bin/env bash
# Desk-scale end-to-end run comparing the four reconstruction methods on one
# synthetic phantom, mirroring the trend table of the README. Writes
# metrics.csv with one block of rows per method. Expect about 40 s on a 2-core
# machine, most of it in training.
set -euo pipefail

OUT="${1:-table1_out}"
CFG="$OUT/config.json"
mkdir -p "$OUT"

cat > "$CFG" <<'JSON'
{
  "sequence": {"n_frames": 1000},
  "subspace": {"s": 10},
  "trajectory": {"kind": "golden_radial", "r": 10},
  "coils": {"count": 4},
  "phantom": {"preset": "heldout", "matrix": 48},
  "recon": {"iterations": 5},
  "train": {
    "epochs": 45,
    "encoder_epochs": 200,
    "n_train": 6,
    "decoder_epochs": 200
  }
}
JSON

run() { python3 -m mrfrecon --threads 1 "$@"; }

run build-dict  --config "$CFG" --out "$OUT/dict"
run simulate    --config "$CFG" --dict "$OUT/dict" --out "$OUT/sim"
run train       --config "$CFG" --dict "$OUT/dict" --out "$OUT/ckpt"

run reconstruct --config "$CFG" --data "$OUT/sim" --dict "$OUT/dict" \
                --method bp-dm           --out "$OUT/rec_bp-dm"
run reconstruct --config "$CFG" --data "$OUT/sim" --dict "$OUT/dict" \
                --method dm-pgd          --out "$OUT/rec_dm-pgd"
run reconstruct --config "$CFG" --data "$OUT/sim" --dict "$OUT/dict" \
                --model "$OUT/ckpt/baseline" --method bp-neural \
                --out "$OUT/rec_bp-neural"
run reconstruct --config "$CFG" --data "$OUT/sim" --dict "$OUT/dict" \
                --model "$OUT/ckpt/unrolled" --method neural-unrolled \
                --out "$OUT/rec_neural-unrolled"

echo "method,property,nrmse,mae" > "$OUT/metrics.csv"
for method in bp-dm dm-pgd bp-neural neural-unrolled; do
  run eval --est "$OUT/rec_$method" --truth "$OUT/sim/truth" \
           --out "$OUT/rec_$method/metrics.csv"
  tail -n +2 "$OUT/rec_$method/metrics.csv" | sed "s/^/$method,/" \
           >> "$OUT/metrics.csv"
  run render --maps "$OUT/rec_$method" --out "$OUT/rec_$method/pgm"
done

echo
echo "== $OUT/metrics.csv =="
cat "$OUT/metrics.csv"
