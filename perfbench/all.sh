#!/usr/bin/env bash
# Runs every workload in turn from the root of a checkout, passing the
# remaining flags on, and exits nonzero if any run fails a correctness gate:
#
#   bash perfbench/all.sh --seed 1 --seconds 20 --trace 0
set -uo pipefail

rc=0
for w in sf-steady-100k daemon-churn-10k figures; do
	bash perfbench/run.sh --workload "$w" "$@" || rc=1
done
exit "$rc"
