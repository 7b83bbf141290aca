#!/usr/bin/env bash
# Huge-field serve smoke: one alg2 request with 5 devices on a 200 km field
# at delta_m = 5 (1.6e9 grid cells) must answer "status":"ok" and exit 0
# under a 4 GiB address-space limit, i.e. candidate generation has to scale
# with the devices, not the field. Not for sanitizer builds: their shadow
# memory cannot run under `ulimit -v`.
#
# Usage: scripts/huge_field_smoke.sh BUILD_DIR
set -euo pipefail

UAVDC=${1:?usage: scripts/huge_field_smoke.sh BUILD_DIR}/tools/uavdc
[ -x "$UAVDC" ] || { echo "huge_field_smoke: $UAVDC not built" >&2; exit 1; }

request=$(python3 -c '
import json
devices = [(400, 300, 500), (150000, 20000, 800), (73000, 151000, 600),
           (199990, 199990, 400), (0, 180000, 300)]
print(json.dumps({"id": "huge-1", "planner": "alg2", "options": {"delta_m": 5},
    "instance": {"region": {"w": 200000, "h": 200000},
                 "depot": {"x": 0, "y": 0}, "uav": {"energy_j": 3e5},
                 "devices": [{"x": x, "y": y, "data_mb": mb}
                             for x, y, mb in devices]}}))')

rc=0
response=$(ulimit -v 4194304 && echo "$request" | "$UAVDC" serve --workers=1) \
    || rc=$?
echo "$response"
[ "$rc" -eq 0 ] || { echo "huge_field_smoke: serve exited $rc" >&2; exit 1; }
[[ "$response" == *'"status":"ok"'* ]] || {
    echo "huge_field_smoke: response status is not ok" >&2; exit 1; }
echo "huge_field_smoke: ok"
