#!/usr/bin/env bash
# Huge-field serve smoke, under a 4 GiB address-space limit:
#  - one alg2 request with 5 devices on a 200 km field at delta_m = 5
#    (1.6e9 grid cells) must answer "status":"ok", i.e. candidate
#    generation has to scale with the devices, not the field;
#  - the same field at delta_m = 1 (4e10 cells, past INT_MAX cell ids)
#    must answer "status":"bad_request", not an internal error;
#  - serve must exit 0.
# Not for sanitizer builds: their shadow memory cannot run under
# `ulimit -v`.
#
# Usage: scripts/huge_field_smoke.sh BUILD_DIR
set -euo pipefail

UAVDC=${1:?usage: scripts/huge_field_smoke.sh BUILD_DIR}/tools/uavdc
[ -x "$UAVDC" ] || { echo "huge_field_smoke: $UAVDC not built" >&2; exit 1; }

requests=$(python3 -c '
import json
devices = [(400, 300, 500), (150000, 20000, 800), (73000, 151000, 600),
           (199990, 199990, 400), (0, 180000, 300)]
for rid, delta in (("huge-1", 5), ("huge-intmax", 1)):
    print(json.dumps({"id": rid, "planner": "alg2",
        "options": {"delta_m": delta},
        "instance": {"region": {"w": 200000, "h": 200000},
                     "depot": {"x": 0, "y": 0}, "uav": {"energy_j": 3e5},
                     "devices": [{"x": x, "y": y, "data_mb": mb}
                                 for x, y, mb in devices]}}))')

rc=0
responses=$(ulimit -v 4194304 && echo "$requests" | "$UAVDC" serve --workers=1) \
    || rc=$?
echo "$responses"
[ "$rc" -eq 0 ] || { echo "huge_field_smoke: serve exited $rc" >&2; exit 1; }
expect() {  # expect ID STATUS: the response line for ID carries STATUS
    local line
    line=$(grep -F "\"id\":\"$1\"" <<<"$responses") || {
        echo "huge_field_smoke: no response for $1" >&2; exit 1; }
    [[ "$line" == *"\"status\":\"$2\""* ]] || {
        echo "huge_field_smoke: $1 status is not $2" >&2; exit 1; }
}
expect huge-1 ok
expect huge-intmax bad_request
echo "huge_field_smoke: ok"
