#!/bin/sh
# metrics-lint: validate a Prometheus text exposition on stdin (or in the
# file/URL given as $1 — URLs are fetched with curl).
#
# Checks, in the spirit of promtool but dependency-free:
#   - every sample line parses as  name{labels} value  (value numeric,
#     NaN/Inf allowed),
#   - every metric belongs to a family that declared # HELP and # TYPE,
#   - # TYPE is one of counter/gauge/histogram,
#   - every family name carries the repo's ffr_ prefix (histogram _bucket/
#     _sum/_count suffixes resolve to their base family),
#   - at least one sample is present (an empty exposition means the
#     registry was never wired in).
#
# Usage:
#   curl -fsS host:port/metrics | sh scripts/metrics-lint.sh
#   sh scripts/metrics-lint.sh http://host:port/metrics
#   sh scripts/metrics-lint.sh dump.txt
# Run by the Go tests that fetch or render an exposition (the cmd/ffr smokes
# lint a live ffr serve and ffr coord; internal/fault lints the campaign
# families) and by `make load-smoke`.

set -u

input=${1:--}
case "$input" in
http://*|https://*)
    tmp=$(mktemp)
    trap 'rm -f "$tmp"' EXIT
    curl -fsS "$input" > "$tmp" || { echo "metrics-lint: cannot fetch $input"; exit 1; }
    input=$tmp
    ;;
-)
    tmp=$(mktemp)
    trap 'rm -f "$tmp"' EXIT
    cat > "$tmp"
    input=$tmp
    ;;
*)
    [ -f "$input" ] || { echo "metrics-lint: no such file: $input"; exit 1; }
    ;;
esac

awk '
function family(name) {
    # histogram series expose per-family _bucket/_sum/_count children
    sub(/_bucket$/, "", name); sub(/_sum$/, "", name); sub(/_count$/, "", name)
    return name
}
function fail(msg) { printf "metrics-lint: line %d: %s: %s\n", NR, msg, $0; bad = 1 }
/^# HELP / {
    if (!match($3, /^[a-zA-Z_:][a-zA-Z0-9_:]*$/)) fail("bad metric name in HELP")
    help[$3] = 1; next
}
/^# TYPE / {
    if ($4 != "counter" && $4 != "gauge" && $4 != "histogram") fail("bad TYPE " $4)
    type[$3] = $4; next
}
/^#/ { next }
/^$/ { next }
{
    if (!match($0, /^[a-zA-Z_:][a-zA-Z0-9_:]*([{][^{}]*[}])? -?([0-9.eE+-]+|NaN|[+]Inf|-Inf)$/)) {
        fail("unparseable sample"); next
    }
    name = $0; sub(/[{ ].*/, "", name)
    fam = family(name)
    if (!(fam in help)) fail("family " fam " has no # HELP")
    if (!(fam in type)) fail("family " fam " has no # TYPE")
    if (fam !~ /^ffr_/) fail("family " fam " lacks the ffr_ prefix")
    samples++
}
END {
    if (!samples) { print "metrics-lint: no samples in exposition"; bad = 1 }
    if (bad) { print "metrics-lint: FAILED"; exit 1 }
    printf "metrics-lint: OK (%d samples)\n", samples
}' "$input"
