#!/bin/sh
# Elastic-fleet smoke test: boot a frontend over one worker, start a
# campaign, register a second worker mid-flight through the membership
# API, SIGKILL whichever worker owns the campaign's scheme, and assert
# the campaign still finishes with zero failed jobs, its dead worker's
# jobs re-dispatched, while the ring keeps both members and
# /v1/workers lists the dead one unhealthy.
#
# The campaign is sized so the join and the kill both land mid-flight:
# single-shard workers with one decode worker each, 1600 jobs against a
# 6000x3000 scheme, as in crash-smoke. The script fails unless jobs are
# still unsettled right after the join and right after the kill.
set -eu

tmp=$(mktemp -d)
w1=127.0.0.1:19404
w2=127.0.0.1:19405
fa=127.0.0.1:19406
base=http://$fa
jobs=1600
w1pid=
w2pid=
fpid=
cleanup() {
	for p in "$w1pid" "$w2pid" "$fpid"; do
		[ -n "$p" ] && kill "$p" 2>/dev/null || true
	done
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/pooledd" ./cmd/pooledd

fail() {
	echo "elastic-smoke: $1" >&2
	exit 1
}

field() { # field NAME JSON -> first numeric value of "NAME"
	printf '%s' "$2" | sed -n "s/.*\"$1\":\([0-9][0-9]*\).*/\1/p" | head -1
}

sfield() { # sfield NAME JSON -> first string value of "NAME"
	printf '%s' "$2" | sed -n "s/.*\"$1\":\"\([^\"]*\)\".*/\1/p" | head -1
}

settled() { # settled -> jobs of the campaign settled so far
	p=$(curl -sf "$base/v1/campaigns/$cid") || fail "progress poll failed"
	echo $(($(field completed "$p") + $(field failed "$p") + $(field canceled "$p")))
}

wait_up() { # wait_up URL WHAT LOG
	i=0
	while ! curl -sf "$1" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "elastic-smoke: $2 did not come up; log tail:" >&2
			tail -5 "$3" >&2
			exit 1
		fi
		sleep 0.1
	done
}

"$tmp/pooledd" -worker -addr "$w1" -shards 1 -shard-workers 1 2>>"$tmp/w1.log" &
w1pid=$!
"$tmp/pooledd" -worker -addr "$w2" -shards 1 -shard-workers 1 2>>"$tmp/w2.log" &
w2pid=$!
"$tmp/pooledd" -addr "$fa" -workers "$w1" 2>>"$tmp/frontend.log" &
fpid=$!
wait_up "http://$w1/metrics" "worker 1" "$tmp/w1.log"
wait_up "http://$w2/metrics" "worker 2" "$tmp/w2.log"
wait_up "$base/v1/stats" "frontend" "$tmp/frontend.log"
# The frontend's first probe can beat worker 1's listener, and until the
# next probe (2 s later) an unhealthy worker refuses campaigns as
# saturated: wait until the frontend has seen it healthy.
i=0
until curl -sf "$base/v1/stats" | grep -q '"healthy":true'; do
	i=$((i + 1))
	[ "$i" -le 100 ] || fail "frontend never saw worker 1 healthy"
	sleep 0.1
done

# Register the scheme and launch a campaign of all-zero counts (k=8
# keeps the decoder scoring every candidate column per job).
curl -sf -X POST "$base/v1/schemes" \
	-d '{"design":"random-regular","n":6000,"m":3000,"seed":1}' >/dev/null ||
	fail "scheme registration failed"
row="[$(printf '0,%.0s' $(seq 2 3000))0]"
{ printf '{"scheme":"s1","k":8,"batch":['; yes "$row" | head -n "$jobs" | paste -sd, -; printf ']}'; } >"$tmp/campaign.json"
# A 429 means the worker's queue was full at admission; retry as a
# client would.
i=0
while :; do
	code=$(curl -s -o "$tmp/created" -w '%{http_code}' -X POST "$base/v1/campaigns" \
		--data-binary @"$tmp/campaign.json") || fail "campaign submission failed"
	[ "$code" = 429 ] || break
	i=$((i + 1))
	[ "$i" -le 100 ] || fail "campaign submission refused with 429 100 times"
	sleep 0.01
done
[ "$code" = 202 ] || fail "campaign submission answered $code: $(cat "$tmp/created")"
cid=$(sfield id "$(cat "$tmp/created")")
[ -n "$cid" ] || fail "no campaign id in: $(cat "$tmp/created")"

# Let a handful of jobs settle on the lone worker, then grow the fleet
# through the membership API while the campaign is still in flight.
i=0
while [ "$(settled)" -lt 5 ]; do
	i=$((i + 1))
	[ "$i" -le 200 ] || fail "no jobs settled before the join"
	sleep 0.1
done
curl -sf -X POST "$base/v1/workers" -d "{\"addr\":\"$w2\"}" >/dev/null ||
	fail "registering worker 2 mid-campaign failed"
n=$(settled)
[ "$n" -lt "$jobs" ] || fail "the join landed after the campaign finished"
echo "elastic-smoke: worker 2 joined with $n/$jobs jobs settled"

# Kill the worker that owns s1 now, as the live ring says, once it has
# taken jobs — no drain, no goodbye. Its queued and in-flight jobs must
# re-dispatch to the survivor, not fail.
owner=$(sfield owner "$(curl -sf "$base/v1/schemes/s1")")
case "$owner" in
"$w1") pid=$w1pid survivor=$w2 ;;
"$w2") pid=$w2pid survivor=$w1 ;;
*) fail "s1 owner is \"$owner\", want $w1 or $w2" ;;
esac
i=0
until curl -sf "http://$owner/metrics" |
	awk '$1 == "pooled_engine_jobs_total{outcome=\"submitted\"}" && $2 > 0 { ok = 1 } END { exit !ok }'; do
	i=$((i + 1))
	[ "$i" -le 200 ] || fail "owner $owner never took a job"
	sleep 0.01
done
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
if [ "$pid" = "$w1pid" ]; then w1pid=; else w2pid=; fi
n=$(settled)
[ "$n" -lt "$jobs" ] || fail "the kill landed after the campaign finished"
echo "elastic-smoke: killed the owner of s1 ($owner) with $n/$jobs jobs settled"

i=0
while :; do
	p=$(curl -sf "$base/v1/campaigns/$cid") || fail "progress poll failed after kill"
	case "$p" in *'"state":"failed"'*) fail "campaign failed after the kill: $p" ;; esac
	case "$p" in *'"state":"done"'*) break ;; esac
	i=$((i + 1))
	[ "$i" -le 1200 ] || fail "campaign did not finish after the kill: $p"
	sleep 0.1
done
completed=$(field completed "$p")
failed=$(field failed "$p")
canceled=$(field canceled "$p")
[ "${completed:-0}" -eq "$jobs" ] || fail "completed=$completed, want $jobs"
[ "${failed:-0}" -eq 0 ] || fail "failed=$failed, want 0"
[ "${canceled:-0}" -eq 0 ] || fail "canceled=$canceled, want 0"
echo "elastic-smoke: campaign completed $jobs/$jobs with zero failed jobs"

# A dead worker stays on the ring: both workers are members, the join is
# the only ring change, and /v1/workers lists the dead one unhealthy
# within a few probe intervals (2 s each).
stats=$(curl -sf "$base/v1/stats") || fail "stats poll failed"
for w in "$w1" "$w2"; do
	printf '%s' "$stats" | grep -q "\"members\":\[[^]]*\"$w\"" || fail "$w missing from stats members: $stats"
done
[ "$(field membership_adds "$stats")" -eq 1 ] || fail "membership_adds is not 1 after the join: $stats"
[ "$(field membership_removes "$stats")" -eq 0 ] || fail "membership_removes is not 0 after the kill: $stats"
i=0
until curl -sf "$base/v1/workers" | grep -qF "{\"addr\":\"$owner\",\"healthy\":false}"; do
	i=$((i + 1))
	[ "$i" -le 50 ] || fail "/v1/workers never listed $owner unhealthy: $(curl -sf "$base/v1/workers")"
	sleep 0.2
done
curl -sf "$base/v1/workers" | grep -qF "{\"addr\":\"$survivor\",\"healthy\":true}" ||
	fail "/v1/workers does not list the survivor $survivor healthy: $(curl -sf "$base/v1/workers")"
echo "elastic-smoke: both workers stay members; /v1/workers lists $owner unhealthy"

# The redispatch and ring series must be live on /metrics.
m=$(curl -sf "$base/metrics") || fail "metrics scrape failed"
printf '%s\n' "$m" | grep -q '^pooled_ring_members 2$' ||
	fail "pooled_ring_members gauge is not 2 with a dead member"
redispatched=$(printf '%s\n' "$m" | awk '/^pooled_jobs_redispatched_total\{/ { n += $NF } END { print n + 0 }')
[ "${redispatched:-0}" -gt 0 ] || fail "no job was re-dispatched after the kill"
printf '%s\n' "$m" | grep -q '^pooled_ring_changes_total' ||
	fail "ring-change series missing from /metrics"

echo "elastic-smoke: OK (join and kill mid-flight, $redispatched jobs re-dispatched, zero failed jobs, the dead worker a member listed unhealthy)"
