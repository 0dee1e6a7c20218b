#!/bin/sh
# Elastic-fleet smoke test: boot a frontend over one worker, start a
# campaign, register a second worker mid-flight through the membership
# API, SIGKILL the first worker, and assert the campaign still finishes
# with zero failed jobs while /v1/stats reflects the membership churn.
#
# The campaign is sized so a single worker chews through it slowly
# enough to guarantee both the join and the kill land mid-flight:
# single-shard workers, 160 jobs against a 6000x3000 scheme.
set -eu

tmp=$(mktemp -d)
w1=127.0.0.1:19404
w2=127.0.0.1:19405
fa=127.0.0.1:19406
base=http://$fa
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
"$tmp/pooledd" -addr "$fa" -workers "$w1" -evict-after 2 2>>"$tmp/frontend.log" &
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

# Register the scheme and launch a 160-job campaign of all-zero counts
# (k=8 keeps the decoder scoring every candidate column per job).
curl -sf -X POST "$base/v1/schemes" \
	-d '{"design":"random-regular","n":6000,"m":3000,"seed":1}' >/dev/null ||
	fail "scheme registration failed"
row="[$(printf '0,%.0s' $(seq 1 2999))0]"
batch=$row
i=1
while [ "$i" -lt 160 ]; do
	batch="$batch,$row"
	i=$((i + 1))
done
printf '{"scheme":"s1","k":8,"batch":[%s]}' "$batch" >"$tmp/campaign.json"
created=$(curl -sf -X POST "$base/v1/campaigns" --data-binary @"$tmp/campaign.json") ||
	fail "campaign submission failed"
cid=$(printf '%s' "$created" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
[ -n "$cid" ] || fail "no campaign id in: $created"

# Let a handful of jobs settle on the lone worker, then grow the fleet
# through the membership API while the campaign is still in flight.
i=0
while :; do
	p=$(curl -sf "$base/v1/campaigns/$cid") || fail "progress poll failed"
	settled=$(field completed "$p")
	[ "${settled:-0}" -ge 5 ] && break
	i=$((i + 1))
	[ "$i" -le 200 ] || fail "no jobs settled before the join"
	sleep 0.1
done
curl -sf -X POST "$base/v1/workers" -d "{\"addr\":\"$w2\"}" >/dev/null ||
	fail "registering worker 2 mid-campaign failed"
echo "elastic-smoke: worker 2 joined with $settled/160 jobs settled"

# Kill the original worker dead — no drain, no goodbye. Its queued and
# in-flight jobs must re-dispatch to the survivor, not fail.
kill -9 "$w1pid"
wait "$w1pid" 2>/dev/null || true
w1pid=
echo "elastic-smoke: killed worker 1"

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
[ "${completed:-0}" -eq 160 ] || fail "completed=$completed, want 160"
[ "${failed:-0}" -eq 0 ] || fail "failed=$failed, want 0"
[ "${canceled:-0}" -eq 0 ] || fail "canceled=$canceled, want 0"
echo "elastic-smoke: campaign completed 160/160 with zero failed jobs"

# Membership must be visible in /v1/stats: the survivor in the member
# list, the join counted, and — once the probes give up on the corpse —
# the dead worker evicted from the ring.
i=0
while :; do
	stats=$(curl -sf "$base/v1/stats") || fail "stats poll failed"
	case "$stats" in *"\"$w2\""*) ;; *) fail "worker 2 missing from stats members: $stats" ;; esac
	adds=$(field membership_adds "$stats")
	[ "${adds:-0}" -ge 1 ] || fail "membership_adds=$adds, want >=1"
	removes=$(field membership_removes "$stats")
	if [ "${removes:-0}" -ge 1 ]; then
		if printf '%s' "$stats" | grep -qF "\"members\":[\"$w2\"]"; then
			break
		fi
		fail "worker 1 evicted but members list is $stats"
	fi
	i=$((i + 1))
	[ "$i" -le 100 ] || fail "dead worker never evicted from the ring: $stats"
	sleep 0.2
done
echo "elastic-smoke: stats shows the join and the eviction (members=[$w2])"

# The redispatch and ring series must be live on /metrics.
m=$(curl -sf "$base/metrics") || fail "metrics scrape failed"
printf '%s\n' "$m" | grep -q '^pooled_ring_members 1' ||
	fail "pooled_ring_members gauge is not 1 after the eviction"
printf '%s\n' "$m" | grep -q '^pooled_jobs_redispatched_total' ||
	fail "redispatch series missing from /metrics"
printf '%s\n' "$m" | grep -q '^pooled_ring_changes_total' ||
	fail "ring-change series missing from /metrics"

echo "elastic-smoke: OK (mid-flight join, zero failed jobs after SIGKILL, membership in stats)"
