#!/bin/sh
# Crash-recovery smoke test: boot a real pooledd with a WAL, SIGKILL it
# mid-campaign, restart it against the same directory, and assert every
# campaign finishes with a contiguous, duplicate-free event stream. A
# second kill and restart then checks that the finished campaigns,
# restored from their sealed logs, stream byte for byte as before.
#
# Two campaigns run at the kill. The first is sized so a single worker
# chews through it slowly enough that the kill lands mid-flight: one
# shard, one worker, 1600 jobs against a 6000x3000 scheme, about 1.6 s
# of decoding on a 2-vCPU machine. The second, 400 small jobs, runs on
# an ad-hoc upload (a small design posted back as CSV) under another
# tenant, so only the upload's scheme record in the WAL can bring its
# design back. The first restart's log must show both campaigns
# restored unfinished, or the run proved nothing about recovery. The
# last restart also preloads the uploaded CSV with -designs: a preload
# registers as an upload does, so it must answer the upload's journaled
# id and journal nothing new.
set -eu

tmp=$(mktemp -d)
addr=127.0.0.1:19396
base=http://$addr
pid=
cleanup() {
	[ -n "$pid" ] && kill "$pid" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/pooledd" ./cmd/pooledd

start() { # start [FLAG...] -> boot pooledd with the extra flags
	"$tmp/pooledd" -addr "$addr" -shards 1 -shard-workers 1 \
		-wal-dir "$tmp/wal" -wal-fsync always "$@" 2>>"$tmp/pooledd.log" &
	pid=$!
	i=0
	while ! curl -sf "$base/v1/stats" >/dev/null 2>&1; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "crash-smoke: pooledd did not come up; log tail:" >&2
			tail -5 "$tmp/pooledd.log" >&2
			exit 1
		fi
		sleep 0.1
	done
}

fail() {
	echo "crash-smoke: $1" >&2
	exit 1
}

field() { # field NAME JSON -> first numeric value of "NAME"
	printf '%s' "$2" | sed -n "s/.*\"$1\":\([0-9][0-9]*\).*/\1/p" | head -1
}

sfield() { # sfield NAME JSON -> first string value of "NAME"
	printf '%s' "$2" | sed -n "s/.*\"$1\":\"\([^\"]*\)\".*/\1/p" | head -1
}

batch() { # batch JOBS M -> a JSON batch of JOBS all-zero count rows
	row="[$(printf '0,%.0s' $(seq 2 "$2"))0]"
	yes "$row" | head -n "$1" | paste -sd, -
}

submit() { # submit BODY_FILE -> campaign id
	# A 429 means the owning shard's decode queue was full at admission:
	# the first campaign keeps the single worker's queue nearly full, so
	# the second submission retries, as a client would, and soon, so the
	# first campaign is still mid-flight at the kill.
	i=0
	while :; do
		code=$(curl -s -o "$tmp/created" -w '%{http_code}' -X POST "$base/v1/campaigns" \
			--data-binary @"$1") || fail "campaign submission failed"
		[ "$code" = 429 ] || break
		i=$((i + 1))
		[ "$i" -le 100 ] || fail "campaign submission refused with 429 100 times"
		sleep 0.01
	done
	created=$(cat "$tmp/created")
	[ "$code" = 202 ] || fail "campaign submission answered $code: $created"
	id=$(sfield id "$created")
	[ -n "$id" ] || fail "no campaign id in: $created"
	printf '%s' "$id"
}

start

# Register the heavy scheme and launch a campaign of all-zero counts
# (k=8 keeps the decoder scoring every candidate column per job).
heavy=1600 light=400
curl -sf -X POST "$base/v1/schemes" \
	-d '{"design":"random-regular","n":6000,"m":3000,"seed":1}' >/dev/null ||
	fail "scheme registration failed"
{ printf '{"scheme":"s1","k":8,"batch":['; batch "$heavy" 3000; printf ']}'; } >"$tmp/campaign.json"
cid=$(submit "$tmp/campaign.json")

# Upload an ad-hoc design: a small parametric design's CSV, posted back
# as text/csv, becomes a scheme no spec can rebuild.
curl -sf -X POST "$base/v1/schemes" \
	-d '{"design":"random-regular","n":200,"m":100,"seed":3}' >/dev/null ||
	fail "small scheme registration failed"
curl -sf "$base/v1/schemes/s2/design" >"$tmp/design.csv" || fail "design download failed"
up=$(curl -sf -X POST "$base/v1/schemes" -H 'Content-Type: text/csv' \
	--data-binary @"$tmp/design.csv") || fail "ad-hoc upload failed"
sid=$(sfield id "$up")
case "$up" in *'"ad_hoc":true'*) ;; *) fail "upload not registered as ad-hoc: $up" ;; esac
{ printf '{"scheme":"%s","k":2,"tenant":"lab-b","batch":[' "$sid"; batch "$light" 100; printf ']}'; } >"$tmp/adhoc.json"
aid=$(submit "$tmp/adhoc.json")

# Let a handful of jobs settle, then kill the server dead — no signal
# handler, no graceful drain. The journal is all that survives.
i=0
while :; do
	p=$(curl -sf "$base/v1/campaigns/$cid") || fail "progress poll failed"
	settled=$(field completed "$p")
	[ "${settled:-0}" -ge 5 ] && break
	i=$((i + 1))
	[ "$i" -le 200 ] || fail "no jobs settled before kill"
	sleep 0.1
done
asettled=$(field completed "$(curl -sf "$base/v1/campaigns/$aid")")
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=
echo "crash-smoke: killed pooledd with $settled/$heavy and ${asettled:-0}/$light (ad-hoc) jobs settled"

# Restart against the same WAL dir: recovery must bring the ad-hoc
# scheme back, replay each settled prefix and re-dispatch the rest. Its
# "wal restored campaign ID (STATE, N/T settled, ...)" lines prove the
# kill landed mid-flight: both campaigns, each with N < T.
start
sed -n 's/.*wal restored campaign \(c[0-9]*\) ([a-z]*, \([0-9]*\)\/\([0-9]*\) settled.*/\1 \2 \3/p' \
	"$tmp/pooledd.log" >"$tmp/restored"
[ "$(wc -l <"$tmp/restored")" -eq 2 ] ||
	fail "want 2 campaigns restored after the kill, got: $(cat "$tmp/restored")"
while read -r c n t; do
	[ "$n" -lt "$t" ] || fail "campaign $c restored with $n/$t jobs settled: the kill landed after it finished"
	echo "crash-smoke: campaign $c restored mid-flight with $n/$t jobs settled"
done <"$tmp/restored"
await() { # await ID TOTAL
	i=0
	while :; do
		p=$(curl -sf "$base/v1/campaigns/$1") || fail "campaign $1 lost across restart"
		case "$p" in *'"failed":'[1-9]*) fail "campaign $1 failed jobs after restart: $p" ;; esac
		case "$p" in *'"state":"done"'*) [ "$(field completed "$p")" -eq "$2" ] && break ;; esac
		i=$((i + 1))
		[ "$i" -le 600 ] || fail "campaign $1 did not finish after restart: $p"
		sleep 0.1
	done
	echo "crash-smoke: campaign $1 completed $2/$2 after restart"
}
await "$cid" "$heavy"
await "$aid" "$light"

# Each full event stream must be contiguous and duplicate-free: ids
# 1..N+1 (N results + the terminal done event), exactly once each. The
# stream is kept in $tmp/stream-ID for the replay check below.
stream() { # stream ID TOTAL
	curl -sfN "$base/v1/campaigns/$1/events?after=0" >"$tmp/stream-$1" ||
		fail "event stream replay of $1 failed"
	ids=$(sed -n 's/^id: //p' "$tmp/stream-$1")
	[ "$ids" = "$(seq 1 $(($2 + 1)))" ] || fail "event ids of $1 not contiguous 1..$(($2 + 1)) after recovery"
	dups=$(sed -n 's/.*"index":\([0-9]*\).*/\1/p' "$tmp/stream-$1" | sort -n | uniq -d)
	[ -z "$dups" ] || fail "duplicate job indices in $1's recovered stream: $dups"
}
stream "$cid" "$heavy"
stream "$aid" "$light"

# A client resuming from a pre-crash cursor sees only what it missed.
curl -sfN "$base/v1/campaigns/$cid/events?after=100" >"$tmp/resume" ||
	fail "cursor resume failed"
[ "$(sed -n 's/^id: //p' "$tmp/resume")" = "$(seq 101 $((heavy + 1)))" ] ||
	fail "resume from cursor 100 did not deliver ids 101..$((heavy + 1))"

curl -sf "$base/metrics" | grep -q '^pooled_wal_recovered_campaigns_total' ||
	fail "recovered-campaigns metric missing from /metrics"

# Kill and restart once more: both campaigns are sealed now, so boot
# restores them read-only from their logs, and each full stream must
# replay byte for byte — every id, event and data line. This boot
# preloads the uploaded CSV, which must answer the upload's id.
kill -9 "$pid"
wait "$pid" 2>/dev/null || true
pid=
records=$(ls "$tmp/wal" | grep -c '\.scheme$')
start -designs "$tmp/design.csv"
grep -q "preloaded scheme $sid from" "$tmp/pooledd.log" ||
	fail "preload of the uploaded CSV did not answer $sid: $(grep 'preloaded scheme' "$tmp/pooledd.log")"
[ "$(ls "$tmp/wal" | grep -c '\.scheme$')" -eq "$records" ] ||
	fail "preload of the uploaded CSV journaled a new scheme record"
echo "crash-smoke: the -designs preload answered the upload's id $sid"
for id in "$cid" "$aid"; do
	curl -sfN "$base/v1/campaigns/$id/events?after=0" >"$tmp/replay-$id" ||
		fail "event stream of $id lost across the second restart"
	grep -E '^(id|event|data):' "$tmp/stream-$id" >"$tmp/want"
	grep -E '^(id|event|data):' "$tmp/replay-$id" >"$tmp/got"
	cmp -s "$tmp/want" "$tmp/got" || fail "restored campaign $id streams differently: $(diff "$tmp/want" "$tmp/got" | head -4)"
done
echo "crash-smoke: both finished campaigns replayed byte for byte after a second restart"

echo "crash-smoke: OK (killed mid-flight, ad-hoc scheme restored, contiguous events, exactly-once delivery, recovery metric present, sealed streams replay byte for byte, preload answered the upload's id)"
