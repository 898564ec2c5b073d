#!/usr/bin/env bash
# Loopback smoke of the shipped daemons: p2pdir, two class-1 seeds and one
# class-1 requester, each its own p2pnode process on real TCP. It runs three
# times: once with the default single file, once with a two-object catalog
# (-objects a,b) whose requester streams b, and once against the elastic
# registry (p2pdir -shards 2 -autoscale on free ports, peers following its
# epochs with -dir-addrs a0,a1 -dir-epochs). Each run waits, at most 60 s,
# for the requester to report continuous playback and "now supplying", then
# SIGTERMs every process and expects each to exit 0 (and the elastic p2pdir
# to report both bootstrap shards retired).
#
# One class-1 seed offers R0/2, half the rate a session needs, so the
# overlay starts with two.
#
#   go build -o BINDIR ./cmd/p2pdir ./cmd/p2pnode
#   tools/daemonsmoke.sh BINDIR
set -euo pipefail

bin=${1:?usage: tools/daemonsmoke.sh BINDIR (holding p2pdir and p2pnode)}
logs=$(mktemp -d)
pids=()

stop_all() {
	[ ${#pids[@]} -eq 0 ] && return 0
	kill -TERM "${pids[@]}" 2>/dev/null || true
	local pid rc=0
	for pid in "${pids[@]}"; do
		wait "$pid" || rc=$?
	done
	pids=()
	return "$rc"
}
trap 'stop_all || true; rm -rf "$logs"' EXIT

# await FILE PATTERN: wait at most 60 s for a line matching PATTERN in FILE.
await() {
	for _ in $(seq 600); do
		grep -q "$2" "$1" 2>/dev/null && return 0
		sleep 0.1
	done
	echo "daemonsmoke: no '$2' in $1 after 60 s" >&2
	cat "$logs"/*.log >&2
	return 1
}

# run NAME OBJECT-FLAGS REQUEST-FLAGS [ELASTIC]: with ELASTIC set, p2pdir
# runs two pinned shards under its autoscaler and the peers route by the
# printed -dir-addrs line.
run() {
	local name=$1 objects=$2 request=$3 elastic=${4:-} route
	local media="-segments 20 -dt 5ms $objects"
	if [ -n "$elastic" ]; then
		"$bin/p2pdir" -listen 127.0.0.1:0 -shards 2 -autoscale >"$logs/$name-dir.log" 2>&1 &
		pids+=($!)
		await "$logs/$name-dir.log" 'autoscaling 2\.\.8 shards'
		route="-dir-addrs $(sed -n 's/.*peers route with -dir-addrs //p' "$logs/$name-dir.log") -dir-epochs"
	else
		"$bin/p2pdir" -listen 127.0.0.1:0 >"$logs/$name-dir.log" 2>&1 &
		pids+=($!)
		await "$logs/$name-dir.log" 'serving on'
		route="-dir $(sed -n 's/.*serving on //p' "$logs/$name-dir.log")"
	fi
	for seed in seed1 seed2; do
		# shellcheck disable=SC2086 # $route and $media hold several flags
		"$bin/p2pnode" -id "$seed" -class 1 -seed-peer $route $media >"$logs/$name-$seed.log" 2>&1 &
		pids+=($!)
		await "$logs/$name-$seed.log" 'listening on'
	done
	# shellcheck disable=SC2086
	"$bin/p2pnode" -id peer1 -class 1 $route $media $request -timeout 30s >"$logs/$name-peer1.log" 2>&1 &
	pids+=($!)
	await "$logs/$name-peer1.log" 'playback continuous'
	await "$logs/$name-peer1.log" 'now supplying'
	if ! stop_all; then
		echo "daemonsmoke: $name: a process did not exit 0 on SIGTERM" >&2
		cat "$logs"/"$name"-*.log >&2
		return 1
	fi
	# On SIGTERM the deployment closes every shard server it runs.
	if [ -n "$elastic" ] && ! { grep -q 'retired shard-0 ' "$logs/$name-dir.log" && grep -q 'retired shard-1 ' "$logs/$name-dir.log"; }; then
		echo "daemonsmoke: $name: p2pdir did not close both bootstrap shards" >&2
		cat "$logs/$name-dir.log" >&2
		return 1
	fi
	echo "daemonsmoke: $name ok"
	cat "$logs/$name-peer1.log"
}

run single-file "" ""
run catalog "-objects a,b" "-request b"
run elastic "" "" elastic
