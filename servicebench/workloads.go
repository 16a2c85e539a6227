package main

import (
	"fmt"
	"sort"
	"time"
)

// spec is one workload: the graph the server starts from and the traffic it
// is driven with. Every writer frame is 40% inserts, 40% deletes and 20%
// linearized connectivity queries.
type spec struct {
	name    string
	n       int  // vertices
	m       int  // prefill edges
	durable bool // WAL + checkpoints in a temp data dir (server defaults)

	// Closed-loop writers, one per client connection: each sends its next
	// frame of frameOps ops when the previous one is acknowledged.
	writers  int
	frameOps int

	// Open-loop write frames (read-mix): writeHz frames/s of writeOps ops.
	// On the giant component each write epoch relabels the whole graph
	// (about 30 ms), so read-mix keeps the engine well under saturation:
	// once epochs run back to back, write latency is queueing delay and
	// follows the host's CPU steal more than the code.
	writeHz  float64
	writeOps int

	// Open-loop reads: readHz ReadRecentBatch frames/s of readPairs pairs,
	// and queryHz structural queries/s cycling ComponentSize, KHop (k=2)
	// and TreePath (0: no structural queries).
	readHz    float64
	readPairs int
	queryHz   float64

	subscribe bool // one component-event subscriber drains events
	restart   bool // graceful shutdown + restart, then verify every acked edge
}

// clientConns is the client's connection-pool size for every workload.
const clientConns = 2

var workloads = []spec{
	{
		name: "ingest-sparse", n: 1 << 16, m: 1 << 14, durable: true,
		writers: 2, frameOps: 256,
		readHz: 200, readPairs: 16,
		restart: true,
	},
	{
		name: "read-mix", n: 1 << 16, m: 1 << 17,
		writeHz: 16, writeOps: 24,
		readHz: 1000, readPairs: 16, queryHz: 50,
		subscribe: true,
	},
}

func lookupWorkload(name string) (spec, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	sort.Strings(names)
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// quick shrinks a workload to a smoke-test size: the same traffic shape on
// a 16x smaller graph at a tenth of the open-loop rates.
func (s spec) quick() spec {
	s.n /= 16
	s.m /= 16
	s.writeHz /= 10
	s.readHz /= 10
	s.queryHz /= 10
	return s
}

// split returns the insert/delete/query counts of an ops-sized frame.
func split(ops int) (ins, del, qry int) {
	ins = ops * 2 / 5
	del = ins
	return ins, del, ops - ins - del
}

// warmup is the load time before the measured window opens: long enough for
// the epoch pipeline and the client pools to reach steady state.
func warmup(window time.Duration) time.Duration {
	return min(2*time.Second, window/4)
}
