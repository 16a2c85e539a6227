package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	conn "repro"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pubsub"
	"repro/internal/query"
	"repro/internal/snapshot"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The traced replay regenerates a workload's write stream from its seed,
// cuts it into epochs of the live run's measured size and pushes each epoch
// through the layers' public functions in the order engine.execEpoch calls
// them, timing every call from here. Reads and structural queries are
// interleaved at the live run's per-epoch rates.

// span is one timed layer call. Times are nanoseconds since the replay
// began; parent indexes the epoch's root span (-1 for roots). allocBytes is
// set only for spans timed with callAlloc.
type span struct {
	name       string
	start, end int64
	parent     int32
	epoch      int32
	allocBytes uint64
}

// tracer keeps spans in memory; they are written out once the replay ends.
type tracer struct {
	t0    time.Time
	spans []span
	mem   runtime.MemStats
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// allocated returns the bytes allocated so far. runtime.ReadMemStats flushes
// every P's allocation cache first, so the figure is exact to the object;
// runtime/metrics is not, since it counts a cached span's objects only when
// the span is refilled or released.
func (t *tracer) allocated() uint64 {
	runtime.ReadMemStats(&t.mem)
	return t.mem.TotalAlloc
}

// call times f as a span named name under parent.
func (t *tracer) call(name string, parent, epoch int32, f func()) {
	s0 := time.Since(t.t0).Nanoseconds()
	f()
	s1 := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{name: name, start: s0, end: s1, parent: parent, epoch: epoch})
}

// callAlloc is call that also records the bytes f allocates. The two
// allocation reads stop the world, so they stay outside the timed interval.
func (t *tracer) callAlloc(name string, parent, epoch int32, f func()) {
	a0 := t.allocated()
	t.call(name, parent, epoch, f)
	t.spans[len(t.spans)-1].allocBytes = t.allocated() - a0
}

// root opens an epoch's root span and returns its index; close it with end.
func (t *tracer) root(epoch int32) int32 {
	t.spans = append(t.spans, span{name: "epoch", start: time.Since(t.t0).Nanoseconds(), parent: -1, epoch: epoch})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = time.Since(t.t0).Nanoseconds() }

// write stores the spans as CSV.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,start_ns,end_ns,parent,epoch,alloc_bytes")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", s.name, s.start, s.end, s.parent, s.epoch, s.allocBytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayIn is what the replay takes from the untraced run.
type replayIn struct {
	opsPerEpoch     float64 // Δ, the live run's mean epoch size
	epochs          int     // epochs to replay
	readsPerEpoch   float64 // ReadRecentBatch frames per epoch
	queriesPerEpoch float64 // structural queries per epoch
	budget          time.Duration
	dir             string // scratch dir for the WAL and checkpoints
}

// replayOut holds the replay's totals; per-layer metrics divide them.
type replayOut struct {
	epochs, frames, writeFrames, writeOps int
	spanNS, spanAlloc                     map[string]int64
	spanCalls                             map[string]int
	core                                  core.Stats
	rebuilds, publishes, changed          int64
	diffs, events                         int64
	walBytes, walRaw                      int64
	wireBytes                             int64
	checkpointMS                          float64
	mispredicted                          int
	spans                                 *tracer
}

// selfNS returns the summed durations of the non-root spans.
func (r *replayOut) selfNS() int64 {
	var s int64
	for name, ns := range r.spanNS {
		if name != "epoch" {
			s += ns
		}
	}
	return s
}

// replayEngine is query.Run's view of the replayed structure.
type replayEngine struct {
	c   *core.Conn
	s   *snapshot.Store
	seq uint64
}

func (e *replayEngine) N() int                          { return e.c.N() }
func (e *replayEngine) Recent() *snapshot.Labels        { return e.s.Current() }
func (e *replayEngine) Read(f func(c *core.Conn)) error { f(e.c); return nil }
func (e *replayEngine) Flush()                          {}
func (e *replayEngine) AppliedSeq() uint64              { return e.seq }

// replay runs the traced replay of b's workload.
func (b *bench) replay(in replayIn) (*replayOut, error) {
	sp := b.sp
	n := sp.n
	c := core.New(n)
	var all []graph.Edge
	for _, keys := range b.parts {
		for _, k := range keys {
			all = append(all, keyEdge(k))
		}
	}
	for i := 0; i < len(all); i += 8192 {
		c.BatchInsert(all[i:min(i+8192, len(all))])
	}
	store := snapshot.NewStore(n, 0, c)
	qe := &replayEngine{c: c, s: store}
	sets := b.newSets()

	var log *wal.Log
	if sp.durable {
		var err error
		log, err = wal.OpenWithCodec(filepath.Join(in.dir, "wal.log"), n, wal.CodecV1)
		if err != nil {
			return nil, err
		}
		defer log.Close()
	}

	frameOps, writers := sp.frameOps, sp.writers
	if writers == 0 {
		frameOps, writers = sp.writeOps, 1
	}
	ins, del, qry := split(frameOps)
	perEpoch := max(1, int(math.Round(in.opsPerEpoch/float64(frameOps))))

	tr := newTracer()
	out := &replayOut{spanNS: map[string]int64{}, spanAlloc: map[string]int64{},
		spanCalls: map[string]int{}, spans: tr}
	readRng, queryRng := newRand(b.seed, 3), newRand(b.seed, 4)
	var readCredit, queryCredit float64
	coreBefore := c.Stats()
	start := time.Now()
	frameNo, queryNo := 0, 0

	for ep := int32(0); int(ep) < in.epochs && time.Since(start) < in.budget; ep++ {
		root := tr.root(ep)
		frames := make([][]conn.Op, perEpoch)
		owners := make([]*edgeSet, perEpoch)
		var ops []conn.Op
		for f := range frames {
			owners[f] = sets[frameNo%writers]
			frames[f] = owners[f].frame(ins, del, qry)
			ops = append(ops, frames[f]...)
			frameNo++
		}
		// Request frames cross the wire layer.
		for _, fr := range frames {
			req := &wire.Request{ID: uint64(frameNo), Cmd: wire.CmdBatch, NS: nsName, Ops: wireOps(fr)}
			var payload []byte
			var err error
			tr.call("wire.encode", root, ep, func() { payload, err = wire.EncodeRequest(req) })
			if err != nil {
				return nil, err
			}
			out.wireBytes += int64(len(payload))
			tr.call("wire.decode", root, ep, func() { _, err = wire.DecodeRequest(payload) })
			if err != nil {
				return nil, err
			}
		}
		res := b.execEpoch(tr, root, ep, c, store, log, ops, out)
		// Acknowledge each frame with its slice of the epoch's results.
		off := 0
		for f, fr := range frames {
			bits := res[off : off+len(fr)]
			off += len(fr)
			out.mispredicted += owners[f].ack(fr, bits)
			resp := &wire.Response{ID: uint64(f), Bits: bits}
			var payload []byte
			var err error
			tr.call("wire.encode", root, ep, func() { payload, err = wire.EncodeResponse(resp) })
			if err != nil {
				return nil, err
			}
			out.wireBytes += int64(len(payload))
			tr.call("wire.decode", root, ep, func() { _, err = wire.DecodeResponse(payload) })
			if err != nil {
				return nil, err
			}
		}
		out.writeFrames += len(frames)
		out.writeOps += len(ops)
		out.frames += len(frames)

		readCredit += in.readsPerEpoch
		for ; readCredit >= 1; readCredit-- {
			if err := replayRead(tr, root, ep, store, readRng, sp, out); err != nil {
				return nil, err
			}
		}
		queryCredit += in.queriesPerEpoch
		for ; queryCredit >= 1; queryCredit-- {
			kind := []query.Kind{query.KindSize, query.KindKHop, query.KindPath}[queryNo%3]
			queryNo++
			req := query.Request{Kind: kind, U: queryRng.Int32N(int32(n)), V: queryRng.Int32N(int32(n)), K: 2}
			var err error
			tr.call("query."+kind.String(), root, ep, func() { _, err = query.Run(qe, req) })
			if err != nil {
				return nil, err
			}
		}
		qe.seq++
		tr.end(root)
		out.epochs++
	}
	cs := c.Stats()
	out.core = core.Stats{
		Inserts: cs.Inserts - coreBefore.Inserts, Deletes: cs.Deletes - coreBefore.Deletes,
		InsertBatches: cs.InsertBatches - coreBefore.InsertBatches,
		DeleteBatches: cs.DeleteBatches - coreBefore.DeleteBatches,
		Replaced:      cs.Replaced - coreBefore.Replaced, Pushdowns: cs.Pushdowns - coreBefore.Pushdowns,
		TreePushes:    cs.TreePushes - coreBefore.TreePushes,
		EdgesExamined: cs.EdgesExamined - coreBefore.EdgesExamined, Rounds: cs.Rounds - coreBefore.Rounds,
	}
	st := store.Stats()
	out.rebuilds, out.publishes = st.Rebuilds, st.Publishes

	// The checkpoint layer: write the replayed edge set three times, keep
	// the median.
	edges := append(c.SpanningForest(), c.NonTreeEdges()...)
	var ms []float64
	for i := range 3 {
		t0 := time.Now()
		if _, err := checkpoint.Write(in.dir, checkpoint.Snapshot{Seq: uint64(i + 1), N: n, Edges: edges}); err != nil {
			return nil, err
		}
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	out.checkpointMS = median(ms)

	for _, s := range tr.spans {
		out.spanNS[s.name] += s.end - s.start
		out.spanAlloc[s.name] += int64(s.allocBytes)
		out.spanCalls[s.name]++
	}
	return out, nil
}

func wireOps(ops []conn.Op) []wire.Op {
	w := make([]wire.Op, len(ops))
	for i, op := range ops {
		w[i] = wire.Op{Kind: wire.Kind(op.Kind), U: op.U, V: op.V}
	}
	return w
}

// execEpoch applies one epoch the way engine.execEpoch does: WAL append and
// sync, the insert pre-scan against the published labels, BatchInsert, the
// delete pre-scan with EdgeInfo, BatchDelete, the epoch's queries, the
// snapshot publish of the touched endpoints, and event derivation.
func (b *bench) execEpoch(tr *tracer, root, ep int32, c *core.Conn, store *snapshot.Store,
	log *wal.Log, ops []conn.Op, out *replayOut) []bool {
	if log != nil {
		var rec wal.Record
		for _, op := range ops {
			if op.U == op.V || op.Kind == conn.OpQuery {
				continue
			}
			e := graph.Edge{U: op.U, V: op.V}
			if op.Kind == conn.OpInsert {
				rec.Ins = append(rec.Ins, e)
			} else {
				rec.Del = append(rec.Del, e)
			}
		}
		if len(rec.Ins)+len(rec.Del) > 0 {
			rec.Seq = log.LastSeq() + 1
			var nb int
			var err error
			tr.call("wal.append", root, ep, func() { nb, _, err = log.AppendRecord(rec) })
			if err == nil {
				tr.call("wal.sync", root, ep, func() { err = log.Sync() })
			}
			if err != nil {
				b.rep.fail("replay WAL: %v", err)
			}
			out.walBytes += int64(nb)
			out.walRaw += int64(wal.RawSize(rec))
		}
	}

	res := make([]bool, len(ops))
	var touched []int32
	var insBatch, delBatch, qs []graph.Edge
	var qIdx []int
	tr.call("engine.prescan", root, ep, func() {
		lbl := store.Current()
		seen := make(map[uint64]struct{})
		for i, op := range ops {
			switch op.Kind {
			case conn.OpInsert:
				k := edgeKey(op.U, op.V)
				if _, dup := seen[k]; dup || op.U == op.V {
					continue
				}
				seen[k] = struct{}{}
				if !c.HasEdge(op.U, op.V) {
					res[i] = true
					insBatch = append(insBatch, graph.Edge{U: op.U, V: op.V})
					if !lbl.Connected(op.U, op.V) {
						touched = append(touched, op.U, op.V)
					}
				}
			case conn.OpQuery:
				qIdx = append(qIdx, i)
				qs = append(qs, graph.Edge{U: op.U, V: op.V})
			}
		}
	})
	tr.callAlloc("core.insert", root, ep, func() { c.BatchInsert(insBatch) })
	tr.call("engine.prescan", root, ep, func() {
		seen := make(map[uint64]struct{})
		for i, op := range ops {
			if op.Kind != conn.OpDelete || op.U == op.V {
				continue
			}
			k := edgeKey(op.U, op.V)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			if present, tree := c.EdgeInfo(op.U, op.V); present {
				res[i] = true
				delBatch = append(delBatch, graph.Edge{U: op.U, V: op.V})
				if tree {
					touched = append(touched, op.U, op.V)
				}
			}
		}
	})
	tr.callAlloc("core.delete", root, ep, func() { c.BatchDelete(delBatch) })
	tr.callAlloc("core.query", root, ep, func() {
		for j, ok := range c.BatchConnected(qs) {
			res[qIdx[j]] = ok
		}
	})
	var d *snapshot.Diff
	tr.callAlloc("snapshot.publish", root, ep, func() { d = store.Publish(touched) })
	if d != nil {
		out.diffs++
		out.changed += int64(len(d.Changed))
	}
	// The server derives events only while a subscriber is attached.
	if d != nil && b.sp.subscribe {
		var evs []pubsub.Event
		tr.call("pubsub.derive", root, ep, func() { evs = pubsub.Derive(d, uint64(ep)) })
		out.events += int64(len(evs))
	}
	return res
}

// replayRead serves one ReadRecentBatch frame: request and response through
// the wire layer, answers from the published labels.
func replayRead(tr *tracer, root, ep int32, store *snapshot.Store, rng interface{ Int32N(int32) int32 },
	sp spec, out *replayOut) error {
	pairs := make([]wire.Pair, sp.readPairs)
	for i := range pairs {
		pairs[i] = wire.Pair{U: rng.Int32N(int32(sp.n)), V: rng.Int32N(int32(sp.n))}
	}
	req := &wire.Request{ID: 1, Cmd: wire.CmdReadRecent, NS: nsName, Pairs: pairs}
	var payload []byte
	var err error
	tr.call("wire.encode", root, ep, func() { payload, err = wire.EncodeRequest(req) })
	if err != nil {
		return err
	}
	tr.call("wire.decode", root, ep, func() { _, err = wire.DecodeRequest(payload) })
	if err != nil {
		return err
	}
	bits := make([]bool, len(pairs))
	tr.call("snapshot.read", root, ep, func() {
		lbl := store.Current()
		for i, p := range pairs {
			bits[i] = lbl.Connected(p.U, p.V)
		}
	})
	resp := &wire.Response{ID: 1, Bits: bits}
	tr.call("wire.encode", root, ep, func() { payload, err = wire.EncodeResponse(resp) })
	if err != nil {
		return err
	}
	tr.call("wire.decode", root, ep, func() { _, err = wire.DecodeResponse(payload) })
	out.frames++
	return err
}
