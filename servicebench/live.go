package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	conn "repro"
	"repro/client"
	"repro/internal/server"
	"repro/internal/wire"
)

const nsName = "bench"

// instance is one in-process server on a loopback port plus the client
// driving it.
type instance struct {
	srv     *server.Server
	serve   chan error // Serve's return value
	addr    string
	cl      *client.Client
	ns      *client.Namespace
	dataDir string
}

// startInstance starts a server (restoring dataDir's namespaces when it has
// any) and dials it.
func startInstance(dataDir string) (*instance, error) {
	srv, err := server.New(server.Options{DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	in := &instance{srv: srv, serve: make(chan error, 1), addr: ln.Addr().String(), dataDir: dataDir}
	go func() { in.serve <- srv.Serve(ln) }()
	in.cl, err = client.Dial(in.addr, client.WithConns(clientConns))
	if err != nil {
		in.stop()
		return nil, err
	}
	in.ns = in.cl.Namespace(nsName)
	return in, nil
}

// stop closes the client, drains the server (checkpointing durable
// namespaces) and waits for Serve to return. Safe to call more than once.
func (in *instance) stop() error {
	if in.cl != nil {
		in.cl.Close()
		in.cl = nil
	}
	if in.srv == nil {
		return nil
	}
	in.srv.Shutdown()
	in.srv = nil
	select {
	case err := <-in.serve:
		return err
	case <-time.After(10 * time.Second):
		return errors.New("server did not stop serving within 10s of shutdown")
	}
}

// tally counts requests attempted and failed across goroutines.
type tally struct{ attempted, failed atomic.Int64 }

// window is the measured interval of the load phase.
type window struct{ start, end time.Time }

func (w window) has(t time.Time) bool { return !t.Before(w.start) && t.Before(w.end) }

func (w window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// writeRate is the acknowledged write ops of the window's frames per second
// of the interval from the window's start to the last of their acks.
func (ls *loadStats) writeRate() float64 {
	return ratio(float64(ls.writeOps.Load()), time.Unix(0, ls.lastAck.Load()).Sub(ls.win.start).Seconds())
}

// storeMax raises a to v if v is larger.
func storeMax(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// loadStats is what the load phase measured.
type loadStats struct {
	win                    window
	writeOps               atomic.Int64 // acknowledged ops in write frames sent in the window
	lastAck                atomic.Int64 // unix ns of the last such acknowledgement
	writes, reads          series       // latency in ms
	queries                [len(queryKinds)]series
	genLate                series // ms late
	events                 atomic.Int64
	before, after          wire.Stats
	rtBefore, rtAfter      []metrics.Sample
	readsSent, queriesSent atomic.Int64 // open-loop requests due in the window
	peakRSS                float64      // VmHWM over the segment, MB
	stealFrac              float64      // share of the machine's CPU time stolen by the hypervisor in the window
}

// rtNames are the runtime/metrics samples read at each end of the window,
// indexed by the rt* constants.
var rtNames = []string{
	rtGCCPU:    "/cpu/classes/gc/total:cpu-seconds",
	rtTotalCPU: "/cpu/classes/total:cpu-seconds",
	rtAllocs:   "/gc/heap/allocs:bytes",
	rtCycles:   "/gc/cycles/total:gc-cycles",
}

const (
	rtGCCPU = iota
	rtTotalCPU
	rtAllocs
	rtCycles
)

// rtDelta returns how much runtime metric i grew over the window.
func (ls *loadStats) rtDelta(i int) float64 {
	return rtFloat(ls.rtAfter[i]) - rtFloat(ls.rtBefore[i])
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func rtFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindFloat64:
		return s.Value.Float64()
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	}
	return 0
}

// maxInflight bounds each open-loop generator's outstanding requests; a due
// request that finds the bound reached is counted as failed, never queued.
const maxInflight = 4096

// openLoop issues requests at rate per second from start until stop, each
// on its own goroutine, timed by fn from its due time. It returns once the
// last request is launched; inflight tracks the outstanding ones.
func openLoop(ctx context.Context, rate float64, start, stop time.Time, ls *loadStats,
	t *tally, inflight *sync.WaitGroup, fn func(due time.Time)) {
	if rate <= 0 {
		return
	}
	period := time.Duration(float64(time.Second) / rate)
	sem := make(chan struct{}, maxInflight)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(stop) {
			return
		}
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(d):
			}
		}
		if ls.win.has(due) {
			ls.genLate.add(ms(time.Since(due)))
		}
		select {
		case sem <- struct{}{}:
		default:
			t.attempted.Add(1)
			t.failed.Add(1)
			continue
		}
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			defer func() { <-sem }()
			fn(due)
		}()
	}
}

// runLoad drives the workload's traffic for warmup plus win and waits for
// every request to finish.
func (b *bench) runLoad(ctx context.Context, length time.Duration) (*loadStats, error) {
	sp, in := b.sp, b.inst
	ls := &loadStats{}
	t := &b.tally
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("reset peak RSS: %w", err)
	}
	begin := time.Now()
	ls.win.start = begin.Add(warmup(length))
	ls.win.end = ls.win.start.Add(length)

	var sub *client.EventSub
	var subDone chan struct{}
	if sp.subscribe {
		var err error
		sub, err = in.ns.SubscribeEvents(true, nil)
		if err != nil {
			return nil, fmt.Errorf("subscribe events: %w", err)
		}
		subDone = make(chan struct{})
		go func() {
			defer close(subDone)
			for range sub.C() {
				ls.events.Add(1)
			}
		}()
	}
	defer func() {
		if sub != nil {
			sub.Close()
			<-subDone
		}
	}()

	var gens, inflight sync.WaitGroup
	writeDone := func(ops []conn.Op, set *edgeSet, bits []bool, err error, from time.Time, d time.Duration) {
		t.attempted.Add(1)
		if err != nil {
			t.failed.Add(1)
			b.rep.fail("write frame: %v", err)
			return
		}
		if bad := set.ack(ops, bits); bad > 0 {
			t.failed.Add(1)
			b.rep.fail("write frame: %d results differ from the owner's prediction", bad)
			return
		}
		if ls.win.has(from) {
			ls.writeOps.Add(int64(len(ops)))
			ls.writes.add(ms(d))
			storeMax(&ls.lastAck, from.Add(d).UnixNano())
		}
	}

	// Closed-loop writers: one frame in flight each.
	for w := 0; w < sp.writers; w++ {
		set := b.sets[w]
		ins, del, qry := split(sp.frameOps)
		gens.Add(1)
		go func() {
			defer gens.Done()
			for ctx.Err() == nil && time.Now().Before(ls.win.end) {
				ops := set.frame(ins, del, qry)
				t0 := time.Now()
				bits, err := in.ns.Do(ops)
				writeDone(ops, set, bits, err, t0, time.Since(t0))
				if err != nil {
					return
				}
			}
		}()
	}

	// Open-loop generators. Each has its own random stream so the request
	// sequence depends only on the seed.
	stopAt := ls.win.end
	if sp.writeHz > 0 {
		set := b.sets[0]
		ins, del, qry := split(sp.writeOps)
		gens.Add(1)
		go func() {
			defer gens.Done()
			openLoop(ctx, sp.writeHz, begin, stopAt, ls, t, &inflight, func(due time.Time) {
				ops := set.frame(ins, del, qry)
				bits, err := in.ns.Do(ops)
				writeDone(ops, set, bits, err, due, time.Since(due))
			})
		}()
	}
	readRng := newRand(b.seed, 3)
	var readMu sync.Mutex
	gens.Add(1)
	go func() {
		defer gens.Done()
		openLoop(ctx, sp.readHz, begin, stopAt, ls, t, &inflight, func(due time.Time) {
			readMu.Lock()
			qs := make([]conn.Edge, sp.readPairs)
			for i := range qs {
				qs[i] = conn.Edge{U: readRng.Int32N(int32(sp.n)), V: readRng.Int32N(int32(sp.n))}
			}
			readMu.Unlock()
			bits, err := in.ns.ReadRecentBatch(qs)
			d := time.Since(due)
			t.attempted.Add(1)
			if err == nil && len(bits) != len(qs) {
				err = fmt.Errorf("%d answers for %d pairs", len(bits), len(qs))
			}
			if err != nil {
				t.failed.Add(1)
				b.rep.fail("read frame: %v", err)
				return
			}
			if ls.win.has(due) {
				ls.readsSent.Add(1)
				ls.reads.add(ms(d))
			}
		})
	}()
	queryRng := newRand(b.seed, 4)
	var queryMu sync.Mutex
	var queryN atomic.Int64
	gens.Add(1)
	go func() {
		defer gens.Done()
		openLoop(ctx, sp.queryHz, begin, stopAt, ls, t, &inflight, func(due time.Time) {
			queryMu.Lock()
			u, v := queryRng.Int32N(int32(sp.n)), queryRng.Int32N(int32(sp.n))
			queryMu.Unlock()
			kind := int(queryN.Add(1) % int64(len(queryKinds)))
			err := structuralQuery(in.ns, kind, u, v)
			d := time.Since(due)
			t.attempted.Add(1)
			if err != nil {
				t.failed.Add(1)
				b.rep.fail("structural query: %v", err)
				return
			}
			if ls.win.has(due) {
				ls.queriesSent.Add(1)
				ls.queries[kind].add(ms(d))
			}
		})
	}()

	// Counter snapshots bracket the window.
	snap := func(at time.Time, st *wire.Stats, rt *[]metrics.Sample) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Until(at)):
		}
		var err error
		*st, err = in.ns.Stats()
		*rt = readRuntime()
		return err
	}
	var steal0, total0, steal1, total1 uint64
	err := snap(ls.win.start, &ls.before, &ls.rtBefore)
	if err == nil {
		steal0, total0, err = hostCPU()
	}
	if err == nil {
		err = snap(ls.win.end, &ls.after, &ls.rtAfter)
	}
	if err == nil {
		steal1, total1, err = hostCPU()
		ls.stealFrac = ratio(float64(steal1-steal0), float64(total1-total0))
	}
	gens.Wait()
	// Open-loop requests still outstanding get a bounded grace period; any
	// left after it count as failed.
	drained := make(chan struct{})
	go func() { inflight.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(20 * time.Second):
		t.failed.Add(1)
		b.rep.fail("open-loop requests still outstanding 20s after the window")
	case <-ctx.Done():
	}
	if err == nil {
		err = ctx.Err()
	}
	if err == nil {
		ls.peakRSS, err = peakRSSMB()
	}
	return ls, err
}

// queryKinds names the structural queries the open-loop generator cycles
// through, in structuralQuery's kind order. Their costs differ by orders of
// magnitude (a tree path walks the spanning forest), so each has its own
// latency figures.
var queryKinds = [...]string{"size", "khop", "path"}

// structuralQuery runs one ComponentSize, KHop (k=2) or TreePath query and
// checks the shape of its answer.
func structuralQuery(ns *client.Namespace, kind int, u, v int32) error {
	switch kind {
	case 0:
		size, err := ns.ComponentSize(u)
		if err == nil && size < 1 {
			err = fmt.Errorf("component size %d of vertex %d", size, u)
		}
		return err
	case 1:
		vs, err := ns.KHop(u, 2)
		if err == nil && !containsVertex(vs, u) {
			err = fmt.Errorf("2-hop set of %d misses the vertex itself", u)
		}
		return err
	default:
		path, found, err := ns.TreePath(u, v)
		if err == nil && found && (len(path) == 0 || path[0] != u || path[len(path)-1] != v) {
			err = fmt.Errorf("tree path %d..%d has wrong endpoints", u, v)
		}
		return err
	}
}

func containsVertex(vs []int32, u int32) bool {
	for _, x := range vs {
		if x == u {
			return true
		}
	}
	return false
}

// prefill creates the namespace and inserts every owner's prefill edges in
// pipelined frames, checking that each insert reports a new edge.
func (b *bench) prefill(ctx context.Context, in *instance, parts [][]uint64) error {
	if err := in.cl.Create(nsName, b.sp.n, b.sp.durable); err != nil {
		return fmt.Errorf("create namespace: %w", err)
	}
	return sendFrames(ctx, in.ns, parts, conn.OpInsert, &b.tally, func(bits []bool) int {
		return countBits(bits, false)
	})
}

// sendFrames sends every edge of parts as kind ops in frames of
// prefillFrame, prefillDepth frames in flight, and fails on any frame for
// which bad reports mispredicted results.
func sendFrames(ctx context.Context, ns *client.Namespace, parts [][]uint64, kind conn.OpKind,
	t *tally, bad func(bits []bool) int) error {
	const prefillFrame, prefillDepth = 2048, 4
	frames := make(chan []conn.Op)
	errs := make(chan error, prefillDepth)
	var wg sync.WaitGroup
	for range prefillDepth {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ops := range frames {
				t.attempted.Add(1)
				bits, err := ns.Do(ops)
				if err == nil && len(bits) != len(ops) {
					err = fmt.Errorf("%d results for %d ops", len(bits), len(ops))
				}
				if err == nil {
					if n := bad(bits); n > 0 {
						err = fmt.Errorf("%d of %d results differ from the prediction", n, len(ops))
					}
				}
				if err != nil {
					t.failed.Add(1)
					errs <- err
					return
				}
			}
		}()
	}
	var err error
feed:
	for _, keys := range parts {
		for i := 0; i < len(keys); i += prefillFrame {
			chunk := keys[i:min(i+prefillFrame, len(keys))]
			ops := make([]conn.Op, len(chunk))
			for j, k := range chunk {
				e := keyEdge(k)
				ops[j] = conn.Op{Kind: kind, U: e.U, V: e.V}
			}
			select {
			case frames <- ops:
			case err = <-errs:
				break feed
			case <-ctx.Done():
				err = ctx.Err()
				break feed
			}
		}
	}
	close(frames)
	wg.Wait()
	if err == nil {
		select {
		case err = <-errs:
		default:
		}
	}
	return err
}

// countBits returns how many of bits equal v.
func countBits(bits []bool, v bool) int {
	n := 0
	for _, b := range bits {
		if b == v {
			n++
		}
	}
	return n
}

// checkQuiesced compares the server's answers with the union-find oracle of
// the benchmark's own edge sets: the component count, a fixed sample of
// pairs through ReadNowBatch, and component sizes.
func (b *bench) checkQuiesced(ns *client.Namespace, label string) {
	uf := oracle(b.sp.n, b.sets)
	t := &b.tally
	t.attempted.Add(1)
	count, _, err := ns.ComponentAggregate()
	switch {
	case err != nil:
		t.failed.Add(1)
		b.rep.fail("%s: component aggregate: %v", label, err)
	case int(count) != uf.Components():
		t.failed.Add(1)
		b.rep.fail("%s: server reports %d components, oracle %d", label, count, uf.Components())
	}

	rng := newRand(b.seed, 5)
	var keys []uint64
	for _, s := range b.sets {
		keys = append(keys, s.present...)
	}
	n := int32(b.sp.n)
	var qs []conn.Edge
	for i := 0; i < 1024; i++ {
		qs = append(qs, conn.Edge{U: rng.Int32N(n), V: rng.Int32N(n)})
		if len(keys) > 0 {
			e, f := keyEdge(keys[rng.IntN(len(keys))]), keyEdge(keys[rng.IntN(len(keys))])
			qs = append(qs, e, conn.Edge{U: e.U, V: f.V})
		}
	}
	for i := 0; i < len(qs); i += 512 {
		chunk := qs[i:min(i+512, len(qs))]
		t.attempted.Add(1)
		bits, err := ns.ReadNowBatch(chunk)
		if err == nil && len(bits) != len(chunk) {
			err = fmt.Errorf("%d answers for %d pairs", len(bits), len(chunk))
		}
		if err != nil {
			t.failed.Add(1)
			b.rep.fail("%s: ReadNowBatch: %v", label, err)
			continue
		}
		wrong := 0
		for j, q := range chunk {
			if bits[j] != uf.Connected(q.U, q.V) {
				wrong++
			}
		}
		if wrong > 0 {
			t.failed.Add(1)
			b.rep.fail("%s: %d of %d sampled pairs disagree with the oracle", label, wrong, len(chunk))
		}
	}

	size := make(map[int32]uint64)
	for v := int32(0); v < n; v++ {
		size[uf.Find(v)]++
	}
	for i := 0; i < 32; i++ {
		u := rng.Int32N(n)
		t.attempted.Add(1)
		got, err := ns.ComponentSize(u)
		if err != nil || got != size[uf.Find(u)] {
			t.failed.Add(1)
			b.rep.fail("%s: component size of %d is %d (err %v), oracle %d", label, u, got, err, size[uf.Find(u)])
		}
	}
}

// restart drains the server gracefully (the drain checkpoints the durable
// namespace), starts a new one on the same data dir, and checks that every
// acknowledged edge survived. It returns the drain-to-serving time.
func (b *bench) restart(ctx context.Context) (time.Duration, error) {
	dir := b.inst.dataDir
	t0 := time.Now()
	if err := b.inst.stop(); err != nil {
		return 0, fmt.Errorf("drain: %w", err)
	}
	in, err := startInstance(dir)
	if err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	b.inst = in
	d := time.Since(t0)
	// Re-inserting every acknowledged edge must find each already present.
	parts := make([][]uint64, len(b.sets))
	for i, s := range b.sets {
		parts[i] = append([]uint64(nil), s.present...)
	}
	if err := sendFrames(ctx, in.ns, parts, conn.OpInsert, &b.tally, func(bits []bool) int {
		return countBits(bits, true)
	}); err != nil {
		b.rep.fail("after restart: acknowledged edges missing: %v", err)
	}
	b.checkQuiesced(in.ns, "after restart")
	return d, nil
}

// gcNow collects garbage left by earlier phases, and returns its memory to
// the operating system, so that neither is charged to the next phase.
func gcNow() {
	runtime.GC()
	debug.FreeOSMemory()
}
