// Command servicebench is the connectivity service's benchmark. It starts
// internal/server in-process on 127.0.0.1:0, prefills a namespace, drives it
// through the public client package with one of the workloads in
// workloads.go, checks every answer it can predict, and prints each metric
// with its unit and sample count. The last stdout line is one JSON object:
// end-to-end metrics with -trace 0, per-layer metrics with -trace 1 (the
// traced run also replays the workload's epochs through the layers' public
// functions; see replay.go).
//
//	go run . -workload read-mix -seed 1 -seconds 30 -trace 0
//
// Nothing outlives the process: the server, the client and every data
// directory are shut down and removed on every exit path, including errors,
// SIGINT/SIGTERM and the -deadline watchdog, which exits non-zero.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// config is one invocation's flags.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	quick    bool
	workdir  string
	deadline time.Duration
}

func parseFlags(args []string) (config, error) {
	var c config
	var trace int
	fs := flag.NewFlagSet("servicebench", flag.ContinueOnError)
	fs.StringVar(&c.workload, "workload", "", "workload name: ingest-sparse or read-mix")
	fs.Uint64Var(&c.seed, "seed", 1, "workload seed")
	fs.IntVar(&c.seconds, "seconds", 20, "measured window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from the traced replay")
	fs.BoolVar(&c.quick, "quick", false, "smoke size: 16x smaller graph, one segment")
	fs.StringVar(&c.workdir, "workdir", ".bench_build", "directory for data dirs and span files")
	fs.DurationVar(&c.deadline, "deadline", 0, "hard limit on the whole run (default 3*seconds + 60s)")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	if trace != 0 && trace != 1 {
		return c, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	c.trace = trace == 1
	if c.seconds < 1 {
		return c, errors.New("-seconds must be at least 1")
	}
	// A traced run takes the load window, a replay of up to the window
	// again, and set-up, restart and checkpoints on top.
	if c.deadline <= 0 {
		c.deadline = 3*time.Duration(c.seconds)*time.Second + 60*time.Second
	}
	return c, nil
}

// run executes one benchmark invocation and returns the exit code.
func run(args []string, stdout io.Writer) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servicebench:", err)
		return 2
	}
	sp, err := lookupWorkload(cfg.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servicebench:", err)
		return 2
	}
	if cfg.quick {
		sp = sp.quick()
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	ctx, cancel := context.WithTimeout(ctx, cfg.deadline)
	defer cancel()

	// setup_s and the segment medians are end-to-end figures; smoke and
	// traced runs need one segment.
	segments := untracedSegments
	if cfg.quick || cfg.trace {
		segments = 1
	}
	b := &bench{sp: sp, seed: cfg.seed, window: time.Duration(cfg.seconds) * time.Second,
		workdir: cfg.workdir, trace: cfg.trace, segments: segments, rep: newReport()}
	finished := make(chan struct{})
	watchdogDone := make(chan struct{})
	go func() {
		defer close(watchdogDone)
		b.watchdog(ctx, finished)
	}()
	defer func() {
		close(finished)
		<-watchdogDone
	}()
	defer b.close()

	dir, err := b.tempDir("env-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "servicebench:", err)
		return 1
	}
	env := stamp(dir, sp, cfg.seed, cfg.seconds, cfg.trace, cfg.quick)
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envJSON)

	if err := b.run(ctx); err != nil {
		if ctx.Err() != nil {
			err = fmt.Errorf("%w (%v)", err, context.Cause(ctx))
		}
		fmt.Fprintln(os.Stderr, "servicebench:", err)
		return 1
	}
	b.close()
	b.rep.attempted, b.rep.failed = b.tally.attempted.Load(), b.tally.failed.Load()
	if err := b.rep.write(stdout); err != nil {
		fmt.Fprintln(os.Stderr, "servicebench:", err)
		return 1
	}
	if b.rep.nproblems > 0 || b.rep.failed > 0 {
		return 1
	}
	return 0
}

// watchdog enforces the hard deadline and signals: once ctx ends it gives
// the run ten seconds to unwind through its own cleanup, then removes the
// data directories itself and exits non-zero.
func (b *bench) watchdog(ctx context.Context, finished <-chan struct{}) {
	select {
	case <-finished:
		return
	case <-ctx.Done():
	}
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		fmt.Fprintln(os.Stderr, "servicebench: run did not unwind after", context.Cause(ctx))
		b.removeDirs()
		os.Exit(3)
	}
}

// bench is one invocation's state.
type bench struct {
	sp       spec
	seed     uint64
	window   time.Duration
	workdir  string
	trace    bool
	segments int
	rep      *report
	tally    tally

	parts [][]uint64 // prefill edges per owner
	sets  []*edgeSet // the owners' live edge sets
	inst  *instance

	dirMu sync.Mutex
	dirs  []string
}

func (b *bench) owners() int { return max(1, b.sp.writers) }

// newSets returns fresh owner edge sets holding the prefill, each with its
// own seeded random stream.
func (b *bench) newSets() []*edgeSet {
	sets := make([]*edgeSet, b.owners())
	for w := range sets {
		sets[w] = newEdgeSet(w, len(sets), int32(b.sp.n), newRand(b.seed, uint64(10+w)))
		for _, k := range b.parts[w] {
			sets[w].add(k)
		}
	}
	return sets
}

// tempDir creates a directory under the workdir that close removes.
func (b *bench) tempDir(pattern string) (string, error) {
	dir, err := makeTempDir(b.workdir, pattern)
	if err != nil {
		return "", err
	}
	b.dirMu.Lock()
	b.dirs = append(b.dirs, dir)
	b.dirMu.Unlock()
	return dir, nil
}

func (b *bench) removeDirs() {
	b.dirMu.Lock()
	defer b.dirMu.Unlock()
	for _, d := range b.dirs {
		removeTree(d)
	}
	b.dirs = nil
}

// close stops the server and removes every data directory. Idempotent.
func (b *bench) close() {
	if b.inst != nil {
		if err := b.inst.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "servicebench: stop server:", err)
		}
		b.inst = nil
	}
	b.removeDirs()
}

// setupOnce starts a fresh server and prefills the namespace, returning the
// elapsed time.
func (b *bench) setupOnce(ctx context.Context) (time.Duration, error) {
	b.close()
	t0 := time.Now()
	dir := ""
	if b.sp.durable {
		var err error
		if dir, err = b.tempDir("data-*"); err != nil {
			return 0, err
		}
	}
	in, err := startInstance(dir)
	if err != nil {
		return 0, err
	}
	b.inst = in
	if err := b.prefill(ctx, in, b.parts); err != nil {
		return 0, fmt.Errorf("prefill: %w", err)
	}
	return time.Since(t0), nil
}

// untracedSegments is how many fresh set-ups an untraced run measures, each
// followed by an equal share of the window: setup_s is their median, rates
// and peak RSS are medians over segments, and latencies pool every
// segment's samples, so that no single server's spanning forest, memory
// layout or garbage-collection phase decides a figure.
const untracedSegments = 5

// run is the whole measurement: set-ups and load segments, checks, restart,
// and for a traced run the replay.
func (b *bench) run(ctx context.Context) error {
	var err error
	b.parts, err = prefillEdges(b.seed, b.sp.n, b.sp.m, b.owners())
	if err != nil {
		return err
	}
	var setups []float64
	var segs []*loadStats
	for i := range b.segments {
		d, err := b.setupOnce(ctx)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		b.sets = b.newSets()
		gcNow()
		ls, err := b.runLoad(ctx, b.window/time.Duration(b.segments))
		if err != nil {
			return err
		}
		b.checkQuiesced(b.inst.ns, fmt.Sprintf("after load segment %d", i+1))
		segs = append(segs, ls)
	}
	var restart time.Duration
	if b.sp.restart {
		if restart, err = b.restart(ctx); err != nil {
			return err
		}
	}
	if err := b.inst.stop(); err != nil {
		return err
	}
	b.inst = nil
	if !b.trace {
		b.endToEnd(segs, setups, restart)
		return nil
	}
	return b.perLayer(ctx, segs[0], restart)
}

// endToEnd reports the metrics a client of the service sees: rates as the
// median over segments, latency quantiles over the pooled samples.
func (b *bench) endToEnd(segs []*loadStats, setups []float64, restart time.Duration) {
	r := b.rep
	var rates, rss, gcs, delta, steal []float64
	var events int64
	for _, ls := range segs {
		rates = append(rates, ls.writeRate())
		rss = append(rss, ls.peakRSS)
		gcs = append(gcs, ls.rtDelta(rtCycles))
		steal = append(steal, ls.stealFrac)
		delta = append(delta, ratio(float64(ls.after.Ops-ls.before.Ops), float64(ls.after.Epochs-ls.before.Epochs)))
		events += ls.events.Load()
	}
	type class struct {
		name  string
		of    func(*loadStats) *series
		gated bool
	}
	classes := []class{
		{"write", func(ls *loadStats) *series { return &ls.writes }, true},
		{"read", func(ls *loadStats) *series { return &ls.reads }, true},
	}
	if b.sp.queryHz > 0 {
		for k, kind := range queryKinds {
			classes = append(classes, class{"query_" + kind, func(ls *loadStats) *series { return &ls.queries[k] }, false})
		}
	}
	nWrites := 0
	for _, ls := range segs {
		nWrites += ls.writes.samples()
	}
	r.set("write_ops_per_s", median(rates), "1/s", nWrites)
	for _, c := range classes {
		b.latency(c.name, segs, c.of, c.gated)
	}
	var late series
	for _, ls := range segs {
		late.merge(&ls.genLate)
	}
	p99, n := late.quantile(0.99)
	r.set("gen_late_p99_ms", p99, "ms", n)
	r.set("setup_s", median(setups), "s", len(setups))
	r.set("peak_rss_mb", median(rss), "MB", len(rss))
	r.info("failed_frac", ratio(float64(b.tally.failed.Load()), float64(b.tally.attempted.Load())), "1",
		int(b.tally.attempted.Load()))
	if b.sp.restart {
		r.info("restart_s", restart.Seconds(), "s", 1)
	}
	r.info("coalesce_ops_per_epoch", median(delta), "ops", len(segs))
	r.info("gc_cycles_per_segment", median(gcs), "count", len(segs))
	r.info("events_received", float64(events), "count", len(segs))
	r.info("host_steal_frac_max", slices.Max(steal), "1", len(segs))
}

// latency reports one request class: the p50, p90 and p99 of the samples
// pooled over segments, each tail with the number of samples beyond it when
// that is under ten. The p50 is pooled too, not a median of segment p50s:
// a read-mix segment holds only about 100 writes, too few for a steady p50.
// Only a gated class's p50 is a declared metric; the tails, and every
// figure of the structural queries, spread wider from run to run on a small
// shared machine than any bound a regression gate could use (see
// METRICS.md), so they are printed.
func (b *bench) latency(class string, segs []*loadStats, of func(*loadStats) *series, gated bool) {
	var pooled series
	for _, ls := range segs {
		pooled.merge(of(ls))
	}
	n := pooled.samples()
	if n == 0 {
		b.rep.fail("no %s requests completed in the window", class)
		if gated {
			b.rep.set(class+"_p50_ms", 0, "ms", 0)
		}
		return
	}
	p50, _ := pooled.quantile(0.5)
	if gated {
		b.rep.set(class+"_p50_ms", p50, "ms", n)
	} else {
		b.rep.info(class+"_p50_ms", p50, "ms", n)
	}
	for _, q := range []float64{0.9, 0.99} {
		v, _ := pooled.quantile(q)
		beyond := int(float64(n) * (1 - q))
		b.rep.info(fmt.Sprintf("%s_p%d_ms", class, int(q*100)), v, "ms", n)
		if beyond < 10 {
			b.rep.info(fmt.Sprintf("%s_p%d_samples_beyond", class, int(q*100)), float64(beyond), "count", n)
		}
	}
}

// perLayer replays the workload's epochs with tracing and reports the
// per-layer metrics, combining the replay with the live run's counters.
func (b *bench) perLayer(ctx context.Context, ls *loadStats, restart time.Duration) error {
	r := b.rep
	before, after := ls.before, ls.after
	epochs := float64(after.Epochs - before.Epochs)
	ops := float64(after.Ops - before.Ops)
	secs := ls.win.seconds()
	if epochs == 0 {
		return errors.New("no epochs committed in the window")
	}
	dir, err := b.tempDir("replay-*")
	if err != nil {
		return err
	}
	in := replayIn{
		opsPerEpoch:     ops / epochs,
		epochs:          int(epochs),
		readsPerEpoch:   float64(ls.readsSent.Load()) / epochs,
		queriesPerEpoch: float64(ls.queriesSent.Load()) / epochs,
		budget:          b.window,
		dir:             dir,
	}
	gcNow()
	out, err := b.replay(in)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if out.mispredicted > 0 {
		r.fail("replay: %d results differ from the owners' predictions", out.mispredicted)
	}
	spanFile := filepath.Join(b.workdir, fmt.Sprintf("spans-%s-seed%d.csv", b.sp.name, b.seed))
	if err := out.spans.write(spanFile); err != nil {
		return err
	}

	ep := float64(out.epochs)
	perEpochMS := func(name string) float64 { return float64(out.spanNS[name]) / 1e6 / ep }
	perCallUS := func(name string) float64 {
		return ratio(float64(out.spanNS[name])/1e3, float64(out.spanCalls[name]))
	}
	n := out.epochs

	r.set("coalesce.ops_per_epoch", ops/epochs, "ops", int(epochs))
	r.set("engine.epochs_per_s", epochs/secs, "1/s", int(epochs))

	publishes := float64(after.SnapshotPublishes - before.SnapshotPublishes)
	r.set("snapshot.publishes_per_epoch", publishes/epochs, "1", int(epochs))
	r.set("snapshot.rebuilds_per_publish",
		ratio(float64(after.SnapshotRebuilds-before.SnapshotRebuilds), publishes), "1", int(publishes))
	r.set("snapshot.publish_ms_per_epoch", perEpochMS("snapshot.publish"), "ms", n)
	r.set("snapshot.changed_per_publish", ratio(float64(out.changed), float64(out.diffs)), "vertices", int(out.diffs))
	r.set("snapshot.alloc_bytes_per_epoch", float64(out.spanAlloc["snapshot.publish"])/ep, "B", n)

	r.set("core.insert_ms_per_epoch", perEpochMS("core.insert"), "ms", n)
	r.set("core.delete_ms_per_epoch", perEpochMS("core.delete"), "ms", n)
	r.set("core.query_ms_per_epoch", perEpochMS("core.query"), "ms", n)
	coreAlloc := out.spanAlloc["core.insert"] + out.spanAlloc["core.delete"] + out.spanAlloc["core.query"]
	r.set("core.alloc_bytes_per_epoch", float64(coreAlloc)/ep, "B", n)
	cs, dels := out.core, float64(out.core.Deletes)
	r.set("core.edges_examined_per_delete", ratio(float64(cs.EdgesExamined), dels), "edges", int(cs.Deletes))
	r.set("core.pushdowns_per_delete", ratio(float64(cs.Pushdowns), dels), "edges", int(cs.Deletes))
	r.set("core.tree_pushes_per_delete", ratio(float64(cs.TreePushes), dels), "edges", int(cs.Deletes))
	r.set("core.replaced_per_delete", ratio(float64(cs.Replaced), dels), "edges", int(cs.Deletes))
	r.set("core.rounds_per_delete_batch", ratio(float64(cs.Rounds), float64(cs.DeleteBatches)), "rounds",
		int(cs.DeleteBatches))

	r.set("wal.append_ms_per_epoch", perEpochMS("wal.append"), "ms", out.spanCalls["wal.append"])
	r.set("wal.sync_ms_per_epoch", perEpochMS("wal.sync"), "ms", out.spanCalls["wal.sync"])
	r.set("wal.bytes_per_op", ratio(float64(out.walBytes), float64(out.writeOps)), "B", out.writeOps)
	r.set("wal.codec_ratio", ratio(float64(out.walBytes), float64(out.walRaw)), "1", out.spanCalls["wal.append"])
	r.set("wal.fsyncs_per_epoch", float64(after.WALFsyncs-before.WALFsyncs)/epochs, "1", int(epochs))

	r.set("wire.encode_us_per_frame", ratio(float64(out.spanNS["wire.encode"])/1e3, float64(out.frames)), "us", out.frames)
	r.set("wire.decode_us_per_frame", ratio(float64(out.spanNS["wire.decode"])/1e3, float64(out.frames)), "us", out.frames)
	r.set("wire.bytes_per_op", ratio(float64(out.wireBytes), float64(out.writeOps)), "B", out.writeOps)

	r.set("query.size_us", perCallUS("query.size"), "us", out.spanCalls["query.size"])
	r.set("query.khop_us", perCallUS("query.khop"), "us", out.spanCalls["query.khop"])
	r.set("query.path_us", perCallUS("query.path"), "us", out.spanCalls["query.path"])

	r.set("pubsub.derive_us_per_diff", perCallUS("pubsub.derive"), "us", out.spanCalls["pubsub.derive"])
	r.set("pubsub.events_per_diff", ratio(float64(out.events), float64(out.diffs)), "events", int(out.diffs))
	r.set("pubsub.events_dropped", float64(after.EventsDropped-before.EventsDropped), "count", 1)

	r.set("checkpoint.write_ms", out.checkpointMS, "ms", 3)
	r.set("checkpoint.restart_s", restart.Seconds(), "s", 1)

	r.set("runtime.gc_cpu_frac", ratio(ls.rtDelta(rtGCCPU), ls.rtDelta(rtTotalCPU)), "1", 1)
	r.set("runtime.alloc_bytes_per_op", ratio(ls.rtDelta(rtAllocs), float64(ls.writeOps.Load())), "B",
		int(ls.writeOps.Load()))

	wallPerEpoch := secs / epochs
	selfPerEpoch := float64(out.selfNS()) / 1e9 / ep
	r.set("trace.coverage", selfPerEpoch/wallPerEpoch, "1", n)
	r.info("replay.epochs", ep, "count", n)
	r.info("replay.frames_per_epoch", float64(out.writeFrames)/ep, "frames", n)
	return nil
}
