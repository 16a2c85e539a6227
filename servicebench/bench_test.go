package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/parallel"
)

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sort.Strings(names)
	sort.Strings(have)
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// runQuick runs one smoke-size invocation and returns its exit code and the
// decoded result line.
func runQuick(t *testing.T, workdir string, args ...string) (int, result, string) {
	t.Helper()
	var out bytes.Buffer
	code := run(append([]string{"-quick", "-seconds", "1", "-workdir", workdir}, args...), &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil && code == 0 {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return code, res, out.String()
}

// TestQuickWorkloads runs every workload at smoke size, untraced and
// traced, and checks that each reports exactly the declared metrics with
// every check passing.
func TestQuickWorkloads(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for trace, want := range [][]string{endToEnd, perLayer} {
			name := w.name + "/trace" + strconv.Itoa(trace)
			t.Run(name, func(t *testing.T) {
				code, res, out := runQuick(t, t.TempDir(), "-workload", w.name, "-trace", strconv.Itoa(trace))
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, out)
				}
				var got []string
				for k := range res.Metrics {
					got = append(got, k)
				}
				sort.Strings(got)
				sort.Strings(want)
				if strings.Join(got, ",") != strings.Join(want, ",") {
					t.Fatalf("metrics %v, declared %v", got, want)
				}
			})
		}
	}
}

// listeners counts the TCP sockets in LISTEN state.
func listeners(t *testing.T) int {
	t.Helper()
	n := 0
	for _, f := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(raw), "\n")[1:] {
			if fs := strings.Fields(line); len(fs) > 3 && fs[3] == "0A" {
				n++
			}
		}
	}
	return n
}

// children counts live processes whose parent is this one.
func children(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc")
	if err != nil {
		t.Skip("no /proc")
	}
	self := strconv.Itoa(os.Getpid())
	n := 0
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// The parent pid is the second field after the parenthesised name.
		s := string(raw)
		if i := strings.LastIndexByte(s, ')'); i >= 0 {
			if fs := strings.Fields(s[i+1:]); len(fs) > 1 && fs[1] == self {
				n++
			}
		}
	}
	return n
}

// leftovers lists what a run left in its workdir besides span files.
func leftovers(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "spans-") {
			out = append(out, e.Name())
		}
	}
	return out
}

// settled waits until the goroutine count is back to base.
func settled(base int) bool {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return true
		}
		time.Sleep(20 * time.Millisecond)
	}
	return false
}

// TestNothingLeftBehind checks process hygiene on the success path and on
// the deadline path: no listener, goroutine, child process or data
// directory outlives a run, and a run cut by its deadline exits non-zero.
func TestNothingLeftBehind(t *testing.T) {
	// The first signal.Notify in a process starts the runtime's signal
	// loop, which never exits; start it before taking goroutine baselines.
	c := make(chan os.Signal, 1)
	signal.Notify(c, os.Interrupt)
	signal.Stop(c)
	for _, tc := range []struct {
		name     string
		args     []string
		wantZero bool
	}{
		{"success", []string{"-workload", "ingest-sparse"}, true},
		{"traced", []string{"-workload", "read-mix", "-trace", "1"}, true},
		{"deadline", []string{"-workload", "read-mix", "-deadline", "1500ms", "-seconds", "30"}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseListen, baseGo := listeners(t), runtime.NumGoroutine()
			dir := t.TempDir()
			code, _, out := runQuick(t, dir, tc.args...)
			if (code == 0) != tc.wantZero {
				t.Fatalf("exit %d\n%s", code, out)
			}
			if !tc.wantZero && strings.Contains(out, `"correct"`) {
				t.Fatalf("a cut run printed a result\n%s", out)
			}
			if l := leftovers(t, dir); len(l) > 0 {
				t.Errorf("left in workdir: %v", l)
			}
			if n := listeners(t); n > baseListen {
				t.Errorf("%d listeners after the run, %d before", n, baseListen)
			}
			if n := children(t); n > 0 {
				t.Errorf("%d child processes after the run", n)
			}
			if !settled(baseGo) {
				buf := make([]byte, 1<<16)
				t.Errorf("%d goroutines after the run, %d before\n%s", runtime.NumGoroutine(), baseGo,
					buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// replayTwice replays w twice at a fixed seed and Δ.
func replayTwice(t *testing.T, w spec) (*replayOut, *replayOut) {
	t.Helper()
	once := func() *replayOut {
		b := &bench{sp: w.quick(), seed: 7, window: time.Second, workdir: t.TempDir(), rep: newReport()}
		var err error
		if b.parts, err = prefillEdges(b.seed, b.sp.n, b.sp.m, b.owners()); err != nil {
			t.Fatal(err)
		}
		out, err := b.replay(replayIn{opsPerEpoch: 512, epochs: 40, readsPerEpoch: 2.5,
			queriesPerEpoch: 0.5, budget: time.Minute, dir: b.workdir})
		if err != nil {
			t.Fatal(err)
		}
		if out.mispredicted > 0 || b.rep.nproblems > 0 {
			t.Fatalf("replay mispredicted %d results: %v", out.mispredicted, b.rep.problems)
		}
		if out.epochs != 40 {
			t.Fatalf("replayed %d epochs, want 40", out.epochs)
		}
		return out
	}
	return once(), once()
}

// exactCounts are the replay counts that repeat exactly at any worker
// count: snapshot, event, WAL and wire work, and the core's applied updates.
func exactCounts(r *replayOut) []int64 {
	return []int64{r.core.Inserts, r.core.Deletes, r.core.DeleteBatches, r.rebuilds, r.publishes,
		r.changed, r.diffs, r.events, r.walBytes, r.walRaw, r.wireBytes}
}

// searchCounts are the core's level-search counts. Parallel level search
// picks replacement edges in scheduling order, so they repeat exactly only
// with one worker.
func searchCounts(r *replayOut) []int64 {
	return []int64{r.core.EdgesExamined, r.core.Pushdowns, r.core.TreePushes, r.core.Replaced, r.core.Rounds}
}

// TestReplayCountsRepeat replays each workload twice at a fixed seed and Δ:
// the exact counts must repeat at the default worker count, and every count
// must repeat with the core's parallel primitives on one worker.
func TestReplayCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := replayTwice(t, w)
			if ca, cb := exactCounts(a), exactCounts(b); !equal(ca, cb) {
				t.Fatalf("counts differ between identical replays:\n%v\n%v", ca, cb)
			}
			if sa, sb := searchCounts(a), searchCounts(b); !equal(sa, sb) {
				t.Logf("level-search counts vary with %d workers (expected): %v vs %v",
					runtime.GOMAXPROCS(0), sa, sb)
			}
			prev := parallel.SetWorkers(1)
			defer parallel.SetWorkers(prev)
			a, b = replayTwice(t, w)
			if ca, cb := append(exactCounts(a), searchCounts(a)...), append(exactCounts(b), searchCounts(b)...); !equal(ca, cb) {
				t.Fatalf("counts differ between identical one-worker replays:\n%v\n%v", ca, cb)
			}
			for _, name := range []string{"core.insert", "core.delete", "snapshot.publish"} {
				if a.spanAlloc[name] != b.spanAlloc[name] {
					t.Logf("%s allocated %d then %d bytes: allocation counts do not repeat exactly",
						name, a.spanAlloc[name], b.spanAlloc[name])
				}
			}
		})
	}
}

func equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
