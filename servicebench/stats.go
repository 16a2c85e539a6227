package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// series collects samples from many goroutines.
type series struct {
	mu sync.Mutex
	v  []float64
}

func (s *series) add(v float64) {
	s.mu.Lock()
	s.v = append(s.v, v)
	s.mu.Unlock()
}

// merge appends o's samples to s.
func (s *series) merge(o *series) {
	o.mu.Lock()
	v := append([]float64(nil), o.v...)
	o.mu.Unlock()
	s.mu.Lock()
	s.v = append(s.v, v...)
	s.mu.Unlock()
}

func (s *series) samples() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.v)
}

// quantile returns the nearest-rank q-quantile of every value and the
// sample count.
func (s *series) quantile(q float64) (float64, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantile(append([]float64(nil), s.v...), q), len(s.v)
}

// quantile returns the nearest-rank q-quantile of xs (NaN when empty). It
// sorts xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates metrics in print order, with the sample count behind
// each, and the run's correctness tally.
type report struct {
	names   []string
	infos   []string // printed lines not in the result JSON
	metrics map[string]metric
	samples map[string]int

	attempted int64
	failed    int64

	mu        sync.Mutex // guards problems; load goroutines report concurrently
	problems  []string
	nproblems int
}

func newReport() *report {
	return &report{metrics: make(map[string]metric), samples: make(map[string]int)}
}

func (r *report) set(name string, v float64, unit string, samples int) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = samples
}

// info prints a figure that is not one of the workload's declared metrics.
func (r *report) info(name string, v float64, unit string, samples int) {
	r.infos = append(r.infos, fmt.Sprintf("info   %-34s %14.6g %-6s n=%d", name, v, unit, samples))
}

// fail records a correctness problem; the run then reports correct=false
// and exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	const keep = 20 // the first problems say enough; the count says the rest
	if len(r.problems) < keep {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	r.nproblems++
}

// result is the benchmark's final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// write prints one line per metric and per problem, then the result JSON as
// the last line.
func (r *report) write(w io.Writer) error {
	for _, name := range r.names {
		m := r.metrics[name]
		fmt.Fprintf(w, "metric %-34s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, r.samples[name])
	}
	for _, l := range r.infos {
		fmt.Fprintln(w, l)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
	if r.nproblems > len(r.problems) {
		fmt.Fprintf(w, "problem: ... %d more\n", r.nproblems-len(r.problems))
	}
	res := result{
		Correct:   r.nproblems == 0 && r.failed == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
