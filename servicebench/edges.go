package main

import (
	"fmt"
	"math/rand/v2"
	"sync"

	conn "repro"
	"repro/internal/unionfind"
)

// edgeKey is the canonical key of an undirected edge: the smaller endpoint
// in the high half.
func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

func keyEdge(k uint64) conn.Edge { return conn.Edge{U: int32(k >> 32), V: int32(uint32(k))} }

// ownerOf assigns every possible edge to exactly one of owners writers, so
// writers never touch each other's edges and every insert and delete result
// can be predicted from the owner's own state.
func ownerOf(k uint64, owners int) int {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	return int(k % uint64(owners))
}

// newRand returns the benchmark's deterministic generator for one stream of
// a seeded run; distinct streams are independent.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// edgeSet is one writer's owned edges. Inserts pick absent owned edges and
// deletes pick present ones, and no edge is in two frames in flight at
// once, so every insert and delete in a frame must report true. Safe for
// concurrent use: open-loop writers have several frames in flight.
type edgeSet struct {
	mu      sync.Mutex
	owner   int
	owners  int
	n       int32
	rng     *rand.Rand
	present []uint64
	idx     map[uint64]int
	busy    map[uint64]struct{}
}

func newEdgeSet(owner, owners int, n int32, rng *rand.Rand) *edgeSet {
	return &edgeSet{owner: owner, owners: owners, n: n, rng: rng,
		idx: make(map[uint64]int), busy: make(map[uint64]struct{})}
}

func (s *edgeSet) add(k uint64) {
	s.idx[k] = len(s.present)
	s.present = append(s.present, k)
}

func (s *edgeSet) remove(k uint64) {
	i, ok := s.idx[k]
	if !ok {
		return
	}
	last := s.present[len(s.present)-1]
	s.present[i] = last
	s.idx[last] = i
	s.present = s.present[:len(s.present)-1]
	delete(s.idx, k)
}

// frame draws one write frame of ins inserts, del deletes and qry
// connectivity queries, in that order, and marks its edges busy until ack.
func (s *edgeSet) frame(ins, del, qry int) []conn.Op {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := make([]conn.Op, 0, ins+del+qry)
	for range ins {
		for {
			u, v := s.rng.Int32N(s.n), s.rng.Int32N(s.n)
			k := edgeKey(u, v)
			if u == v || ownerOf(k, s.owners) != s.owner {
				continue
			}
			if _, ok := s.idx[k]; ok {
				continue
			}
			if _, ok := s.busy[k]; ok {
				continue
			}
			s.busy[k] = struct{}{}
			ops = append(ops, conn.Op{Kind: conn.OpInsert, U: u, V: v})
			break
		}
	}
	// A delete draw gives up after a bounded number of busy hits; the frame
	// is then shorter, which keeps every prediction exact.
	for range del {
		for try := 0; try < 8 && len(s.present) > 0; try++ {
			k := s.present[s.rng.IntN(len(s.present))]
			if _, ok := s.busy[k]; ok {
				continue
			}
			s.busy[k] = struct{}{}
			e := keyEdge(k)
			ops = append(ops, conn.Op{Kind: conn.OpDelete, U: e.U, V: e.V})
			break
		}
	}
	for range qry {
		ops = append(ops, conn.Op{Kind: conn.OpQuery, U: s.rng.Int32N(s.n), V: s.rng.Int32N(s.n)})
	}
	return ops
}

// ack checks an acknowledged frame's results against the prediction and
// applies it. It returns the number of mispredicted results.
func (s *edgeSet) ack(ops []conn.Op, bits []bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	bad := 0
	if len(bits) != len(ops) {
		bad++
	}
	for i, op := range ops {
		if op.Kind == conn.OpQuery {
			continue
		}
		if i >= len(bits) || !bits[i] {
			bad++
		}
		k := edgeKey(op.U, op.V)
		delete(s.busy, k)
		if op.Kind == conn.OpInsert {
			s.add(k)
		} else {
			s.remove(k)
		}
	}
	return bad
}

// prefillEdges draws m distinct random edges for a graph on n vertices and
// splits them among owners by ownerOf.
func prefillEdges(seed uint64, n, m, owners int) ([][]uint64, error) {
	if m > n*(n-1)/4 {
		return nil, fmt.Errorf("prefill of %d edges is too dense for %d vertices", m, n)
	}
	rng := newRand(seed, 1)
	seen := make(map[uint64]struct{}, m)
	out := make([][]uint64, owners)
	for len(seen) < m {
		u, v := rng.Int32N(int32(n)), rng.Int32N(int32(n))
		k := edgeKey(u, v)
		if u == v {
			continue
		}
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		o := ownerOf(k, owners)
		out[o] = append(out[o], k)
	}
	return out, nil
}

// oracle is a union-find over the union of every owner's present edges: the
// connectivity the server must report once traffic has quiesced.
func oracle(n int, sets []*edgeSet) *unionfind.UF {
	uf := unionfind.New(n)
	for _, s := range sets {
		s.mu.Lock()
		for _, k := range s.present {
			e := keyEdge(k)
			uf.Union(e.U, e.V)
		}
		s.mu.Unlock()
	}
	return uf
}
