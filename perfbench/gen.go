package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/spec"
)

// The serve workloads' request generator. Every body is a spec-mode
// /v1/explore request derived from the workload seed alone; the server
// sees only the generated bytes.

// specBudget is generous for every generated spec, so each search runs to
// its proven optimum: a non-optimal answer is a failed request here.
const specBudget = 20_000_000

// groupShape is one basic group of a generated single-loop spec and its
// accesses in the loop body.
type groupShape struct {
	words  int64
	bits   int
	reads  int
	writes int
}

// specShape is a generated single-loop spec before it is built.
type specShape struct {
	name   string
	iters  uint64
	groups []groupShape
}

// onChipGroups is how many groups of a generated spec fit on chip. With
// 13 the branch and bound stays far below its 2,000,000-node budget (the
// largest of 2,000 generated searches took 332,283 nodes), so every answer
// is proven optimal. With all 16 to 18 groups on chip, about 2% of specs
// reach the budget.
const onChipGroups = 13

// randomShape draws a fresh single-loop spec with 16 to 18 groups, above
// the cluster's subtree-distribution gate of 10 groups. All but
// onChipGroups of them are frame-sized arrays beyond the on-chip threshold.
func randomShape(rng *rand.Rand, name string) specShape {
	s := specShape{name: name, iters: 2048 + uint64(rng.Intn(2048))}
	s.groups = make([]groupShape, 16+rng.Intn(3))
	offChip := len(s.groups) - onChipGroups
	for i := range s.groups {
		g := groupShape{
			words: int64(128 << uint(rng.Intn(4))),
			bits:  4 + 2*rng.Intn(6),
			reads: 1 + rng.Intn(2),
		}
		if i < offChip {
			g.words = int64(128<<10) << uint(rng.Intn(3))
		}
		if rng.Intn(2) == 0 {
			g.writes = 1
		}
		s.groups[i] = g
	}
	return s
}

// perturb returns base with one on-chip group's width and accesses
// redrawn. The name and every earlier group declaration stay, so the
// canonical JSON shares a prefix with base and the server's warm-start
// index finds base as a neighbour.
func perturb(rng *rand.Rand, base specShape, offChip int) specShape {
	s := base
	s.groups = append([]groupShape(nil), base.groups...)
	g := &s.groups[offChip+rng.Intn(len(s.groups)-offChip)]
	g.bits = 4 + 2*rng.Intn(6)
	g.reads = 1 + rng.Intn(3)
	g.writes = rng.Intn(2)
	return s
}

func (s specShape) build() (*spec.Spec, error) {
	b := spec.NewBuilder(s.name)
	for i, g := range s.groups {
		b.Group(fmt.Sprintf("g%d", i), g.words, g.bits)
	}
	b.Loop("body", s.iters)
	for i, g := range s.groups {
		name := fmt.Sprintf("g%d", i)
		b.Read(name, float64(g.reads))
		if g.writes > 0 {
			b.Write(name, float64(g.writes))
		}
	}
	return b.Build()
}

// request is one generated explore request.
type request struct {
	body []byte // the POST /v1/explore body
	spec []byte // the spec JSON embedded in body
	hot  bool
	key  int // index into the workload's key table
}

// workload is a serve workload's key table: keys[:nHot] are the hot set,
// the rest are cold keys, each used once.
type workload struct {
	keys []request
	nHot int
	rng  *rand.Rand
	seen map[string]bool
	hot  []specShape
}

func newWorkload(seed int64, nHot int) (*workload, error) {
	w := &workload{rng: rand.New(rand.NewSource(seed)), seen: make(map[string]bool), nHot: nHot}
	for i := 0; i < nHot; i++ {
		s := randomShape(w.rng, fmt.Sprintf("h%d", i))
		if err := w.add(s, true); err != nil {
			return nil, err
		}
		w.hot = append(w.hot, s)
	}
	return w, nil
}

// add builds s into a request and appends it as a new key. It reports
// errDuplicate when the body repeats an existing key.
func (w *workload) add(s specShape, hot bool) error {
	sp, err := s.build()
	if err != nil {
		return fmt.Errorf("generated spec %s: %w", s.name, err)
	}
	var buf bytes.Buffer
	if err := sp.WriteJSON(&buf); err != nil {
		return err
	}
	js := bytes.TrimSpace(buf.Bytes())
	if w.seen[string(js)] {
		return errDuplicate
	}
	w.seen[string(js)] = true
	body := fmt.Appendf(nil, `{"spec": %s, "budget": %d}`, js, specBudget)
	w.keys = append(w.keys, request{body: body, spec: js, hot: hot, key: len(w.keys)})
	return nil
}

var errDuplicate = fmt.Errorf("duplicate generated key")

// nextCold appends and returns a fresh cold key: alternately a fresh
// random spec and a one-group perturbation of a hot spec.
func (w *workload) nextCold() (request, error) {
	for try := 0; ; try++ {
		if try == 1000 {
			return request{}, fmt.Errorf("no fresh cold key after %d draws", try)
		}
		n := len(w.keys) - w.nHot
		var s specShape
		if n%2 == 0 {
			s = randomShape(w.rng, fmt.Sprintf("c%d", n))
		} else {
			base := w.hot[w.rng.Intn(len(w.hot))]
			s = perturb(w.rng, base, len(base.groups)-onChipGroups)
		}
		err := w.add(s, false)
		if err == errDuplicate {
			continue
		}
		if err != nil {
			return request{}, err
		}
		return w.keys[len(w.keys)-1], nil
	}
}

// schedule draws n requests of which every coldEvery-th is cold and the
// rest hot: hot requests pick a key of the hot set uniformly, cold requests
// take a fresh key. Cold requests sit at fixed slots rather than random
// ones, so two cold explorations seldom overlap: at random slots a cold
// request often shares the 2 CPUs with another, and how often depends on
// how fast the host runs at that moment, which made cold latency swing far
// more from run to run than the host's speed alone.
func (w *workload) schedule(n, coldEvery int) ([]request, error) {
	out := make([]request, n)
	for i := range out {
		if (i+1)%coldEvery != 0 {
			out[i] = w.keys[w.rng.Intn(w.nHot)]
			continue
		}
		r, err := w.nextCold()
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}
