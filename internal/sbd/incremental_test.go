package sbd

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// cycleCost is the from-scratch price of one cycle: the worst case over its
// branch scenarios, every pattern repriced. It is the oracle the cached slot
// and branch costs must match bit for bit.
func (s *scheduler) cycleCost(slot int) float64 {
	base := slot * s.nb * s.ng
	common := s.cnt[base : base+s.ng]
	merged := make([]int, s.ng)
	worst := 0.0
	anyBranch := false
	for b := 1; b < s.nb; b++ {
		if s.act[slot*s.nb+b] == 0 {
			continue
		}
		anyBranch = true
		br := s.cnt[base+b*s.ng : base+(b+1)*s.ng]
		for g := range merged {
			merged[g] = common[g] + br[g]
		}
		if c := s.patternCost(merged); c > worst {
			worst = c
		}
	}
	if !anyBranch {
		if s.act[slot*s.nb] == 0 {
			return 0
		}
		return s.patternCost(common)
	}
	return worst
}

// refPlace is the reference placement: every touched slot repriced from
// scratch before and after its counter changes. It maintains cnt, act,
// start and cost only.
func refPlace(s *scheduler, id, c int) {
	g, b := s.gid[id], s.bid[id]
	for k := c; k < c+s.dur[id]; k++ {
		slot := s.slot(k)
		s.cost -= s.cycleCost(slot)
		i := (slot*s.nb+b)*s.ng + g
		if s.cnt[i] == 0 {
			s.act[slot*s.nb+b]++
		}
		s.cnt[i]++
		s.cost += s.cycleCost(slot)
	}
	s.start[id] = c
}

// refUnplace is the reference removal, the mirror of refPlace.
func refUnplace(s *scheduler, id int) {
	g, b := s.gid[id], s.bid[id]
	c := s.start[id]
	for k := c; k < c+s.dur[id]; k++ {
		slot := s.slot(k)
		s.cost -= s.cycleCost(slot)
		i := (slot*s.nb+b)*s.ng + g
		if s.cnt[i]--; s.cnt[i] == 0 {
			s.act[slot*s.nb+b]--
		}
		s.cost += s.cycleCost(slot)
	}
	s.start[id] = -1
}

// refTrial is the reference trial: place, read the cost, unplace.
func refTrial(s *scheduler, id, c int) float64 {
	refPlace(s, id, c)
	v := s.cost
	refUnplace(s, id)
	return v
}

// checkCaches reports the first cached slot cost, or cached pattern cost of
// a slot's common part or active branch, that differs from the from-scratch
// price in any bit.
func checkCaches(s *scheduler) error {
	for slot := 0; slot < s.budget; slot++ {
		if got, want := s.sc[slot], s.cycleCost(slot); math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("sc[%d] = %v, recompute %v", slot, got, want)
		}
		row := slot * s.nb
		for b := 0; b < s.nb; b++ {
			if b > 0 && s.act[row+b] == 0 {
				continue
			}
			if got, want := s.pc[row+b], s.effectiveCost(slot, b, -1); math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Errorf("pc[%d][%d] = %v, recompute %v", slot, b, got, want)
			}
		}
	}
	return nil
}

// TestIncrementalCostMatchesRecompute drives a scheduler with cached slot
// costs and a reference scheduler that reprices from scratch through the
// same pseudo-random place/unplace/trialCost sequence, in linear mode,
// pipelined mode, and pipelined mode with initiation intervals shorter than
// an off-chip access (one access wraps onto the same slot twice). After
// every operation the caches must equal a recompute, the running costs must
// agree bit for bit, and a trial must return the reference's value and
// leave the occupancy as it found it.
func TestIncrementalCostMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	trials, wrapTrials := 0, 0
	for it := 0; it < 600; it++ {
		l, groups := randomLoop(rng)
		oc := 1 + rng.Intn(3)
		p := Params{OffChipCycles: oc, Pipelined: it%3 != 0}
		p.normalize()
		cp := WeightedCP(l, groups, p)
		budget := cp + rng.Intn(4)
		if p.Pipelined {
			budget = 1 + rng.Intn(cp+2)
			if it%3 == 2 {
				budget = 1 + rng.Intn(oc) // at or below an off-chip duration
			}
		}
		s := newScheduler(l, groups, budget, p, nil)
		r := newScheduler(l, groups, budget, p, nil)
		n := len(l.Accesses)
		for op := 0; op < 200; op++ {
			id := rng.Intn(n)
			if s.start[id] >= 0 {
				s.unplace(id)
				refUnplace(r, id)
			} else {
				span := budget - s.dur[id] + 1 // linear: the access must fit
				if p.Pipelined {
					span = budget + s.dur[id]
				}
				c := rng.Intn(span)
				if rng.Intn(3) == 0 {
					s.place(id, c)
					refPlace(r, id, c)
				} else {
					got, want := s.trialCost(id, c), refTrial(r, id, c)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("loop %d op %d: trialCost(%d, %d) = %v, reference %v", it, op, id, c, got, want)
					}
					trials++
					if s.dur[id] > budget {
						wrapTrials++
					}
				}
			}
			if math.Float64bits(s.cost) != math.Float64bits(r.cost) {
				t.Fatalf("loop %d op %d: cost %v, reference %v", it, op, s.cost, r.cost)
			}
			if !slices.Equal(s.cnt, r.cnt) || !slices.Equal(s.act, r.act) || !slices.Equal(s.start, r.start) {
				t.Fatalf("loop %d op %d: occupancy differs from the reference", it, op)
			}
			if err := checkCaches(s); err != nil {
				t.Fatalf("loop %d op %d: %v", it, op, err)
			}
		}
	}
	if trials == 0 || wrapTrials == 0 {
		t.Fatalf("coverage: %d trials, %d of them wrapping", trials, wrapTrials)
	}
}
