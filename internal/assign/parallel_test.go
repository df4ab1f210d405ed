package assign

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/memlib"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/sbd"
	"repro/internal/spec"
)

// randomInstance builds a random assignment problem: 4..8 on-chip groups
// and 0/4/5 off-chip groups with varied sizes, widths, access
// multiplicities, and random conflict patterns. Deterministic per seed.
func randomInstance(seed int64) (*spec.Spec, []sbd.Pattern) {
	rng := rand.New(rand.NewSource(seed))
	b := spec.NewBuilder(fmt.Sprintf("rand%d", seed))
	nOn := 4 + rng.Intn(5)
	nOff := []int{0, 4, 5}[rng.Intn(3)]
	var names []string
	for i := 0; i < nOn; i++ {
		name := fmt.Sprintf("on%d", i)
		names = append(names, name)
		b.Group(name, int64(64<<uint(rng.Intn(5))), 2+2*rng.Intn(12))
	}
	for i := 0; i < nOff; i++ {
		name := fmt.Sprintf("off%d", i)
		names = append(names, name)
		b.Group(name, offWords<<uint(rng.Intn(2)), 4+4*rng.Intn(6))
	}
	b.Loop("l", 50_000+uint64(rng.Intn(100_000)))
	for _, name := range names {
		b.Read(name, float64(1+rng.Intn(4)))
		if rng.Intn(2) == 0 {
			b.Write(name, float64(1+rng.Intn(2)))
		}
	}
	var pats []sbd.Pattern
	for p := rng.Intn(3); p > 0; p-- {
		acc := map[string]int{}
		for _, name := range names {
			if rng.Intn(3) == 0 {
				acc[name] = 1 + rng.Intn(2)
			}
		}
		if len(acc) >= 2 {
			pats = append(pats, sbd.Pattern{Access: acc, Weight: uint64(100 + rng.Intn(2000))})
		}
	}
	return b.MustBuild(), pats
}

// TestParallelAssignMatchesSequential is the determinism property test:
// over random instances, the search at every worker count returns results
// deeply equal — bindings, costs (exact float equality), group map, and the
// Optimal flag — to one inline worker over the whole tree (nil pool).
func TestParallelAssignMatchesSequential(t *testing.T) {
	tech := memlib.Default()
	for seed := int64(0); seed < 12; seed++ {
		s, pats := randomInstance(seed)
		for _, count := range []int{1, 2, 3} {
			ref, refErr := AssignContext(context.Background(), s, pats, tech, count, Params{})
			for _, workers := range []int{1, 2, 8} {
				p := Params{Workers: pool.New(workers)}
				got, err := AssignContext(context.Background(), s, pats, tech, count, p)
				if (refErr == nil) != (err == nil) {
					t.Fatalf("seed %d count %d workers %d: err %v, sequential err %v",
						seed, count, workers, err, refErr)
				}
				if refErr != nil {
					continue
				}
				if !ref.Optimal || !got.Optimal {
					t.Fatalf("seed %d count %d workers %d: search did not complete (ref %v, got %v)",
						seed, count, workers, ref.Optimal, got.Optimal)
				}
				if got.Cost != ref.Cost {
					t.Fatalf("seed %d count %d workers %d: cost %+v != sequential %+v",
						seed, count, workers, got.Cost, ref.Cost)
				}
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("seed %d count %d workers %d: assignment diverged\n got: %+v\nwant: %+v",
						seed, count, workers, got, ref)
				}
			}
		}
	}
}

// TestParallelAssignAnytimeCancellation: an already-canceled context still
// yields the greedy incumbent (never an error) from the parallel path, with
// Optimal=false — the same anytime contract as one inline worker.
func TestParallelAssignAnytimeCancellation(t *testing.T) {
	s := mixedSpec(t)
	tech := memlib.Default()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := AssignContext(ctx, s, nil, tech, 2, Params{Workers: pool.New(8)})
	if err != nil {
		t.Fatalf("canceled parallel assign errored: %v", err)
	}
	if a.Optimal {
		t.Fatal("canceled search claims optimality")
	}
	if len(a.GroupMem) == 0 {
		t.Fatal("canceled search returned no incumbent")
	}
}

// TestParallelAssignCounters: the parallel path reports its split and
// search counters through the observer.
func TestParallelAssignCounters(t *testing.T) {
	s, pats := randomInstance(1)
	tech := memlib.Default()
	o := obs.New()
	sp := o.Start("test")
	_, err := AssignContext(context.Background(), s, pats, tech, 2, Params{Workers: pool.New(8), Obs: sp})
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	got := o.Counters()
	if got["assign.subtree_splits"] <= 0 {
		t.Fatalf("assign.subtree_splits = %d, want > 0 (counters: %v)",
			got["assign.subtree_splits"], got)
	}
	if got["assign.nodes"] <= 0 {
		t.Fatalf("assign.nodes = %d, want > 0", got["assign.nodes"])
	}
}

// TestParallelMatchesBruteForce reruns the brute-force cross-check through
// the parallel path: the shared-bound pruning must not cut the optimum.
func TestParallelMatchesBruteForce(t *testing.T) {
	tech := memlib.Default()
	for seed := 0; seed < 4; seed++ {
		b := spec.NewBuilder("bf")
		widths := []int{20, 4, 8, 12, 16, 2}
		for i, w := range widths {
			b.Group(groupName(i), int64(128<<uint(i%3)), w)
		}
		b.Loop("l", 100_000)
		for i := range widths {
			b.Read(groupName(i), float64(1+(i+seed)%3))
		}
		s := b.MustBuild()
		var pats []sbd.Pattern
		if seed%2 == 1 {
			pats = []sbd.Pattern{{
				Access: map[string]int{groupName(seed % 4): 1, groupName((seed + 1) % 4): 1},
				Weight: 1000,
			}}
		}
		for _, mem := range []int{2, 3} {
			want, feasible := bruteForceOnChip(t, s, pats, tech, mem, Params{})
			a, err := AssignContext(context.Background(), s, pats, tech, mem, Params{Workers: pool.New(8)})
			if !feasible {
				if err == nil {
					t.Fatalf("seed %d mem %d: brute force infeasible but Assign succeeded", seed, mem)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d mem %d: %v", seed, mem, err)
			}
			got := a.Cost.OnChipPower + areaWeight*a.Cost.OnChipArea
			if got > want+1e-6 || got < want-1e-6 {
				t.Fatalf("seed %d mem %d: parallel B&B %.6f != brute force %.6f", seed, mem, got, want)
			}
		}
	}
}
