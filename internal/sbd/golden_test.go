package sbd

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/spec"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/balance_golden.jsonl")

const balanceGolden = "balance_golden.jsonl"

// goldenLoops is the number of seeded random loop bodies the balance golden
// pins; each is balanced once linearly and once pipelined.
const goldenLoops = 2000

// goldenCase is one random loop body with its balancer parameters.
type goldenCase struct {
	loop   *spec.Loop
	groups map[string]spec.BasicGroup
	p      Params
	budget int
}

// randomLoop builds a seeded random loop body: 2–13 accesses over a mix of
// on-chip and off-chip groups, tagged with branches "", "x" and "y", with
// random backward dependences.
func randomLoop(rng *rand.Rand) (*spec.Loop, map[string]spec.BasicGroup) {
	b := spec.NewBuilder("golden")
	pool := []struct {
		name  string
		words int64
		bits  int
	}{
		{"a", 128, 8}, {"b", 512, 16}, {"c", 4096, 8}, {"d", 60000, 12},
		{"X", offWords, 8}, {"Y", 4 * offWords, 16}, {"Z", 200000, 24},
	}
	ng := 2 + rng.Intn(len(pool)-1)
	perm := rng.Perm(len(pool))[:ng]
	for _, i := range perm {
		b.Group(pool[i].name, pool[i].words, pool[i].bits)
	}
	b.Loop("l", uint64(1+rng.Intn(5000)))
	n := 2 + rng.Intn(12)
	for i := 0; i < n; i++ {
		b.Branch([]string{"", "", "x", "y"}[rng.Intn(4)])
		var deps []int
		for j := 0; j < i; j++ {
			if rng.Intn(5) == 0 {
				deps = append(deps, j)
			}
		}
		g := pool[perm[rng.Intn(ng)]].name
		if rng.Intn(3) == 0 {
			b.Write(g, 1, deps...)
		} else {
			b.Read(g, 1, deps...)
		}
	}
	s := b.MustBuild()
	return &s.Loops[0], groupsMap(s)
}

// goldenCases returns the pinned balancing problems in order. Linear
// budgets run from one below the weighted critical path (an error case) to
// a few cycles of slack; pipelined budgets start at 1, below the longest
// access duration, where one access occupies the same slot twice.
func goldenCases() []goldenCase {
	rng := rand.New(rand.NewSource(20260417))
	var out []goldenCase
	for i := 0; i < goldenLoops; i++ {
		l, groups := randomLoop(rng)
		oc := 1 + rng.Intn(3)
		lin := Params{OffChipCycles: oc}
		lin.normalize()
		cp := WeightedCP(l, groups, lin)
		out = append(out, goldenCase{l, groups, lin, cp - 1 + rng.Intn(6)})
		pipe := Params{OffChipCycles: oc, Pipelined: true}
		pipe.normalize()
		out = append(out, goldenCase{l, groups, pipe, 1 + rng.Intn(cp+2)})
	}
	return out
}

// balanceRecord is one golden line: the schedule and the exact bits of its
// costs, or the balancer's error.
type balanceRecord struct {
	Case       int    `json:"case"`
	Pipelined  bool   `json:"pipelined"`
	Budget     int    `json:"budget"`
	Start      []int  `json:"start,omitempty"`
	Weighted   string `json:"weighted,omitempty"`
	Structural string `json:"structural,omitempty"`
	Err        string `json:"err,omitempty"`
}

// TestBalanceLoopGolden pins BalanceLoopContext on seeded random loop
// bodies, linear and pipelined, down to the bits of WeightedCost and
// StructuralCost: the running cost sum's rounding reaches the tie-breaks, so
// any change to the order of cost arithmetic shows here. Regenerate with
// `go test ./internal/sbd -run BalanceLoopGolden -update` only for a
// deliberate, explained output change.
func TestBalanceLoopGolden(t *testing.T) {
	var got bytes.Buffer
	for i, gc := range goldenCases() {
		rec := balanceRecord{Case: i / 2, Pipelined: gc.p.Pipelined, Budget: gc.budget}
		sc, err := BalanceLoopContext(context.Background(), gc.loop, gc.groups, gc.budget, gc.p)
		if err != nil {
			rec.Err = err.Error()
		} else {
			rec.Start = sc.Start
			rec.Weighted = fmt.Sprintf("%016x", math.Float64bits(sc.WeightedCost))
			rec.Structural = fmt.Sprintf("%016x", math.Float64bits(sc.StructuralCost))
		}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(line)
		got.WriteByte('\n')
	}
	path := filepath.Join("testdata", balanceGolden)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl := strings.Split(got.String(), "\n")
	wl := strings.Split(string(want), "\n")
	bad := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			if bad < 5 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
			bad++
		}
	}
	t.Errorf("%d line(s) differ from golden %s", bad, path)
}
