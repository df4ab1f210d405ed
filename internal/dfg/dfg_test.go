package dfg

import (
	"testing"
	"testing/quick"

	"repro/internal/spec"
)

// chainLoop builds g0 -> g1 -> ... -> g{n-1} (a pure dependence chain).
func chainLoop(t *testing.T, n int, iters uint64) *spec.Spec {
	t.Helper()
	b := spec.NewBuilder("chain")
	b.Group("g", 64, 8)
	b.Loop("l", iters)
	prev := -1
	for i := 0; i < n; i++ {
		if prev < 0 {
			prev = b.Read("g", 1)
		} else {
			prev = b.Read("g", 1, prev)
		}
	}
	return b.MustBuild()
}

// diamondLoop builds a -> {b, c} -> d.
func diamondLoop(t *testing.T) *spec.Spec {
	t.Helper()
	bd := spec.NewBuilder("diamond")
	bd.Group("g", 64, 8)
	bd.Loop("l", 10)
	a := bd.Read("g", 1)
	b := bd.Read("g", 1, a)
	c := bd.Read("g", 1, a)
	bd.Write("g", 1, b, c)
	return bd.MustBuild()
}

func TestCriticalPathChain(t *testing.T) {
	s := chainLoop(t, 5, 1)
	if cp := CriticalPath(&s.Loops[0]); cp != 5 {
		t.Fatalf("chain CP = %d, want 5", cp)
	}
}

func TestCriticalPathDiamond(t *testing.T) {
	s := diamondLoop(t)
	if cp := CriticalPath(&s.Loops[0]); cp != 3 {
		t.Fatalf("diamond CP = %d, want 3", cp)
	}
}

func TestCriticalPathIndependent(t *testing.T) {
	b := spec.NewBuilder("par")
	b.Group("g", 64, 8)
	b.Loop("l", 1)
	for i := 0; i < 7; i++ {
		b.Read("g", 1)
	}
	s := b.MustBuild()
	if cp := CriticalPath(&s.Loops[0]); cp != 1 {
		t.Fatalf("independent CP = %d, want 1", cp)
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	l := &spec.Loop{Name: "empty", Iterations: 1}
	if cp := CriticalPath(l); cp != 0 {
		t.Fatalf("empty CP = %d, want 0", cp)
	}
}

func TestMACPSumsLoops(t *testing.T) {
	b := spec.NewBuilder("two")
	b.Group("g", 64, 8)
	b.Loop("l1", 100)
	r := b.Read("g", 1)
	b.Write("g", 1, r)
	b.Loop("l2", 10)
	b.Read("g", 1)
	s := b.MustBuild()
	if m := MACP(s); m != 100*2+10*1 {
		t.Fatalf("MACP = %d, want 210", m)
	}
}

func TestTopoOrderRespectsDeps(t *testing.T) {
	s := diamondLoop(t)
	order := TopoOrderScratch(&s.Loops[0], nil)
	pos := make(map[int]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, a := range s.Loops[0].Accesses {
		for _, d := range a.Deps {
			if pos[d] >= pos[a.ID] {
				t.Fatalf("dep %d not before %d in %v", d, a.ID, order)
			}
		}
	}
	if len(order) != 4 {
		t.Fatalf("order has %d entries", len(order))
	}
}

func TestWindowsTightBudget(t *testing.T) {
	s := diamondLoop(t)
	win, err := Windows(&s.Loops[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	// At a budget equal to the CP, every node is on a tight schedule.
	want := []Window{{0, 0}, {1, 1}, {1, 1}, {2, 2}}
	for i, w := range want {
		if win[i] != w {
			t.Fatalf("window[%d] = %+v, want %+v", i, win[i], w)
		}
	}
}

func TestWindowsRelaxedBudget(t *testing.T) {
	s := diamondLoop(t)
	win, err := Windows(&s.Loops[0], 5)
	if err != nil {
		t.Fatal(err)
	}
	if win[0].ASAP != 0 || win[0].ALAP != 2 {
		t.Fatalf("source window = %+v, want {0 2}", win[0])
	}
	if win[3].ASAP != 2 || win[3].ALAP != 4 {
		t.Fatalf("sink window = %+v, want {2 4}", win[3])
	}
}

func TestWindowsBudgetBelowCP(t *testing.T) {
	s := diamondLoop(t)
	if _, err := Windows(&s.Loops[0], 2); err == nil {
		t.Fatal("budget below CP accepted")
	}
}

func TestSlackGrowsWithBudget(t *testing.T) {
	s := diamondLoop(t)
	l := &s.Loops[0]
	s3, err := Slack(l, 3)
	if err != nil {
		t.Fatal(err)
	}
	s6, err := Slack(l, 6)
	if err != nil {
		t.Fatal(err)
	}
	if s3 != 0 {
		t.Fatalf("slack at CP = %d, want 0", s3)
	}
	if s6 <= s3 {
		t.Fatalf("slack did not grow: %d -> %d", s3, s6)
	}
}

// Property: windows are consistent (ASAP <= ALAP, deps separated) for
// random DAGs and any feasible budget.
func TestQuickWindowConsistency(t *testing.T) {
	f := func(edges []uint16, extra uint8) bool {
		const n = 10
		b := spec.NewBuilder("q")
		b.Group("g", 64, 8)
		b.Loop("l", 1)
		ids := make([]int, n)
		depsOf := make([][]int, n)
		for _, e := range edges {
			from := int(e) % n
			to := int(e>>4) % n
			if from < to {
				depsOf[to] = append(depsOf[to], from)
			}
		}
		for i := 0; i < n; i++ {
			ids[i] = b.Read("g", 1, depsOf[i]...)
		}
		s, err := b.Build()
		if err != nil {
			return false
		}
		l := &s.Loops[0]
		budget := CriticalPath(l) + int(extra)%5
		win, err := Windows(l, budget)
		if err != nil {
			return false
		}
		for _, a := range l.Accesses {
			w := win[a.ID]
			if w.ASAP > w.ALAP || w.ASAP < 0 || w.ALAP >= budget {
				return false
			}
			for _, d := range a.Deps {
				if win[d].ASAP >= w.ALAP && !(win[d].ASAP < w.ALAP || win[d].ALAP < w.ALAP) {
					return false
				}
				if win[d].ALAP >= w.ALAP { // dep must be schedulable strictly before
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
