// ATM network application: the DTSE papers' other classic domain (the
// methodology was extended "to the network component (e.g. ATM) application
// domain", citing Slock et al.'s ATM exploration). This example builds a
// pruned specification of a shared-buffer ATM switch — cell FIFOs, a
// routing table, per-VC accounting — and uses the memory organization
// feedback to compare two buffer organizations and to sweep the cycle
// budget.
//
//	go run ./examples/atm
package main

import (
	"context"
	"fmt"
	"log"

	dtse "repro"
)

// buildSwitch describes a 16-port shared-buffer switch processing cells.
// Each cell: header lookup in the routing table, VC accounting
// read-modify-write, payload enqueue (12 words of 32 bit) and dequeue.
func buildSwitch(name string, sharedBuffer bool) *dtse.Spec {
	const (
		cellsPerFrame = 400_000 // ~OC-3 line rate over one exploration frame
		payloadWords  = 12      // 48-byte payload as 32-bit words
	)
	b := dtse.NewSpec(name)
	if sharedBuffer {
		b.Group("cellbuf", 128*1024, 32) // one shared pool
	} else {
		// Partitioned per port group: four quarter-size pools.
		for i := 0; i < 4; i++ {
			b.Group(fmt.Sprintf("cellbuf%d", i), 32*1024, 32)
		}
	}
	b.Group("route", 4096, 14) // VPI/VCI -> output port + new header
	b.Group("vcacct", 4096, 20)
	b.Group("freelist", 8192, 13)

	enqueue := func(pool string) {
		r := b.Read("route", 1)
		a := b.Read("vcacct", 1, r)
		b.Write("vcacct", 1, a)
		f := b.Read("freelist", 1, r)
		prev := f
		for w := 0; w < payloadWords; w++ {
			prev = b.Write(pool, 1, prev)
		}
	}
	dequeue := func(pool string) {
		f := b.Read("freelist", 1)
		prev := f
		for w := 0; w < payloadWords; w++ {
			prev = b.Read(pool, 1, prev)
		}
		b.Write("freelist", 1, prev)
	}

	if sharedBuffer {
		b.Loop("enqueue", cellsPerFrame)
		enqueue("cellbuf")
		b.Loop("dequeue", cellsPerFrame)
		dequeue("cellbuf")
	} else {
		// Traffic spreads over the four pools; the pools are alternative
		// targets per cell (branch-tagged: a cell lands in exactly one).
		b.Loop("enqueue", cellsPerFrame)
		r := b.Read("route", 1)
		a := b.Read("vcacct", 1, r)
		b.Write("vcacct", 1, a)
		f := b.Read("freelist", 1, r)
		for i := 0; i < 4; i++ {
			b.Branch(fmt.Sprintf("pool%d", i))
			prev := f
			for w := 0; w < payloadWords; w++ {
				prev = b.Write(fmt.Sprintf("cellbuf%d", i), 0.25, prev)
			}
			b.Branch("")
		}
		b.Loop("dequeue", cellsPerFrame)
		f2 := b.Read("freelist", 1)
		for i := 0; i < 4; i++ {
			b.Branch(fmt.Sprintf("pool%d", i))
			prev := f2
			for w := 0; w < payloadWords; w++ {
				prev = b.Read(fmt.Sprintf("cellbuf%d", i), 0.25, prev)
			}
			b.Branch("")
		}
		b.Write("freelist", 1, f2)
	}
	return b.MustBuild()
}

func main() {
	ep := dtse.DefaultParams()
	// Cell buffers are large SRAM pools: allow them on chip.
	tech := *ep.Tech
	tech.OnChipMaxWords = 192 * 1024
	tech.SRAM.MaxWords = 192 * 1024
	tech.FramePeriod = 0.4 // 400k cells over 0.4 s
	ep.Tech = &tech
	ep.SBD.OnChipMaxWords = tech.OnChipMaxWords
	ep.Assign.OnChipMaxWords = tech.OnChipMaxWords
	ep.OnChipCount = 4

	const budgetPerCell = 34 // storage cycles per cell (enqueue + dequeue)
	budget := uint64(budgetPerCell) * 400_000

	fmt.Println("ATM shared-buffer switch: memory organization feedback")
	for _, cfg := range []struct {
		label  string
		shared bool
	}{
		{"one shared 128K cell pool", true},
		{"four partitioned 32K pools", false},
	} {
		s := buildSwitch(cfg.label, cfg.shared)
		v, err := dtse.Explore(context.Background(), s, budget, ep)
		if err != nil {
			log.Fatalf("%s: %v", cfg.label, err)
		}
		fmt.Printf("\n%-28s area %7.1f mm²  on-chip %7.1f mW  off-chip %5.1f mW  spare cycles %d\n",
			cfg.label, v.Cost.OnChipArea, v.Cost.OnChipPower, v.Cost.OffChipPower,
			v.Dist.ExtraCycles())
		for _, bind := range v.Asgn.OnChip {
			fmt.Printf("   %-6s %7d x %2d bit %d-port: %v\n",
				bind.Mem.Name, bind.Mem.Words, bind.Mem.Bits, bind.Mem.Ports, bind.Groups)
		}
	}

	// Budget sweep on the partitioned variant: the cost of going faster.
	// When the budget drops below the memory access critical path, the
	// paper's §4.2 step kicks in: loop/data-flow transformations (here:
	// rebalancing the payload accumulation chains) shorten the MACP, and
	// the exploration continues.
	fmt.Println("\ncycle budget sweep (partitioned pools):")
	s := buildSwitch("partitioned", false)
	for _, frac := range []float64{1.0, 0.9, 0.8, 0.7, 0.6} {
		bgt := uint64(float64(budget) * frac)
		cand := s
		note := ""
		v, err := dtse.Explore(context.Background(), cand, bgt, ep)
		if err != nil {
			transformed, tlog, terr := dtse.ReduceMACP(s, bgt)
			if terr != nil {
				fmt.Printf("  %3.0f%% budget: infeasible even after transformations (%v)\n",
					100*frac, terr)
				continue
			}
			cand = transformed
			note = fmt.Sprintf("  [after %d loop transformations]", len(tlog))
			v, err = dtse.Explore(context.Background(), cand, bgt, ep)
			if err != nil {
				fmt.Printf("  %3.0f%% budget: infeasible (%v)\n", 100*frac, err)
				continue
			}
		}
		fmt.Printf("  %3.0f%% budget: area %7.1f mm², power %7.1f mW%s\n",
			100*frac, v.Cost.OnChipArea, v.Cost.TotalPower(), note)
	}
}
