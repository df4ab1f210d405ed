// Quickstart: describe a small pruned application and get accurate memory
// organization feedback from the physical memory management stage.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	dtse "repro"
)

func main() {
	// A toy video filter: one large frame buffer read per pixel, a small
	// coefficient table read three times per pixel, and a frame write.
	const w, h = 352, 288 // CIF
	b := dtse.NewSpec("quickstart")
	b.Group("frame", w*h, 8)
	b.Group("coef", 64, 12)
	b.Group("acc", 256, 20)

	b.Loop("pixel", w*h)
	f := b.Read("frame", 1)
	c1 := b.Read("coef", 1)
	c2 := b.Read("coef", 1, c1)
	c3 := b.Read("coef", 1, c2)
	a := b.Read("acc", 1, f, c3)
	b.Write("acc", 1, a)
	b.Write("frame", 1, a)

	s, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	// Real-time constraint: 12 storage cycles per pixel.
	budget := uint64(12 * w * h)
	v, err := dtse.Explore(context.Background(), s, budget, dtse.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("specification %q: %d basic groups, %d accesses/frame\n",
		s.Name, len(s.Groups), s.TotalAccesses())
	fmt.Printf("cycle budget %d, committed %d (%d spare for the data-path)\n",
		budget, v.Dist.Used, v.Dist.ExtraCycles())
	fmt.Printf("memory organization cost: %.2f mm² on-chip area, %.2f mW on-chip, %.2f mW off-chip\n",
		v.Cost.OnChipArea, v.Cost.OnChipPower, v.Cost.OffChipPower)
	for _, bind := range v.Asgn.OnChip {
		fmt.Printf("  %-6s %6d x %2d bit %d-port: %v\n",
			bind.Mem.Name, bind.Mem.Words, bind.Mem.Bits, bind.Mem.Ports, bind.Groups)
	}
	for _, bind := range v.Asgn.OffChip {
		fmt.Printf("  %-22s %d-port: %v\n", bind.Mem.Name, bind.Mem.Ports, bind.Groups)
	}
}
