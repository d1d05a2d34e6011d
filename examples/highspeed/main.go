// Command highspeed reproduces Figure 1 interactively: a single large read
// striped round-robin over controller blades, each fed by two 2 Gb/s Fibre
// Channel links, driving one 10 Gb/s port.
package main

import (
	"fmt"
	"log"

	"repro/internal/sim"
	"repro/internal/stripe"
)

func main() {
	fmt.Println("== Figure 1: driving a 10 Gb/s link by striping over blades ==")
	const gib = int64(1) << 30
	counts := []int{1, 2, 4, 8}
	k := sim.NewKernel(1)
	defer k.Close()
	results, err := stripe.Sweep(k, stripe.Config{}, counts, gib)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(stripe.Table(counts, results, 2_000_000_000, 10_000_000_000))

	fmt.Println("\nWith per-blade 2 Gb/s encryption engines (§8.1):")
	k2 := sim.NewKernel(1)
	defer k2.Close()
	enc, err := stripe.Sweep(k2, stripe.Config{EncBps: 2_000_000_000}, counts, gib)
	if err != nil {
		log.Fatal(err)
	}
	for i, n := range counts {
		fmt.Printf("  %d blade(s): %.2f Gb/s encrypted (vs %.2f plain)\n",
			n, enc[i].Gbps(), results[i].Gbps())
	}
	fmt.Println("\nfour blades saturate the port; encryption reaches wire speed by parallelism")
}
