// Quickstart: deploy one serverless function and compare Catalyzer's
// three boot paths against the gVisor baseline.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"catalyzer"
)

func main() {
	// A one-machine fleet is a single serverless host.
	host, err := catalyzer.NewFleet(catalyzer.FleetConfig{Machines: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer host.Close()

	const fn = "java-specjbb"
	fmt.Printf("deploying %s (offline: func-image + template sandbox)...\n\n", fn)
	if err := host.Deploy(context.Background(), fn); err != nil {
		log.Fatal(err)
	}

	kinds := []catalyzer.BootKind{
		catalyzer.BaselineGVisor,
		catalyzer.BaselineGVisorRestore,
		catalyzer.ColdBoot,
		catalyzer.WarmBoot,
		catalyzer.ForkBoot,
	}

	fmt.Printf("%-16s %12s %12s %12s\n", "boot", "startup", "execution", "end-to-end")
	var baseline catalyzer.Duration
	for _, kind := range kinds {
		inv, err := host.Invoke(context.Background(), fn, kind)
		if err != nil {
			log.Fatal(err)
		}
		if kind == catalyzer.BaselineGVisor {
			baseline = inv.BootLatency
		}
		speedup := float64(baseline) / float64(inv.BootLatency)
		fmt.Printf("%-16s %12v %12v %12v   (startup %.0fx vs gVisor)\n",
			kind, inv.BootLatency, inv.ExecLatency, inv.Total(), speedup)
	}

	// Phase breakdown of a fork boot: where does the ~1.5ms go?
	inv, err := host.Invoke(context.Background(), fn, catalyzer.ForkBoot)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfork boot phase breakdown:\n")
	for _, ph := range inv.Phases {
		fmt.Printf("  %-24s %v\n", ph.Name, ph.Duration)
	}
}
