// E-commerce: the paper's industrial Java services (Figure 13c) on the
// 96-core server machine ("Catalyzer-Indus"). Shows the boot share of
// end-to-end latency dropping from 34%-88% under gVisor to below 5%
// under fork boot, and the fine-grained func-entry point optimization
// (Figure 16a) on SPECjbb-style initialization.
//
//	go run ./examples/ecommerce
package main

import (
	"context"
	"fmt"
	"log"

	"catalyzer"
)

var services = []string{"ecom-purchase", "ecom-advertisement", "ecom-report", "ecom-discount"}

func main() {
	// A one-machine fleet is a single serverless host.
	host, err := catalyzer.NewFleet(catalyzer.FleetConfig{Machines: 1}, catalyzer.WithServerMachine())
	if err != nil {
		log.Fatal(err)
	}
	defer host.Close()
	for _, fn := range services {
		if err := host.Deploy(context.Background(), fn); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("E-commerce services on the server machine (boot share of end-to-end latency)")
	fmt.Printf("%-20s %-10s %12s %12s %10s\n", "service", "boot", "startup", "execution", "share")
	for _, fn := range services {
		for _, kind := range []catalyzer.BootKind{catalyzer.BaselineGVisor, catalyzer.ForkBoot} {
			inv, err := host.Invoke(context.Background(), fn, kind)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-20s %-10s %12v %12v %9.1f%%\n",
				fn, kind, inv.BootLatency, inv.ExecLatency,
				100*float64(inv.BootLatency)/float64(inv.Total()))
		}
	}

	// User-guided pre-initialization (§6.7): moving the func-entry point
	// past the report generator's in-function preparation logic shifts
	// that work into the func-image.
	if err := host.Deploy(context.Background(), "java-specjbb"); err != nil {
		log.Fatal(err)
	}
	if err := host.Deploy(context.Background(), "java-specjbb-late"); err != nil {
		log.Fatal(err)
	}
	early, err := host.Invoke(context.Background(), "java-specjbb", catalyzer.ForkBoot)
	if err != nil {
		log.Fatal(err)
	}
	late, err := host.Invoke(context.Background(), "java-specjbb-late", catalyzer.ForkBoot)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfine-grained func-entry point (SPECjbb-style service):\n")
	fmt.Printf("  default entry:      exec %v\n", early.ExecLatency)
	fmt.Printf("  entry after init:   exec %v (%.1fx faster)\n",
		late.ExecLatency, float64(early.ExecLatency)/float64(late.ExecLatency))
}
