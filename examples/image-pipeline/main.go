// Image pipeline: the paper's Pillow image-processing workload
// (Figure 13b) arranged as a three-stage pipeline — enhancement →
// filters → transpose. Each stage is a separate serverless function;
// the pipeline's latency is dominated by startup under conventional
// sandboxes and by actual image work under Catalyzer.
//
//	go run ./examples/image-pipeline
package main

import (
	"context"
	"fmt"
	"log"

	"catalyzer"
)

var pipeline = []string{"pillow-enhancement", "pillow-filters", "pillow-transpose"}

func main() {
	// A one-machine fleet is a single serverless host.
	host, err := catalyzer.NewFleet(catalyzer.FleetConfig{Machines: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer host.Close()
	for _, fn := range pipeline {
		if err := host.Deploy(context.Background(), fn); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("three-stage image pipeline: enhancement -> filters -> transpose")
	fmt.Printf("%-16s %12s %12s %12s %12s\n", "boot", "startup", "image-work", "pipeline", "boot-share")
	var gvisorTotal catalyzer.Duration
	for _, kind := range []catalyzer.BootKind{
		catalyzer.BaselineGVisor,
		catalyzer.ColdBoot,
		catalyzer.WarmBoot,
		catalyzer.ForkBoot,
	} {
		var boot, exec catalyzer.Duration
		for _, fn := range pipeline {
			inv, err := host.Invoke(context.Background(), fn, kind)
			if err != nil {
				log.Fatal(err)
			}
			boot += inv.BootLatency
			exec += inv.ExecLatency
		}
		total := boot + exec
		if kind == catalyzer.BaselineGVisor {
			gvisorTotal = total
		}
		fmt.Printf("%-16s %12v %12v %12v %11.1f%%   (%.1fx end-to-end vs gVisor)\n",
			kind, boot, exec, total,
			100*float64(boot)/float64(total),
			float64(gvisorTotal)/float64(total))
	}

	// Warm path: a second request on an already-running stage pays no
	// boot at all — only the image work.
	inst, err := host.Start(context.Background(), "pillow-filters", catalyzer.ForkBoot)
	if err != nil {
		log.Fatal(err)
	}
	defer inst.Release()
	d, err := inst.Execute()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrepeat request on a running pillow-filters instance: %v (no boot)\n", d)
}
