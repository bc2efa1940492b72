// Custom function: deploying your own workload. A downstream user
// describes a function's initialization and execution footprint as a JSON
// document, deploys it, and compares boot strategies — the adoption path
// for functions that are not in the paper's evaluation set.
//
//	go run ./examples/custom-function
package main

import (
	"context"
	"fmt"
	"log"

	"catalyzer"
)

// A Go-based thumbnailing service: moderate runtime init, a 60 MB heap
// after warmup, a handful of deterministic connections.
const thumbnailerSpec = `{
  "name": "thumbnailer", "language": "nodejs",
  "configKB": 4, "taskImagePages": 3000, "rootMounts": 2,
  "initComputeMS": 60, "initSyscalls": 5000, "initMmaps": 800,
  "initFiles": 180, "initFilePages": 3500, "initHeapPages": 15000,
  "kernelObjects": 14000, "kernelThreads": 40, "kernelTimers": 12,
  "conns": {"total": 20, "hot": 14, "sockets": 3},
  "execComputeUS": 45000, "execSyscalls": 1500, "execPages": 2000,
  "execConns": 4
}`

func main() {
	// A one-machine fleet is a single serverless host.
	host, err := catalyzer.NewFleet(catalyzer.FleetConfig{Machines: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer host.Close()
	name, err := host.DeployCustom(context.Background(), []byte(thumbnailerSpec))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed custom function %q\n\n", name)

	fmt.Printf("%-16s %12s %12s %12s\n", "boot", "startup", "execution", "end-to-end")
	for _, kind := range []catalyzer.BootKind{
		catalyzer.BaselineGVisor,
		catalyzer.BaselineGVisorRestore,
		catalyzer.ColdBoot,
		catalyzer.WarmBoot,
		catalyzer.ForkBoot,
	} {
		inv, err := host.Invoke(context.Background(), name, kind)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %12v %12v %12v\n", kind, inv.BootLatency, inv.ExecLatency, inv.Total())
	}

	// The per-kind distribution the host collected along the way.
	fmt.Println("\nclient metrics:")
	for _, kind := range host.StatsKinds() {
		st := host.Stats()[kind]
		fmt.Printf("  %-16s n=%d mean=%v p99=%v\n", kind, st.Count, st.MeanBoot, st.P99Boot)
	}
}
