// DeathStar: the paper's social-network microservice scenario
// (Figure 13a). A composePost request fans out to the text, media,
// uniqueID and timeline services; each hop cold-starts a sandbox. The
// example compares the request's critical path under gVisor cold boots
// versus Catalyzer fork boots, then demonstrates fork boot's
// auto-scaling property: a burst of 200 concurrent requests served from
// one template each.
//
//	go run ./examples/deathstar
package main

import (
	"context"
	"fmt"
	"log"

	"catalyzer"
)

// composePostFlow is the chain of services one social-network post
// touches.
var composePostFlow = []string{
	"deathstar-uniqueid",
	"deathstar-text",
	"deathstar-media",
	"deathstar-composepost",
	"deathstar-timeline",
}

func main() {
	// A one-machine fleet is a single serverless host.
	host, err := catalyzer.NewFleet(catalyzer.FleetConfig{Machines: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer host.Close()
	for _, fn := range composePostFlow {
		if err := host.Deploy(context.Background(), fn); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("composePost request: 5 chained microservice cold starts")
	fmt.Printf("%-12s %14s %14s %14s\n", "boot", "startup-sum", "exec-sum", "end-to-end")
	for _, kind := range []catalyzer.BootKind{catalyzer.BaselineGVisor, catalyzer.ColdBoot, catalyzer.ForkBoot} {
		var boot, exec catalyzer.Duration
		for _, fn := range composePostFlow {
			inv, err := host.Invoke(context.Background(), fn, kind)
			if err != nil {
				log.Fatal(err)
			}
			boot += inv.BootLatency
			exec += inv.ExecLatency
		}
		fmt.Printf("%-12s %14v %14v %14v\n", kind, boot, exec, boot+exec)
	}

	// Auto-scaling burst: 200 simultaneous composePost requests on an
	// 8-core machine, all forked from the single template ("scalable to
	// boot any number of instances from a single template", §2.3).
	fmt.Println("\nburst: 200 simultaneous deathstar-composepost requests, 8 cores")
	for _, kind := range []catalyzer.BootKind{catalyzer.BaselineGVisor, catalyzer.ForkBoot} {
		rep, err := host.Burst(context.Background(), "deathstar-composepost", kind, 200, 8)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s p50=%v p99=%v drained-in=%v\n", kind, rep.P50, rep.P99, rep.Makespan)
	}

	// Memory: a kept fleet shares the template's pages.
	instances := make([]*catalyzer.Instance, 0, 50)
	for i := 0; i < 50; i++ {
		inst, err := host.Start(context.Background(), "deathstar-composepost", catalyzer.ForkBoot)
		if err != nil {
			log.Fatal(err)
		}
		instances = append(instances, inst)
	}
	var rss, pss float64
	for _, inst := range instances {
		rss += float64(inst.RSS())
		pss += inst.PSS()
	}
	n := float64(len(instances))
	fmt.Printf("\nfleet of %d: avg RSS %.1f MB, avg PSS %.2f MB (page sharing)\n",
		len(instances), rss/n/(1<<20), pss/n/(1<<20))
	for _, inst := range instances {
		inst.Release()
	}
}
