package catalyzer_test

import (
	"context"
	"fmt"

	"catalyzer"
)

// The basic flow: deploy once (offline initialization), then fork-boot
// instances in about a millisecond. Virtual time is deterministic, so the
// output is stable.
func Example() {
	host, err := catalyzer.NewFleet(catalyzer.FleetConfig{Machines: 1})
	if err != nil {
		panic(err)
	}
	defer host.Close()
	if err := host.Deploy(context.Background(), "java-specjbb"); err != nil {
		panic(err)
	}
	inv, err := host.Invoke(context.Background(), "java-specjbb", catalyzer.ForkBoot)
	if err != nil {
		panic(err)
	}
	fmt.Println("boot:", inv.BootLatency)
	// Output:
	// boot: 1.653ms
}

// Comparing boot strategies on the same function.
func Example_bootKinds() {
	host, err := catalyzer.NewFleet(catalyzer.FleetConfig{Machines: 1})
	if err != nil {
		panic(err)
	}
	defer host.Close()
	if err := host.Deploy(context.Background(), "c-hello"); err != nil {
		panic(err)
	}
	for _, kind := range []catalyzer.BootKind{
		catalyzer.BaselineGVisor, catalyzer.ColdBoot, catalyzer.WarmBoot, catalyzer.ForkBoot,
	} {
		inv, err := host.Invoke(context.Background(), "c-hello", kind)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s %v\n", kind, inv.BootLatency)
	}
	// Output:
	// gvisor 130.6ms
	// cold 27.928795ms
	// warm 1.626795ms
	// fork 703µs
}

// Keeping instances running and observing page sharing.
func Example_instances() {
	host, err := catalyzer.NewFleet(catalyzer.FleetConfig{Machines: 1})
	if err != nil {
		panic(err)
	}
	defer host.Close()
	if err := host.Deploy(context.Background(), "deathstar-text"); err != nil {
		panic(err)
	}
	a, err := host.Start(context.Background(), "deathstar-text", catalyzer.ForkBoot)
	if err != nil {
		panic(err)
	}
	b, err := host.Start(context.Background(), "deathstar-text", catalyzer.ForkBoot)
	if err != nil {
		panic(err)
	}
	defer a.Release()
	defer b.Release()
	fmt.Println("rss equal:", a.RSS() == b.RSS())
	fmt.Println("pss below rss:", a.PSS() < float64(a.RSS()))
	// Output:
	// rss equal: true
	// pss below rss: true
}
