package catalyzer

import (
	"context"
	"testing"
)

func TestClientStats(t *testing.T) {
	c := newHost(t)
	if err := c.Deploy(context.Background(), "c-hello"); err != nil {
		t.Fatal(err)
	}
	if len(c.Stats()) != 0 || len(c.StatsKinds()) != 0 {
		t.Fatal("fresh host has stats")
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Invoke(context.Background(), "c-hello", ForkBoot); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Invoke(context.Background(), "c-hello", WarmBoot); err != nil {
		t.Fatal(err)
	}
	inst, err := c.Start(context.Background(), "c-hello", ColdBoot)
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Release()

	stats := c.Stats()
	if stats[ForkBoot].Count != 3 {
		t.Fatalf("fork count = %d", stats[ForkBoot].Count)
	}
	if stats[WarmBoot].Count != 1 || stats[ColdBoot].Count != 1 {
		t.Fatalf("warm/cold counts = %d/%d", stats[WarmBoot].Count, stats[ColdBoot].Count)
	}
	// Distribution sanity: fork < warm < cold mean boot.
	if !(stats[ForkBoot].MeanBoot < stats[WarmBoot].MeanBoot &&
		stats[WarmBoot].MeanBoot < stats[ColdBoot].MeanBoot) {
		t.Fatalf("means not ordered: %+v", stats)
	}
	for kind, st := range stats {
		if st.P50Boot > st.P99Boot || st.P99Boot > st.MaxBoot {
			t.Fatalf("%s: percentiles disordered: %+v", kind, st)
		}
	}
	kinds := c.StatsKinds()
	if len(kinds) != 3 {
		t.Fatalf("StatsKinds = %v", kinds)
	}
	for i := 1; i < len(kinds); i++ {
		if kinds[i-1] >= kinds[i] {
			t.Fatal("StatsKinds not sorted")
		}
	}
}
