package platform

import (
	"testing"

	"catalyzer/internal/workload"
)

func TestPreInitVariantInvariants(t *testing.T) {
	base := workload.MustGet("pillow-filters")
	v, err := workload.PreInitVariant(base, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Total work is conserved or grows (training adds kernel state),
	// but per-request work shrinks.
	if v.ExecComputeUS >= base.ExecComputeUS || v.ExecPages >= base.ExecPages {
		t.Fatalf("per-request work did not shrink: %+v", v)
	}
	if v.InitHeapPages <= base.InitHeapPages {
		t.Fatal("warmed pages not captured in heap")
	}
	if v.HotConns() < base.HotConns() {
		t.Fatal("training lost deterministic connections")
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	// The base spec is untouched.
	if base.ExecComputeUS != workload.MustGet("pillow-filters").ExecComputeUS {
		t.Fatal("base spec mutated")
	}
}
