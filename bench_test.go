package catalyzer

// One benchmark per table and figure of the paper's evaluation: each
// regenerates the artifact through internal/experiments and reports the
// headline virtual-time metric as custom benchmark units, so
// `go test -bench=. -benchmem` prints the same series the paper reports.
// A second group benchmarks the *real* CPU cost of the reproduction's own
// hot paths (serialization formats, pointer fixup, CoW faults, sfork).

import (
	"context"
	"testing"

	"catalyzer/internal/costmodel"
	"catalyzer/internal/experiments"
	"catalyzer/internal/sandbox"
	"catalyzer/internal/serial"
	"catalyzer/internal/vfs"
	"catalyzer/internal/workload"
)

// runExperiment executes one generator per iteration and validates that
// it produced rows.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	g, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := g.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig1CDF(b *testing.B)            { runExperiment(b, "fig1") }
func BenchmarkFig2Breakdown(b *testing.B)      { runExperiment(b, "fig2") }
func BenchmarkFig3DesignSpace(b *testing.B)    { runExperiment(b, "fig3") }
func BenchmarkFig4Distribution(b *testing.B)   { runExperiment(b, "fig4") }
func BenchmarkFig6Restore(b *testing.B)        { runExperiment(b, "fig6") }
func BenchmarkFig11Startup(b *testing.B)       { runExperiment(b, "fig11") }
func BenchmarkTable2JavaTemplate(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkFig12Breakdown(b *testing.B)     { runExperiment(b, "fig12") }
func BenchmarkFig13aDeathStar(b *testing.B)    { runExperiment(b, "fig13a") }
func BenchmarkFig13bPillow(b *testing.B)       { runExperiment(b, "fig13b") }
func BenchmarkFig13cEcommerce(b *testing.B)    { runExperiment(b, "fig13c") }
func BenchmarkFig14Memory(b *testing.B)        { runExperiment(b, "fig14") }
func BenchmarkTable3MemoryCosts(b *testing.B)  { runExperiment(b, "table3") }
func BenchmarkFig15Scalability(b *testing.B)   { runExperiment(b, "fig15") }
func BenchmarkFig16aFuncEntry(b *testing.B)    { runExperiment(b, "fig16a") }
func BenchmarkFig16bKvcalloc(b *testing.B)     { runExperiment(b, "fig16b") }
func BenchmarkFig16cPML(b *testing.B)          { runExperiment(b, "fig16c") }
func BenchmarkFig16dDup(b *testing.B)          { runExperiment(b, "fig16d") }

// --- headline virtual-latency benchmarks --------------------------------

// benchBoot reports the virtual boot latency of one (workload, kind) as
// boot-ns/op custom units.
func benchBoot(b *testing.B, fn string, kind BootKind) {
	b.Helper()
	c := newHost(b)
	if err := c.Deploy(context.Background(), fn); err != nil {
		b.Fatal(err)
	}
	var last Duration
	for i := 0; i < b.N; i++ {
		inv, err := c.Invoke(context.Background(), fn, kind)
		if err != nil {
			b.Fatal(err)
		}
		last = inv.BootLatency
	}
	b.ReportMetric(float64(last), "virtual-boot-ns")
}

func BenchmarkBootGVisorCHello(b *testing.B)  { benchBoot(b, "c-hello", BaselineGVisor) }
func BenchmarkBootForkCHello(b *testing.B)    { benchBoot(b, "c-hello", ForkBoot) }
func BenchmarkBootForkSPECjbb(b *testing.B)   { benchBoot(b, "java-specjbb", ForkBoot) }
func BenchmarkBootWarmSPECjbb(b *testing.B)   { benchBoot(b, "java-specjbb", WarmBoot) }
func BenchmarkBootColdSPECjbb(b *testing.B)   { benchBoot(b, "java-specjbb", ColdBoot) }
func BenchmarkBootGVisorSPECjbb(b *testing.B) { benchBoot(b, "java-specjbb", BaselineGVisor) }

// --- real-CPU benchmarks of the reproduction's hot paths -----------------

// specjbbObjects builds a SPECjbb-scale kernel object graph once.
func specjbbObjects(b *testing.B) []serial.Object {
	b.Helper()
	m := sandbox.NewMachine(costmodel.Default())
	s, _, err := sandbox.BootCold(m, workload.MustGet("java-specjbb"), benchRootFS(), sandbox.GVisorOptions(m))
	if err != nil {
		b.Fatal(err)
	}
	return s.Kernel.Objects()
}

func benchRootFS() *vfs.FSServer {
	root := vfs.NewTree()
	root.Add("/app/wrapper", vfs.File{Size: 1 << 20})
	return vfs.NewFSServer(root)
}

// BenchmarkRealDecodeBaseline measures one-by-one deserialization of
// 37,838 objects — the real CPU analogue of gVisor-restore's "Recover
// Kernel" step.
func BenchmarkRealDecodeBaseline(b *testing.B) {
	objs := specjbbObjects(b)
	data, _, err := serial.EncodeBaseline(objs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := serial.DecodeBaseline(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealFixupRecords measures the relation-table replay of
// separated state recovery over the same graph: the paper's claimed
// asymmetry (map + fixup vs one-by-one decode) measured in real
// nanoseconds.
func BenchmarkRealFixupRecords(b *testing.B) {
	objs := specjbbObjects(b)
	rec, _, err := serial.EncodeRecords(objs)
	if err != nil {
		b.Fatal(err)
	}
	region := append([]byte(nil), rec.Region...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(rec.Region, region) // fresh mapped copy, as a real mmap provides
		if _, err := serial.FixupRecords(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealEncodeRecords measures offline func-image preparation.
func BenchmarkRealEncodeRecords(b *testing.B) {
	objs := specjbbObjects(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := serial.EncodeRecords(objs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealSfork measures the real CPU cost of one sfork (CoW clone
// of a DeathStar-sized address space plus all bookkeeping).
func BenchmarkRealSfork(b *testing.B) {
	c := newHost(b)
	if err := c.Deploy(context.Background(), "deathstar-text"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := c.Start(context.Background(), "deathstar-text", ForkBoot)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		inst.Release()
		b.StartTimer()
	}
}

// BenchmarkRealCoWFault measures the memory subsystem's write-fault path.
func BenchmarkRealCoWFault(b *testing.B) {
	c := newHost(b)
	if err := c.Deploy(context.Background(), "deathstar-composepost"); err != nil {
		b.Fatal(err)
	}
	inst, err := c.Start(context.Background(), "deathstar-composepost", ForkBoot)
	if err != nil {
		b.Fatal(err)
	}
	defer inst.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Execute(); err != nil {
			b.Fatal(err)
		}
	}
}
