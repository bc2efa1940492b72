package main

import (
	"fmt"
	"sort"
)

// layerMetrics turns a traced run's spans and counters into the
// per-layer metrics. Every metric is reported on every workload.
func (t *traceRun) layerMetrics(before, traced, after *fleetStats, ps *platformStats) {
	r, tr := t.r, t.tr
	p50 := func(name, layer, op, unit string, scale float64) {
		spans := tr.find(layer, op)
		r.add(name, median(spanUS(spans))/scale, unit, fmt.Sprintf("n=%d", len(spans)))
	}
	p99 := func(name, layer, op string) {
		spans := tr.find(layer, op)
		v, used := tail(spanUS(spans), 0.99)
		r.add(name, v, "us", fmt.Sprintf("n=%d, percentile used %.4f", len(spans), used))
	}
	allocs := func(name, layer, op string) {
		r.add(name, meanAllocs(tr.find(layer, op)), "allocs/call", "heap allocations per call, mean")
	}
	self := func(name, outerLayer, outerOp, innerLayer, innerOp string) {
		v := selfTimes(inclusiveByReq(tr.find(outerLayer, outerOp)), inclusiveByReq(tr.find(innerLayer, innerOp)))
		r.add(name, median(v), "us", fmt.Sprintf("%s.%s minus %s.%s per request, n=%d", outerLayer, outerOp, innerLayer, innerOp, len(v)))
	}
	per1k := func(name string, n, invokes int) {
		r.add(name, 1000*ratio(float64(n), float64(invokes)), "1/1k", fmt.Sprintf("%d over %d invocations", n, invokes))
	}

	p50("http.invoke.p50_us", "http", "invoke", "us", 1)
	p99("http.invoke.p99_us", "http", "invoke")
	self("http.self.p50_us", "http", "invoke", "fleet", "invoke")
	p50("http.scrape.p50_ms", "http", "scrape", "ms", 1e3)

	p50("fleet.invoke.p50_us", "fleet", "invoke", "us", 1)
	p99("fleet.invoke.p99_us", "fleet", "invoke")
	allocs("fleet.invoke.allocs", "fleet", "invoke")
	self("fleet.self.p50_us", "fleet", "invoke", "platform", "invoke_recover")
	p50("fleet.deploy.p50_ms", "fleet", "deploy", "ms", 1e3)
	p50("fleet.kill_restart.p50_ms", "fleet", "kill_restart", "ms", 1e3)
	b, a, n := traced.before, traced.after, traced.invokes
	per1k("fleet.failovers_per_1k", a.Failovers-b.Failovers, n)
	per1k("fleet.replays_per_1k", a.Replays-b.Replays, n)
	per1k("fleet.retries_per_1k", a.Retries-b.Retries, n)
	per1k("fleet.hedges_per_1k", a.Hedges-b.Hedges, n)
	per1k("fleet.spills_per_1k", a.Spills-b.Spills, n)
	r.add("fleet.rereplications", float64(a.Rereplications-b.Rereplications), "count", "replica placements restored during the replay")
	remote := (a.ImagePulls - b.ImagePulls) + (a.TemplateForks - b.TemplateForks) + (a.LocalBuilds - b.LocalBuilds)
	served := sum(a.Served) - sum(b.Served)
	r.add("fleet.remote_boot_share", ratio(float64(remote), float64(served)), "ratio",
		fmt.Sprintf("(image pulls + template forks + local builds) %d / served %d", remote, served))
	r.add("fleet.virt_invoke_p99_ms", float64(a.InvokeP99)/1e6, "ms", "FleetStats.InvokeP99 at the end of the replay")
	r.add("fleet.virt_unattributed_share", ratio(float64(traced.unattrib), float64(traced.advance)), "ratio",
		fmt.Sprintf("serving machine's clock advance beyond Result.Total: %v of %v", traced.unattrib, traced.advance))

	for _, k := range tracedKinds {
		p50("platform.invoke_recover."+string(k)+".p50_us", "platform", "invoke_recover."+string(k), "us", 1)
	}
	for _, k := range tracedKinds {
		p50("platform.boot."+string(k)+".p50_us", "platform", "boot."+string(k), "us", 1)
	}
	p50("platform.execute.p50_us", "platform", "execute", "us", 1)
	p50("platform.release.p50_us", "platform", "release", "us", 1)
	r.add("platform.degraded_share", ratio(float64(traced.degraded), float64(n)), "ratio",
		fmt.Sprintf("%d of %d fleet-pass invocations served by another boot kind", traced.degraded, n))
	r.add("platform.zygote_miss_share", ratio(float64(traced.zygoteMiss), float64(traced.warm)), "ratio",
		fmt.Sprintf("%d of %d warm requests restored cold", traced.zygoteMiss, traced.warm))

	p50("core.sfork.p50_us", "core", "sfork", "us", 1)
	p99("core.sfork.p99_us", "core", "sfork")
	allocs("core.sfork.allocs", "core", "sfork")
	p50("core.boot_restore.p50_us", "core", "boot_restore", "us", 1)
	allocs("core.boot_restore.allocs", "core", "boot_restore")

	p50("memory.clone_cow.p50_us", "memory", "clone_cow", "us", 1)
	allocs("memory.clone_cow.allocs", "memory", "clone_cow")
	p50("memory.release.p50_us", "memory", "release", "us", 1)
	r.add("memory.pages_per_clone", mean(ps.pages), "pages", "mapped pages of the template address space cloned")
	r.add("memory.cow_faults_per_invoke", ratio(float64(ps.cowFaults), float64(ps.faultInvokes)), "count", "copy-on-write faults per execution of the requested boot kind")
	r.add("memory.demand_faults_per_invoke", ratio(float64(ps.demandFaults), float64(ps.faultInvokes)), "count", "demand faults per execution of the requested boot kind")
	r.add("memory.live_frames_peak", float64(ps.framesPeak), "pages", "largest FrameTable.Live with one instance booted")

	p50("serial.fixup.p50_us", "serial", "fixup", "us", 1)
	p50("serial.decode_records.p50_us", "serial", "decode_records", "us", 1)
	allocs("serial.decode_records.allocs", "serial", "decode_records")
	r.add("serial.objects_per_restore", mean(ps.objects), "count", "guest-kernel objects in a func-image")

	p50("image.encode.p50_ms", "image", "encode", "ms", 1e3)
	p50("image.decode.p50_ms", "image", "decode", "ms", 1e3)
	p50("image.save.p50_ms", "image", "save", "ms", 1e3)
	p50("image.load.p50_ms", "image", "load", "ms", 1e3)
	r.add("image.bytes_per_save", mean(ps.imageBytes), "bytes", "encoded func-image size")

	u := before.invokes + after.invokes
	r.add("runtime.gc_cycles_per_1k_invokes", 1000*ratio(float64(before.gcCycles+after.gcCycles), float64(u)), "1/1k", fmt.Sprintf("untraced fleet passes, %d invocations", u))
	r.add("runtime.gc_pause_ms_per_1k_invokes", 1000*ratio(float64(before.gcPause+after.gcPause)/1e6, float64(u)), "ms/1k", fmt.Sprintf("untraced fleet passes, %d invocations", u))

	base := (median(before.walls) + median(after.walls)) / 2
	tracedP50 := median(spanUS(tr.find("fleet", "invoke")))
	r.add("trace_overhead_pct", 100*(tracedP50-base)/base, "%",
		fmt.Sprintf("traced fleet.invoke p50 %.1f us against untraced %.1f us", tracedP50, base))

	// Virtual phase means are printed, not reported: most are constants of
	// the cost model, which no change to the simulator's speed may move.
	for _, k := range tracedKinds {
		names := make([]string, 0, len(ps.phases[k]))
		for ph := range ps.phases[k] {
			names = append(names, ph)
		}
		sort.Strings(names)
		for _, ph := range names {
			r.note("virt.phase."+ph+"."+string(k)+".mean_us",
				fmt.Sprintf("%.6g (virtual, over %d %s boots)", ratio(float64(ps.phases[k][ph])/1e3, float64(ps.boots[k])), ps.boots[k], k))
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(v []int) int {
	s := 0
	for _, x := range v {
		s += x
	}
	return s
}
