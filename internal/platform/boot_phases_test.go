package platform

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"catalyzer/internal/faults"
)

// TestBootPhasesGolden boots every system (Replayable included) on
// functions of four languages and sizes, two rounds each so the second
// round shares the base mapping and template, then boots java-hello on
// every system with each fault site armed at rate 1. Each boot renders
// its error, every phase with its duration, BootLatency, the machine
// clock's advance (which catches work charged outside any phase), and
// the live instance and frame counts after the boot (which catch a
// failed boot that leaks its shell). Only integers are rendered, so the
// file is the same on every GOARCH. There is no -update flag: a change
// that moves a boot must say why; on a mismatch the test prints what it
// got.
func TestBootPhasesGolden(t *testing.T) {
	systems := append(Systems(), Replayable)
	var b strings.Builder
	for _, fn := range []string{"c-hello", "java-specjbb", "python-django", "deathstar-text"} {
		p := prepared(t, fn)
		for round := 1; round <= 2; round++ {
			for _, sys := range systems {
				renderBoot(&b, p, fmt.Sprintf("%s round=%d", fn, round), fn, sys)
			}
		}
	}
	for _, site := range faults.Sites() {
		p := prepared(t, "java-hello")
		p.ArmFault(site, 1)
		for _, sys := range systems {
			renderBoot(&b, p, "java-hello site="+string(site), "java-hello", sys)
		}
	}
	got := b.String()

	path := filepath.Join("testdata", "boot_phases.golden")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(data); got != want {
		gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("line %d differs from %s:\n got: %s\nwant: %s", i+1, path, gl[i], wl[i])
				break
			}
		}
		t.Fatalf("boot phases differ from %s; got:\n%s", path, got)
	}
}

// renderBoot boots fn under sys on p, appends one line describing the
// boot to b, and releases the instance.
func renderBoot(b *strings.Builder, p *Platform, label, fn string, sys System) {
	start := p.Now()
	r, err := p.Boot(fn, sys)
	fmt.Fprintf(b, "%s sys=%s", label, sys)
	if err != nil {
		fmt.Fprintf(b, " err=%q", err.Error())
	} else {
		fmt.Fprintf(b, " boot=%d", int64(r.BootLatency))
	}
	fmt.Fprintf(b, " clock=%d live=%d frames=%d", int64(p.Now()-start), p.LiveInstances(), p.LivePages())
	if err == nil {
		for _, ph := range r.Phases {
			fmt.Fprintf(b, " %s=%d", ph.Name, int64(ph.Duration))
		}
		p.ReleaseSandbox(r.Sandbox)
	}
	b.WriteByte('\n')
}
