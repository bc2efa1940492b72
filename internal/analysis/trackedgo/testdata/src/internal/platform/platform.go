// Package platform is trackedgo testdata modeled on the real bug: the
// rebuild path fired a bare goroutine that only an ad-hoc WaitGroup
// drained, splitting shutdown into two drain paths.
package platform

type supervisor struct{ queue []func() }

// Defer is the queue the analyzer wants background work routed through.
func (s *supervisor) Defer(key string, fn func()) bool {
	s.queue = append(s.queue, fn)
	return true
}

type platform struct {
	sup *supervisor
}

func (p *platform) startRebuildBad(fn func()) {
	go fn() // want `bare go statement in a library package`
}

func (p *platform) startRebuildGood(fn func()) {
	p.sup.Defer("rebuild", fn)
}

func (p *platform) startRebuildWaived(fn func()) {
	//lint:allow trackedgo goroutine tracking waived: fire-and-forget metrics flush, owns no platform state
	go fn()
}
