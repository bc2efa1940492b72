// Package supervise is not exempt: the supervisor queues background
// work for Poll, so a goroutine here is as bare as anywhere else.
package supervise

import "sync"

type Supervisor struct{ wg sync.WaitGroup }

func (s *Supervisor) Go(fn func()) bool {
	s.wg.Add(1)
	go func() { // want `bare go statement in a library package`
		defer s.wg.Done()
		fn()
	}()
	return true
}
