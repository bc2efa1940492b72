package memory

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"catalyzer/internal/simenv"
	"catalyzer/internal/simtime"
)

// This file checks AddressSpace and FrameTable against a naive reference
// model: every space is a map from page to frame, every frame a plain
// refcount and content token. Random operation sequences run on both,
// and after every operation the observable state must agree.

type refFrame struct {
	refs    int
	content uint64
}

type refPage struct {
	f       *refFrame
	private bool
}

type refSpace struct {
	as    *AddressSpace
	vmas  []VMA
	pages map[uint64]refPage
	stats Stats
}

type refModel struct {
	t       *testing.T
	env     *simenv.Env
	ft      *FrameTable
	back    *fakeBacking
	backRef []*refFrame
	spaces  []*refSpace
	live    int // frames with a positive refcount
	trace   []string
}

// Layout of a fresh space. The image VMA is longer than its backing, so
// its tail faults in as anonymous holes; both VMAs straddle leaf
// boundaries.
const (
	modelBackedPages = 1030
	modelImageEnd    = 1100
	modelHeapStart   = 1500
	modelHeapEnd     = 2100
)

func newRefModel(t *testing.T) *refModel {
	ft := NewFrameTable()
	contents := make([]uint64, modelBackedPages)
	for i := range contents {
		contents[i] = 1<<32 | uint64(i)
	}
	m := &refModel{t: t, env: newEnv(), ft: ft, back: newFakeBacking(ft, contents)}
	for _, c := range contents {
		m.backRef = append(m.backRef, &refFrame{refs: 1, content: c})
	}
	m.live = len(contents)
	return m
}

func (m *refModel) fail(format string, args ...any) {
	m.t.Helper()
	tail := m.trace
	if len(tail) > 12 {
		tail = tail[len(tail)-12:]
	}
	m.t.Fatalf("%s\nlast operations:\n  %s", fmt.Sprintf(format, args...), strings.Join(tail, "\n  "))
}

func (m *refModel) newFrame(content uint64) *refFrame {
	m.live++
	return &refFrame{refs: 1, content: content}
}

func (m *refModel) unref(f *refFrame) {
	f.refs--
	if f.refs == 0 {
		m.live--
	}
}

func (s *refSpace) vmaFor(page uint64) (VMA, bool) {
	for _, v := range s.vmas {
		if v.Start <= page && page < v.End {
			return v, true
		}
	}
	return VMA{}, false
}

func (m *refModel) newSpace() {
	s := &refSpace{as: NewAddressSpace(m.env, m.ft), pages: map[uint64]refPage{}}
	for _, v := range []VMA{
		{Name: "img", Start: 0, End: modelImageEnd, Backing: m.back},
		{Name: "heap", Start: modelHeapStart, End: modelHeapEnd},
	} {
		if err := s.as.Map(v); err != nil {
			m.fail("Map %s: %v", v.Name, err)
		}
		s.vmas = append(s.vmas, v)
	}
	m.spaces = append(m.spaces, s)
}

func (m *refModel) mapVMA(s *refSpace, v VMA) {
	err := s.as.Map(v)
	ok := v.End > v.Start
	for _, old := range s.vmas {
		if v.Start < old.End && old.Start < v.End {
			ok = false
		}
	}
	if (err == nil) != ok {
		m.fail("Map [%d,%d) err=%v, model accepts=%v", v.Start, v.End, err, ok)
	}
	if ok {
		s.vmas = append(s.vmas, v)
	}
}

// fault models a read or write of an unmapped page inside a VMA.
func (m *refModel) fault(s *refSpace, page uint64, write bool, content uint64) {
	v, _ := s.vmaFor(page)
	s.stats.DemandFaults++
	if !write && v.Backing != nil && page-v.Start < modelBackedPages {
		f := m.backRef[page-v.Start]
		f.refs++
		s.pages[page] = refPage{f: f}
		return
	}
	if !write {
		content = 0
	}
	s.pages[page] = refPage{f: m.newFrame(content), private: true}
}

func (m *refModel) read(s *refSpace, page uint64) {
	got, err := s.as.Read(page)
	if _, in := s.vmaFor(page); !in {
		if err == nil {
			m.fail("Read(%d) outside every VMA succeeded", page)
		}
		return
	}
	if err != nil {
		m.fail("Read(%d): %v", page, err)
	}
	if _, ok := s.pages[page]; !ok {
		m.fault(s, page, false, 0)
	}
	if want := s.pages[page].f.content; got != want {
		m.fail("Read(%d) = %#x, want %#x", page, got, want)
	}
}

func (m *refModel) write(s *refSpace, page, content uint64) {
	err := s.as.Write(page, content)
	if _, in := s.vmaFor(page); !in {
		if err == nil {
			m.fail("Write(%d) outside every VMA succeeded", page)
		}
		return
	}
	if err != nil {
		m.fail("Write(%d): %v", page, err)
	}
	rp, ok := s.pages[page]
	switch {
	case !ok:
		m.fault(s, page, true, content)
	case rp.private:
		rp.f.content = content
	default:
		s.stats.CoWFaults++
		m.unref(rp.f)
		s.pages[page] = refPage{f: m.newFrame(content), private: true}
	}
}

// modelPerPage is the per-page charge the model passes to PopulateRange.
const modelPerPage = 7 * simtime.Nanosecond

func (m *refModel) populate(s *refSpace, start, end, salt uint64) {
	before := m.env.Now()
	err := s.as.PopulateRange(start, end, func(p uint64) uint64 { return p*31 + salt }, modelPerPage)
	charged := m.env.Now() - before
	wantPages := 0
	var wantErr bool
	for p := start; p < end; p++ {
		if _, in := s.vmaFor(p); !in {
			wantErr = true
			break
		}
		wantPages++
		c := p*31 + salt
		rp, ok := s.pages[p]
		if ok && rp.private {
			rp.f.content = c
			continue
		}
		if ok {
			m.unref(rp.f)
		}
		s.pages[p] = refPage{f: m.newFrame(c), private: true}
	}
	if want := simtime.Duration(wantPages) * modelPerPage; (err != nil) != wantErr || charged != want {
		m.fail("PopulateRange(%d,%d): err=%v charged %v, want error=%v charged %v", start, end, err, charged, wantErr, want)
	}
}

// touch models Touch as its loop of reads and writes, keeping the clock
// the loop would see: a demand fault charges EPTFault before the page's
// write, whose content is the time then, low bit set, and a CoW fault
// charges CoWFault after it.
func (m *refModel) touch(s *refSpace, start uint64, n, every int) {
	now := m.env.Now()
	err := s.as.Touch(start, n, every)
	var wantErr bool
	for i := 0; i < n; i++ {
		p := start + uint64(i)
		if _, in := s.vmaFor(p); !in {
			wantErr = true
			break
		}
		if _, ok := s.pages[p]; !ok {
			m.fault(s, p, false, 0)
			now += m.env.Cost.EPTFault
		}
		if every <= 0 || i%every != 0 {
			continue
		}
		if rp := s.pages[p]; rp.private {
			rp.f.content = uint64(now) | 1
		} else {
			s.stats.CoWFaults++
			m.unref(rp.f)
			s.pages[p] = refPage{f: m.newFrame(uint64(now) | 1), private: true}
			now += m.env.Cost.CoWFault
		}
	}
	if (err != nil) != wantErr || m.env.Now() != now {
		m.fail("Touch(%d,%d,%d): err=%v clock %v, want error=%v clock %v", start, n, every, err, m.env.Now(), wantErr, now)
	}
}

func (m *refModel) clone(s *refSpace) {
	c := &refSpace{as: s.as.CloneCoW(), vmas: append([]VMA(nil), s.vmas...), pages: map[uint64]refPage{}}
	for p, rp := range s.pages {
		rp.f.refs++
		s.pages[p] = refPage{f: rp.f}
		c.pages[p] = refPage{f: rp.f}
	}
	m.spaces = append(m.spaces, c)
}

func (m *refModel) rebase(s *refSpace, delta uint64) {
	s.as.Rebase(delta)
	pages := make(map[uint64]refPage, len(s.pages))
	for p, rp := range s.pages {
		pages[p+delta] = rp
	}
	s.pages = pages
	for i := range s.vmas {
		s.vmas[i].Start += delta
		s.vmas[i].End += delta
	}
}

func (m *refModel) release(i int) {
	s := m.spaces[i]
	s.as.Release()
	for _, rp := range s.pages {
		m.unref(rp.f)
	}
	m.spaces = append(m.spaces[:i], m.spaces[i+1:]...)
}

// check compares every observable of every live space, and of the frame
// table, with the model.
func (m *refModel) check() {
	m.t.Helper()
	realOf := map[*refFrame]FrameID{}
	modelOf := map[FrameID]*refFrame{}
	for si, s := range m.spaces {
		if got := s.as.Stats(); got != s.stats {
			m.fail("space %d: Stats = %+v, want %+v", si, got, s.stats)
		}
		if got := s.as.MappedPages(); got != len(s.pages) {
			m.fail("space %d: MappedPages = %d, want %d", si, got, len(s.pages))
		}
		if got := s.as.RSS(); got != uint64(len(s.pages))*PageSize {
			m.fail("space %d: RSS = %d, want %d", si, got, len(s.pages)*PageSize)
		}
		pages := make([]uint64, 0, len(s.pages))
		for p := range s.pages {
			pages = append(pages, p)
		}
		sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
		var pss float64
		for _, p := range pages {
			rp := s.pages[p]
			f, ok := s.as.Translate(p)
			if !ok {
				m.fail("space %d: page %d not present", si, p)
			}
			if prev, seen := realOf[rp.f]; seen && prev != f {
				m.fail("space %d: page %d maps frame %d, but the same model frame is %d elsewhere", si, p, f, prev)
			}
			if prev, seen := modelOf[f]; seen && prev != rp.f {
				m.fail("space %d: page %d shares frame %d with a different model frame", si, p, f)
			}
			realOf[rp.f], modelOf[f] = f, rp.f
			if got := m.ft.Content(f); got != rp.f.content {
				m.fail("space %d: page %d content %#x, want %#x", si, p, got, rp.f.content)
			}
			if got := m.ft.Refs(f); got != rp.f.refs {
				m.fail("space %d: page %d frame refs %d, want %d", si, p, got, rp.f.refs)
			}
			pss += float64(PageSize) / float64(rp.f.refs)
		}
		if got := s.as.PSS(); math.Abs(got-pss) > 1e-9*math.Max(1, pss) {
			m.fail("space %d: PSS = %v, want %v", si, got, pss)
		}
		// Pages the model says are absent, at and around every VMA's edges
		// and leaf boundaries, must not translate.
		for _, v := range s.vmas {
			for _, p := range []uint64{v.Start - 1, v.Start, v.Start + 511, v.Start + 512, v.End - 1, v.End} {
				if _, mapped := s.pages[p]; mapped {
					continue
				}
				if f, ok := s.as.Translate(p); ok {
					m.fail("space %d: unmapped page %d translates to frame %d", si, p, f)
				}
			}
		}
	}
	for i, rf := range m.backRef {
		if got := m.ft.Refs(m.back.frames[i]); got != rf.refs {
			m.fail("backing page %d refs = %d, want %d", i, got, rf.refs)
		}
	}
	if got := m.ft.Live(); got != m.live {
		m.fail("Live = %d, want %d", got, m.live)
	}
	if len(m.ft.spare) > len(m.ft.leaves) {
		m.fail("%d spare leaves, more than the %d live ones", len(m.ft.spare), len(m.ft.leaves))
	}
}

// pick chooses a page of s, biased to VMA edges and the pages on either
// side of a leaf boundary; one pick in ten may fall outside every VMA.
func (m *refModel) pick(r *rand.Rand, s *refSpace) uint64 {
	if len(s.vmas) == 0 || r.Intn(10) == 0 {
		return uint64(r.Intn(4 * modelHeapEnd))
	}
	v := s.vmas[r.Intn(len(s.vmas))]
	offsets := []uint64{0, 1, 510, 511, 512, 513, 1023, 1024, 1029, 1030, v.Pages() - 1}
	var off uint64
	if r.Intn(2) == 0 {
		off = offsets[r.Intn(len(offsets))]
	} else {
		off = uint64(r.Int63n(int64(v.Pages())))
	}
	if off >= v.Pages() {
		off = v.Pages() - 1
	}
	return v.Start + off
}

func TestAddressSpaceMatchesReferenceModel(t *testing.T) {
	const seeds, steps = 24, 250
	for seed := int64(1); seed <= seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := newRefModel(t)
		m.newSpace()
		m.check()
		for step := 0; step < steps; step++ {
			if len(m.spaces) == 0 {
				m.newSpace()
			}
			i := r.Intn(len(m.spaces))
			s := m.spaces[i]
			switch op := r.Intn(110); {
			case op < 25:
				p := m.pick(r, s)
				m.trace = append(m.trace, fmt.Sprintf("seed %d step %d: space %d Read(%d)", seed, step, i, p))
				m.read(s, p)
			case op < 50:
				p, c := m.pick(r, s), r.Uint64()
				m.trace = append(m.trace, fmt.Sprintf("seed %d step %d: space %d Write(%d)", seed, step, i, p))
				m.write(s, p, c)
			case op < 60:
				start := m.pick(r, s)
				end := start + 1 + uint64(r.Intn(600))
				m.trace = append(m.trace, fmt.Sprintf("seed %d step %d: space %d PopulateRange(%d,%d)", seed, step, i, start, end))
				m.populate(s, start, end, uint64(step))
			case op < 72:
				if len(m.spaces) >= 6 {
					continue
				}
				m.trace = append(m.trace, fmt.Sprintf("seed %d step %d: space %d CloneCoW", seed, step, i))
				m.clone(s)
			case op < 80:
				delta := uint64(r.Intn(2048))
				m.trace = append(m.trace, fmt.Sprintf("seed %d step %d: space %d Rebase(%d)", seed, step, i, delta))
				m.rebase(s, delta)
			case op < 87:
				m.trace = append(m.trace, fmt.Sprintf("seed %d step %d: space %d Release", seed, step, i))
				m.release(i)
			case op < 93:
				start := uint64(r.Intn(4 * modelHeapEnd))
				v := VMA{Name: "extra", Start: start, End: start + uint64(r.Intn(700))}
				m.trace = append(m.trace, fmt.Sprintf("seed %d step %d: space %d Map[%d,%d)", seed, step, i, v.Start, v.End))
				m.mapVMA(s, v)
			case op < 100:
				if len(m.spaces) >= 6 {
					continue
				}
				m.trace = append(m.trace, fmt.Sprintf("seed %d step %d: new space", seed, step))
				m.newSpace()
			default:
				start, n, every := m.pick(r, s), 1+r.Intn(700), r.Intn(6)
				m.trace = append(m.trace, fmt.Sprintf("seed %d step %d: space %d Touch(%d,%d,%d)", seed, step, i, start, n, every))
				m.touch(s, start, n, every)
			}
			m.check()
		}
		for len(m.spaces) > 0 {
			m.release(len(m.spaces) - 1)
			m.check()
		}
		if got := m.ft.Live(); got != modelBackedPages {
			t.Fatalf("seed %d: Live = %d after releasing every space, want the %d backing frames", seed, got, modelBackedPages)
		}
	}
}

// byteSource is a rand.Source that replays fuzz input, eight bytes per
// draw; drained reports when the input is used up.
type byteSource struct{ data []byte }

func (s *byteSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *byteSource) Uint64() uint64 {
	var b [8]byte
	n := copy(b[:], s.data)
	s.data = s.data[n:]
	return binary.LittleEndian.Uint64(b[:])
}

func (s *byteSource) Seed(int64) {}

func (s *byteSource) drained() bool { return len(s.data) == 0 }

// FuzzAddressSpaceModel drives the reference model with operations
// decoded from the fuzz input instead of a seeded generator. The seed
// corpus is the generator output of the reference-model test's seeds.
func FuzzAddressSpaceModel(f *testing.F) {
	for seed := int64(1); seed <= 24; seed++ {
		data := make([]byte, 1024)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSource{data: data}
		r := rand.New(src)
		m := newRefModel(t)
		m.newSpace()
		for step := 0; step < 250 && !src.drained(); step++ {
			if len(m.spaces) == 0 {
				m.newSpace()
			}
			i := r.Intn(len(m.spaces))
			s := m.spaces[i]
			switch op := r.Intn(9); op {
			case 0:
				p := m.pick(r, s)
				m.trace = append(m.trace, fmt.Sprintf("step %d: space %d Read(%d)", step, i, p))
				m.read(s, p)
			case 1:
				p, c := m.pick(r, s), r.Uint64()
				m.trace = append(m.trace, fmt.Sprintf("step %d: space %d Write(%d)", step, i, p))
				m.write(s, p, c)
			case 2:
				start := m.pick(r, s)
				end := start + 1 + uint64(r.Intn(600))
				m.trace = append(m.trace, fmt.Sprintf("step %d: space %d PopulateRange(%d,%d)", step, i, start, end))
				m.populate(s, start, end, uint64(step))
			case 3, 4:
				if len(m.spaces) >= 6 {
					continue
				}
				if op == 3 {
					m.trace = append(m.trace, fmt.Sprintf("step %d: space %d CloneCoW", step, i))
					m.clone(s)
				} else {
					m.trace = append(m.trace, fmt.Sprintf("step %d: new space", step))
					m.newSpace()
				}
			case 5:
				delta := uint64(r.Intn(2048))
				m.trace = append(m.trace, fmt.Sprintf("step %d: space %d Rebase(%d)", step, i, delta))
				m.rebase(s, delta)
			case 6:
				m.trace = append(m.trace, fmt.Sprintf("step %d: space %d Release", step, i))
				m.release(i)
			case 7:
				start := uint64(r.Intn(4 * modelHeapEnd))
				v := VMA{Name: "extra", Start: start, End: start + uint64(r.Intn(700))}
				m.trace = append(m.trace, fmt.Sprintf("step %d: space %d Map[%d,%d)", step, i, v.Start, v.End))
				m.mapVMA(s, v)
			case 8:
				start, n, every := m.pick(r, s), 1+r.Intn(700), r.Intn(6)
				m.trace = append(m.trace, fmt.Sprintf("step %d: space %d Touch(%d,%d,%d)", step, i, start, n, every))
				m.touch(s, start, n, every)
			}
			m.check()
		}
		for len(m.spaces) > 0 {
			m.release(len(m.spaces) - 1)
			m.check()
		}
		if got := m.ft.Live(); got != modelBackedPages {
			t.Fatalf("Live = %d after releasing every space, want the %d backing frames", got, modelBackedPages)
		}
	})
}
