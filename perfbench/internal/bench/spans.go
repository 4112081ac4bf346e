package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Spans of one request
// or one simulated slice share Trace; Parent is the span that caused it
// (0 for a root).
type Span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Trace   uint64 `json:"trace"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Spans keeps spans in memory, up to a bound, and writes them when the
// run ends. A nil *Spans records nothing, which is how the untraced run
// calls the same code.
type Spans struct {
	mu      sync.Mutex
	t0      time.Time
	max     int
	next    uint64
	kept    []Span
	dropped int
}

// NewSpans returns a recorder keeping at most max spans.
func NewSpans(max int) *Spans {
	return &Spans{t0: time.Now(), max: max, kept: make([]Span, 0, max)}
}

// Record stores a span and returns its ID (0 when s is nil or full, so
// children of a dropped span become roots).
func (s *Spans) Record(name string, trace, parent uint64, start, end time.Time) uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.kept) >= s.max {
		s.dropped++
		return 0
	}
	s.next++
	s.kept = append(s.kept, Span{
		ID: s.next, Parent: parent, Trace: trace, Name: name,
		StartNs: start.Sub(s.t0).Nanoseconds(), EndNs: end.Sub(s.t0).Nanoseconds(),
	})
	return s.next
}

// NewTrace returns a fresh trace identifier.
func (s *Spans) NewTrace() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.next++
	return s.next
}

// SelfNs returns, per span name, the summed self time of the kept spans:
// each span's duration minus the part of it its children cover.
func (s *Spans) SelfNs() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	children := map[uint64][]int{}
	for i, sp := range s.kept {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	self := map[string]int64{}
	for _, sp := range s.kept {
		covered := int64(0)
		// Children of one parent are sequential calls, so their
		// intervals do not overlap and their clipped lengths add.
		for _, c := range children[sp.ID] {
			lo, hi := s.kept[c].StartNs, s.kept[c].EndNs
			if lo < sp.StartNs {
				lo = sp.StartNs
			}
			if hi > sp.EndNs {
				hi = sp.EndNs
			}
			if hi > lo {
				covered += hi - lo
			}
		}
		self[sp.Name] += sp.EndNs - sp.StartNs - covered
	}
	return self
}

// Write stores the kept spans as JSON lines in path, creating its
// directory.
func (s *Spans) Write(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range s.kept {
		if err := enc.Encode(&s.kept[i]); err != nil {
			f.Close()
			return err
		}
	}
	if s.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped\":%d}\n", s.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Len returns how many spans are kept.
func (s *Spans) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.kept)
}
