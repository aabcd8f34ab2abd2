package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Spans of one request share Req; Parent is the
// span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced run: every method is a no-op, so the measured code paths
// are the same with tracing on and off.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// open starts a span and returns its handle; close it with end.
func (r *recorder) open(name, req string, parent int64) *openSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: time.Since(r.epoch).Nanoseconds()})
	r.mu.Unlock()
	return &openSpan{r: r, id: id}
}

// openSpan is a started span. A nil *openSpan (untraced run) has ID 0.
type openSpan struct {
	r  *recorder
	id int64
}

// ID is the span's identifier, for children to name as their parent.
func (o *openSpan) ID() int64 {
	if o == nil {
		return 0
	}
	return o.id
}

// end closes the span now.
func (o *openSpan) end() {
	if o == nil {
		return
	}
	now := time.Since(o.r.epoch).Nanoseconds()
	o.r.mu.Lock()
	o.r.spans[o.id-1].End = now
	o.r.mu.Unlock()
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// spanTime is the share of a traced run spent in spans of one name;
// the name's first part is the layer.
type spanTime struct {
	Name   string  `json:"name"`
	SelfMS float64 `json:"self_ms"`
	Spans  int     `json:"spans"`
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval its children cover, in order of first appearance.
func selfTimes(spans []span) []spanTime {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*spanTime)
	var order []string
	for _, s := range spans {
		st, ok := byName[s.Name]
		if !ok {
			st = &spanTime{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		st.SelfMS += float64(s.End-s.Start-covered(s, children[s.ID])) / 1e6
		st.Spans++
	}
	out := make([]spanTime, len(order))
	for i, name := range order {
		out[i] = *byName[name]
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, v := range iv {
		if i == 0 || v[0] > curB {
			total += curB - curA
			curA, curB = v[0], v[1]
			continue
		}
		curB = max(curB, v[1])
	}
	return total + curB - curA
}

// workloadSpans is one traced workload's spans.
type workloadSpans struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}

// writeSpans writes every traced workload's spans as one JSON document.
func writeSpans(path string, sets []workloadSpans) error {
	data, err := json.Marshal(struct {
		Workloads []workloadSpans `json:"workloads"`
	}{sets})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
