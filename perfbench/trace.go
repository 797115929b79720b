package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval. Times are nanoseconds since the tracer
// started; parent is the index of the enclosing span (-1 at the root)
// and exec the execution the span belongs to (0 outside executions).
type span struct {
	start, end int64
	parent     int32
	exec       int32
	name       uint16
}

// tracer keeps every span of a traced run in memory. It is used from one
// goroutine only: spans nest strictly, so the open spans form a stack.
type tracer struct {
	t0      time.Time
	names   []string
	nameIdx map[string]uint16
	spans   []span
	stack   []int32
	exec    int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), nameIdx: map[string]uint16{}}
}

// id returns the interned index of a span name.
func (t *tracer) id(name string) uint16 {
	if i, ok := t.nameIdx[name]; ok {
		return i
	}
	i := uint16(len(t.names))
	t.names = append(t.names, name)
	t.nameIdx[name] = i
	return i
}

// beginExec opens the root span of a new execution.
func (t *tracer) beginExec(name uint16) int32 {
	t.exec++
	return t.begin(name)
}

func (t *tracer) begin(name uint16) int32 {
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{start: int64(time.Since(t.t0)), parent: parent, exec: t.exec, name: name})
	t.stack = append(t.stack, idx)
	return idx
}

func (t *tracer) end(idx int32) {
	t.spans[idx].end = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

// layerStats aggregates the spans of one name.
type layerStats struct {
	count int
	total int64   // summed duration, ns
	self  int64   // summed self time (duration minus child spans), ns
	durs  []int64 // every duration, ns
}

// aggregate folds the spans by name. Self time subtracts, from each
// span, the durations of its direct children.
func (t *tracer) aggregate() map[string]*layerStats {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*layerStats{}
	for i, s := range t.spans {
		name := t.names[s.name]
		ls := out[name]
		if ls == nil {
			ls = &layerStats{}
			out[name] = ls
		}
		d := s.end - s.start
		ls.count++
		ls.total += d
		ls.self += d - child[i]
		ls.durs = append(ls.durs, d)
	}
	for _, ls := range out {
		sort.Slice(ls.durs, func(i, j int) bool { return ls.durs[i] < ls.durs[j] })
	}
	return out
}

// write stores the spans as gzipped tab-separated lines: name, start,
// end, parent, execution id.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "name\tstart_ns\tend_ns\tparent\texec")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", t.names[s.name], s.start, s.end, s.parent, s.exec)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
