package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"mobiceal"
	"mobiceal/internal/minifs"
	"mobiceal/internal/obs"
)

// The traced phase builds per-layer numbers from three sources, none of
// which adds code to the program: spans the benchmark records around its
// own calls, deltas of the counters and histograms the program already
// exposes, and the program's flight recorder.

// span is one timed call, in the usual shape: spans of one client
// iteration share Req, and each op span's Parent is the iteration span.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"`
	Req    uint64        `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the run started
	End    time.Duration `json:"end_ns"`
}

// maxSpansPerClient bounds the span log written out; spans past it are
// counted in the per-layer times but not logged.
const maxSpansPerClient = 100000

// spanStat is what the spans of one name add up to.
type spanStat struct {
	total, self time.Duration
	count       int
}

// span records a request span under the current iteration.
func (c *client) span(name string, parent uint64, t0, t1 time.Time) {
	c.reqSeq++
	c.kids = append(c.kids, span{
		ID: uint64(c.id+1)<<40 | c.reqSeq, Parent: parent, Req: parent,
		Name: name, Start: t0.Sub(c.r.epoch), End: t1.Sub(c.r.epoch),
	})
}

// nextReq ends the client's current iteration span and starts the next
// one, returning its id; request spans are its children.
func (c *client) nextReq() uint64 {
	if !c.r.tracing {
		return 0
	}
	c.endReq()
	c.reqSeq++
	c.iterID = uint64(c.id+1)<<40 | c.reqSeq
	c.iterStart = time.Now()
	return c.iterID
}

// endReq closes the current iteration span: it adds the iteration and its
// request spans to the per-name times and to the span log. A span's self
// time is its duration minus the part its children cover; requests can
// overlap when a client keeps several in flight, so the covered part is the
// union of their intervals.
func (c *client) endReq() {
	if c.iterID == 0 {
		return
	}
	root := span{
		ID: c.iterID, Req: c.iterID, Name: "client.iter",
		Start: c.iterStart.Sub(c.r.epoch), End: time.Since(c.r.epoch),
	}
	if c.spanStats == nil {
		c.spanStats = map[string]*spanStat{}
	}
	add := func(s span, self time.Duration) {
		st := c.spanStats[s.Name]
		if st == nil {
			st = &spanStat{}
			c.spanStats[s.Name] = st
		}
		st.total += s.End - s.Start
		st.self += self
		st.count++
		if len(c.spans) < maxSpansPerClient {
			c.spans = append(c.spans, s)
		}
	}
	for _, k := range c.kids {
		add(k, k.End-k.Start)
	}
	add(root, root.End-root.Start-covered(c.kids))
	c.kids = c.kids[:0]
	c.iterID = 0
}

// ioReq is one read or write of the workload's request stream, kept for
// the dm-crypt replay ladder.
type ioReq struct {
	write bool
	start uint64
	n     int
}

// maxStream bounds the recorded request stream.
const maxStream = 1 << 20

func (c *client) record(write bool, start uint64, n int) {
	if c.r.tracing && len(c.stream) < maxStream {
		c.stream = append(c.stream, ioReq{write: write, start: start, n: n})
	}
}

// snapshot is every counter source read at one instant.
type snapshot struct {
	tel                  mobiceal.Telemetry
	dummy                uint64
	fs                   []minifs.FSSnapshot
	allocBytes, gcCycles uint64
	gcPauseNS            uint64
}

func takeSnapshot(e env) snapshot {
	s := e.base()
	sn := snapshot{tel: s.sys.Telemetry(), dummy: s.sys.Pool().DummyBlocksWritten()}
	if w, ok := e.(*fsFiles); ok {
		for _, fs := range w.fss {
			sn.fs = append(sn.fs, fs.MetricsSnapshot())
		}
	}
	rs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(rs)
	sn.allocBytes = rs[0].Value.Uint64()
	sn.gcCycles = rs[1].Value.Uint64()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sn.gcPauseNS = ms.PauseTotalNs
	return sn
}

// retainedHeap collects garbage and returns the live Go heap. At the end
// of a timed phase this is the phase's peak: what the workloads keep (the
// memory device's blocks, the pool's maps, the sample logs) only grows
// while a phase runs.
func retainedHeap() uint64 {
	// Twice: objects a sync.Pool held survive the first collection in its
	// victim cache, and how many there are depends on the last moment's
	// concurrency.
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// flightDrain empties the flight recorder well before its ring can wrap.
// Recording pauses while a drain copies the ring, so requests crossing a
// drain may miss events; the analysis counts only complete intervals.
type flightDrain struct {
	fr       *mobiceal.FlightRecorder
	done     chan struct{}
	wg       sync.WaitGroup
	events   []mobiceal.FlightEvent
	nearFull int
}

const (
	drainEvery = 10 * time.Millisecond
	maxEvents  = 400000
)

func startFlightDrain(fr *mobiceal.FlightRecorder) *flightDrain {
	d := &flightDrain{fr: fr, done: make(chan struct{})}
	fr.Reset()
	fr.SetEnabled(true)
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		t := time.NewTicker(drainEvery)
		defer t.Stop()
		for {
			select {
			case <-d.done:
				d.take()
				return
			case <-t.C:
				d.take()
				if len(d.events) < maxEvents {
					fr.SetEnabled(true)
				}
			}
		}
	}()
	return d
}

func (d *flightDrain) take() {
	d.fr.SetEnabled(false)
	evs := d.fr.Events()
	d.fr.Reset()
	if len(evs) >= d.fr.Capacity()*3/4 {
		d.nearFull++ // the ring may have wrapped within one drain period
	}
	room := maxEvents - len(d.events)
	if room < len(evs) {
		evs = evs[:max(room, 0)]
	}
	d.events = append(d.events, evs...)
}

// stop ends recording and returns the events and how many drains found
// the ring nearly full.
func (d *flightDrain) stop() ([]mobiceal.FlightEvent, int) {
	close(d.done)
	d.wg.Wait()
	return d.events, d.nearFull
}

// histDelta is the part of histogram a recorded after b.
func histDelta(a, b obs.HistSnapshot) obs.HistSnapshot {
	d := obs.HistSnapshot{Count: a.Count - b.Count, SumNS: a.SumNS - b.SumNS}
	for i := range d.Buckets {
		d.Buckets[i] = a.Buckets[i] - b.Buckets[i]
	}
	return d
}

// band is the deniability guard: dummy blocks per public provision must
// stay where Config.X and Config.Lambda put them.
type band struct {
	decisions    uint64
	policyRate   float64 // dummy blocks the policy asked for per public provision
	poolRate     float64 // dummy blocks the pool wrote per public provision
	lo, expected float64
	hi           float64
	err          error
}

// checkDummyBand compares the dummy rate since Setup, as the policy asked
// for it and as the pool wrote it, with the band dummyBand derives from the
// policy's parameters.
func checkDummyBand(s *system) band {
	cfg := s.sys.Config()
	dec, _, blocks := s.sys.Policy().Stats()
	b := band{decisions: dec}
	if dec == 0 {
		b.err = fmt.Errorf("deniability guard: no public provisions to measure")
		return b
	}
	b.policyRate = float64(blocks) / float64(dec)
	b.poolRate = float64(s.sys.Pool().DummyBlocksWritten()) / float64(dec)
	refresh := cfg.PolicyRefreshEvery
	if refresh == 0 {
		refresh = 256 // core's default
	}
	b.expected, b.lo, b.hi = dummyBand(float64(cfg.X), cfg.Lambda, refresh, dec)
	for _, r := range []struct {
		name string
		v    float64
	}{{"policy", b.policyRate}, {"pool", b.poolRate}} {
		if r.v < b.lo || r.v > b.hi {
			b.err = fmt.Errorf("deniability guard: %s dummy blocks per public provision %.4f outside [%.4f, %.4f] over %d provisions",
				r.name, r.v, b.lo, b.hi, dec)
		}
	}
	return b
}

// dummyBand returns the expected dummy blocks per public provision and the
// band a run of decisions provisions must fall in. The policy fires with
// probability t/(2x) for a threshold t uniform on [0, x) that is redrawn
// every refresh decisions, and then writes round(Exp(lambda)) blocks; the
// band is five standard deviations of the mean rate, and no narrower than
// 0.02 either side.
func dummyBand(x, lambda float64, refresh int, decisions uint64) (expected, lo, hi float64) {
	var m1, m2 float64 // first two moments of round(Exp(lambda))
	for k := 1.0; k < 200; k++ {
		p := math.Exp(-lambda*(k-0.5)) - math.Exp(-lambda*(k+0.5))
		m1 += k * p
		m2 += k * k * p
	}
	fire := (x - 1) / (4 * x)
	expected = fire * m1
	windows := math.Max(1, float64(decisions)/float64(refresh))
	varWindow := (x*x - 1) / 12 / (4 * x * x) * m1 * m1
	sd := math.Sqrt(varWindow/windows + fire*m2/float64(decisions))
	half := math.Max(5*sd, 0.02)
	return expected, expected - half, expected + half
}

// writeSpans writes the traced phase's spans as JSON lines.
func writeSpans(dir, workload string, seed uint64, p *phase) error {
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, c := range p.clients {
		for _, s := range c.spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans written to %s\n", path)
	return nil
}

// spanTimes merges the clients' per-name span times.
func spanTimes(p *phase) map[string]spanStat {
	out := map[string]spanStat{}
	for _, c := range p.clients {
		for name, st := range c.spanStats {
			o := out[name]
			o.total += st.total
			o.self += st.self
			o.count += st.count
			out[name] = o
		}
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(spans []span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var sum, end time.Duration
	for i, s := range spans {
		start := s.Start
		if i > 0 && start < end {
			start = end
		}
		if s.End > start {
			sum += s.End - start
			end = s.End
		}
	}
	return sum
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	layer  string
	self   float64
	wait   float64
	work   string
	source string
}

func formatTable(title string, rows []layerRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n  %-8s %10s %10s  %-30s %s\n", title, "layer", "self_s", "wait_s", "work", "source")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s %10.4f %10.4f  %-30s %s\n", r.layer, r.self, r.wait, r.work, r.source)
	}
	return b.String()
}
