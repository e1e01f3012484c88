// Command perfbench is the repository benchmark. It drives one workload
// through the public mobiceal API for a fixed time, checks every output,
// and prints its metrics as one JSON object on the last line of standard
// output:
//
//	perfbench --workload seq_fresh --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// the workload twice in one process, untraced and then traced, and reports
// the per-layer metrics of the traced phase plus the tracing overhead.
// Every client is a closed loop: it sends its next request only after the
// previous one completed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"mobiceal"
	"mobiceal/internal/prng"
)

// A run sets the system up setupWarm times untimed, so that the process
// has grown its heap and its CPU has left idle, then setupReps times
// timed; setup_s is the median, and the last system set up is the one the
// workload runs on.
const (
	setupWarm = 5
	setupReps = 9
)

// opKind classifies a user request.
type opKind int

const (
	opWrite opKind = iota
	opRead
	opFlush
	opTrim
)

// client is one closed-loop client's private state and tallies; it is
// touched only by its own goroutine until the phase ends.
type client struct {
	id     int
	rng    *rand.Rand
	r      *runner
	lat    [opTrim]latency // write, read and flush latencies
	ops    uint64
	failed uint64

	writeBytes, readBytes uint64
	flushes               uint64
	mismatches            uint64
	spaceAmp              []float64

	gcTime      time.Duration
	gcRuns      uint64
	gcReclaimed uint64

	// Traced phase only.
	reqSeq    uint64
	iterID    uint64
	iterStart time.Time
	kids      []span // request spans of the current iteration
	spanStats map[string]*spanStat
	spans     []span
	stream    []ioReq
}

// done accounts one finished request started at t0 and reports whether it
// succeeded. Failures count against fail_ratio and add no latency sample.
func (c *client) done(k opKind, t0 time.Time, bytes int, err error, parent uint64) bool {
	t1 := time.Now()
	if c.r.tracing {
		c.span(opSpanName(c.r.spec, k), parent, t0, t1)
	}
	if err != nil {
		c.failed++
		if c.failed <= 3 {
			fmt.Fprintf(os.Stderr, "perfbench: client %d: %v\n", c.id, err)
		}
		return false
	}
	c.ops++
	if k < opTrim {
		c.lat[k].add(t1.Sub(t0))
	}
	switch k {
	case opWrite:
		c.writeBytes += uint64(bytes)
	case opRead:
		c.readBytes += uint64(bytes)
	case opFlush:
		c.flushes++
		c.sampleSpace()
	}
	return true
}

// sampleBytes is the memory the client's own sample logs hold, which
// heap_peak_MB leaves out: the system under test does not own it, and
// slices growing by doubling would make it jump from run to run.
func (c *client) sampleBytes() uint64 {
	n := cap(c.spaceAmp)
	for k := range c.lat {
		n += cap(c.lat[k].ms)
	}
	return uint64(n) * 8
}

// mismatch records a read whose content differs from what was last written.
func (c *client) mismatch(what string, bad int) {
	c.mismatches += uint64(bad)
	if c.mismatches <= 3 {
		fmt.Fprintf(os.Stderr, "perfbench: client %d: %s: %d blocks differ from the last write\n", c.id, what, bad)
	}
}

// sampleSpace records pool allocated blocks per live user block.
func (c *client) sampleSpace() {
	if live := c.r.env.live(); live > 0 {
		c.spaceAmp = append(c.spaceAmp, float64(c.r.env.base().sys.Pool().AllocatedBlocks())/float64(live))
	}
}

// gc runs one dummy-space garbage collection with the hidden volume
// protected, as part of request req.
func (c *client) gc(req uint64) {
	s := c.r.env.base()
	t0 := time.Now()
	rep, err := s.sys.GC([]int{s.hid.ID()}, c.r.gcSrc)
	t1 := time.Now()
	if c.r.tracing {
		c.span("core.gc", req, t0, t1)
	}
	if err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: gc: %v\n", err)
		return
	}
	c.gcTime += t1.Sub(t0)
	c.gcRuns++
	c.gcReclaimed += rep.Reclaimed
}

// spec describes one workload.
type spec struct {
	name    string
	why     string
	backend string
	clients int
	// depth is each client's requests in flight; volumes is how many
	// volumes (and so scheduler queues) the clients spread over. Both
	// shape the dm-crypt replay ladder like the workload itself.
	depth, volumes int
	deviceBytes    uint64
	workingSet     uint64
	fs             bool
	// open sets the workload's system up, with any image file in dir,
	// and returns it with the time the set-up took.
	open func(sp *spec, seed uint64, dir string) (env, time.Duration, error)
}

// env is a workload's running state.
type env interface {
	base() *system
	warm(r *runner) error
	client(c *client)
	live() uint64
	// check runs the end-of-run correctness checks: pool and file-system
	// integrity, then close, reopen, and verify the live set.
	check(r *runner) error
	close()
}

// runner executes one benchmark run.
type runner struct {
	spec     *spec
	seed     uint64
	dur      time.Duration
	env      env
	gcSrc    *prng.Source
	deadline time.Time
	tracing  bool
	epoch    time.Time
}

// newClient returns client id with a generator seeded from the run seed
// and salt.
func (r *runner) newClient(id int, salt uint64) *client {
	return &client{id: id, r: r, rng: rand.New(rand.NewPCG(r.seed, salt))}
}

func (r *runner) expired() bool { return !time.Now().Before(r.deadline) }

// phase is what one timed phase measured.
type phase struct {
	elapsed    time.Duration
	clients    []*client
	lat        [opTrim]latency
	ops        uint64
	attempted  uint64
	failed     uint64
	mismatches uint64
	writeBytes uint64
	readBytes  uint64
	flushes    uint64
	spaceAmp   []float64
	heapPeak   uint64
	before     snapshot
	after      snapshot
	events     []mobiceal.FlightEvent
	dropped    int
}

// runPhase runs every client for r.dur and merges their tallies.
func (r *runner) runPhase(traced bool) *phase {
	p := &phase{clients: make([]*client, r.spec.clients)}
	for i := range p.clients {
		salt := uint64(i)
		if traced {
			salt += 100
		}
		p.clients[i] = r.newClient(i, salt)
	}
	r.tracing = traced
	runtime.GC()
	p.before = takeSnapshot(r.env)
	var drain *flightDrain
	if traced {
		drain = startFlightDrain(r.env.base().sys.FlightRecorder())
	}
	start := time.Now()
	r.deadline = start.Add(r.dur)
	var wg sync.WaitGroup
	for _, c := range p.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			r.env.client(c)
		}(c)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	for _, c := range p.clients {
		c.endReq()
	}
	if drain != nil {
		p.events, p.dropped = drain.stop()
	}
	p.heapPeak = retainedHeap()
	for _, c := range p.clients {
		p.heapPeak -= c.sampleBytes()
	}
	p.after = takeSnapshot(r.env)
	r.tracing = false
	for _, c := range p.clients {
		for k := range p.lat {
			p.lat[k].merge(&c.lat[k])
		}
		p.ops += c.ops
		p.failed += c.failed
		p.mismatches += c.mismatches
		p.writeBytes += c.writeBytes
		p.readBytes += c.readBytes
		p.flushes += c.flushes
		p.spaceAmp = append(p.spaceAmp, c.spaceAmp...)
	}
	p.attempted = p.ops + p.failed
	return p
}

func (p *phase) opsPerSec() float64 { return ratio(float64(p.ops), p.elapsed.Seconds()) }

// endToEnd computes the end-to-end metrics of an untraced phase.
func endToEnd(p *phase, setupS float64) (metricSet, map[string]summary) {
	m := metricSet{}
	sec := p.elapsed.Seconds()
	m.set("setup_s", setupS, "s")
	m.set("ops_per_s", p.opsPerSec(), "1/s")
	m.set("write_MBps", ratio(float64(p.writeBytes)/1e6, sec), "MB/s")
	m.set("read_MBps", ratio(float64(p.readBytes)/1e6, sec), "MB/s")
	sums := map[string]summary{}
	for k, name := range []string{"write", "read", "flush"} {
		s := p.lat[k].summary()
		sums[name] = s
		m.set(name+"_p50_ms", s.P50, "ms")
	}
	tb, ta := p.before.tel, p.after.tel
	devWritten := float64(ta.Data.BytesWrite - tb.Data.BytesWrite + ta.Meta.BytesWrite - tb.Meta.BytesWrite)
	m.set("write_amp", ratio(devWritten, float64(p.writeBytes)), "ratio")
	m.set("space_amp", median(p.spaceAmp), "ratio")
	m.set("heap_peak_MB", float64(p.heapPeak)/1e6, "MB")
	return m, sums
}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted uint64    `json:"attempted"`
	Failed    uint64    `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced phase and reports per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for the image file and the span log")
	flag.Parse()
	sp := specByName(*workload)
	if sp == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(sp *spec, seed uint64, dur time.Duration, traced bool, out string) (*result, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	r := &runner{spec: sp, seed: seed, dur: dur, gcSrc: prng.NewSource(seed ^ 0x6763), epoch: time.Now()}

	var setups []float64
	for i := 0; i < setupWarm+setupReps; i++ {
		runtime.GC() // start each set-up from the same heap, without the last one's garbage
		e, d, err := sp.open(sp, seed, out)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if i >= setupWarm {
			setups = append(setups, d.Seconds())
		}
		if i < setupWarm+setupReps-1 {
			e.close()
		} else {
			r.env = e
		}
	}
	defer r.env.close()
	setupS := median(setups)

	if err := r.env.warm(r); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	plain := r.runPhase(false)
	e2e, sums := endToEnd(plain, setupS)
	res := &result{Attempted: plain.attempted, Failed: plain.failed, Metrics: e2e}
	var tracedPhase *phase
	var lad ladder
	if traced {
		tracedPhase = r.runPhase(true)
		res.Attempted += tracedPhase.attempted
		res.Failed += tracedPhase.failed
		var err error
		if lad, err = runLadder(r, tracedPhase); err != nil {
			return nil, fmt.Errorf("dm-crypt ladder: %w", err)
		}
	}

	var problems []string
	if n := plain.mismatches; n > 0 {
		problems = append(problems, fmt.Sprintf("%d blocks read back differ from the last write", n))
	}
	if tracedPhase != nil && tracedPhase.mismatches > 0 {
		problems = append(problems, fmt.Sprintf("%d blocks read back differ in the traced phase", tracedPhase.mismatches))
	}
	band := checkDummyBand(r.env.base())
	if band.err != nil {
		problems = append(problems, band.err.Error())
	}
	if err := r.env.check(r); err != nil {
		problems = append(problems, "end-of-run check: "+err.Error())
	}
	res.Correct = len(problems) == 0
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: %s\n", p)
	}

	printRecord(sp, seed, dur, out, setups, sums, plain, band)
	if traced {
		lm, table := perLayer(sp, plain, tracedPhase, lad, band)
		res.Metrics = lm
		printTable("per-layer", lm)
		fmt.Print(table)
		if err := writeSpans(out, sp.name, seed, tracedPhase); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	} else {
		printTable("end-to-end", res.Metrics)
	}
	return res, nil
}

// printTable prints metrics as a human-readable table, sorted by name.
func printTable(title string, m metricSet) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s metrics:\n", title)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
