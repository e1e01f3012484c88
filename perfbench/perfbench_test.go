package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n, pct int
		want   float64
		ok     bool
	}{
		{0, 50, 0, false},
		{19, 50, 10, false}, // 9 samples beyond the median
		{20, 50, 10, true},  // 10 beyond
		{999, 99, 990, false},
		{1000, 99, 990, true},
		{5000, 99, 4950, true},
	}
	for _, c := range cases {
		got, ok := percentile(sorted(c.n), c.pct)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p%d) = %v, %v; want %v, %v", c.n, c.pct, got, ok, c.want, c.ok)
		}
	}
	for n, want := range map[int]int{5: 50, 20: 50, 21: 52, 100: 90, 500: 98, 999: 98, 1000: 99, 100000: 99} {
		pct := tailPct(n)
		if pct != want {
			t.Errorf("tailPct(%d) = %d, want %d", n, pct, want)
		}
		if n >= 2*minTail && !supported(n, pct) {
			t.Errorf("tailPct(%d) = p%d is not supported", n, pct)
		}
	}
}

func TestSummaryCarriesSampleCount(t *testing.T) {
	var l latency
	for i := 0; i < 1500; i++ {
		l.add(time.Duration(1500-i) * time.Millisecond)
	}
	s := l.summary()
	if s.N != 1500 || !s.P50OK || s.TailPct != 99 || s.P50 != 750 || s.Tail != 1485 {
		t.Fatalf("summary = %+v, want N=1500, p50 750, p99 1485", s)
	}
	var small latency
	for i := 1; i <= 100; i++ {
		small.add(time.Duration(i) * time.Millisecond)
	}
	if s := small.summary(); s.N != 100 || s.TailPct != 90 || s.Tail != 90 {
		t.Fatalf("summary of 100 = %+v, want the p90 as its tail", s)
	}
}

func TestVerifierRejectsCorruptBlock(t *testing.T) {
	const seed = 42
	run := make([]byte, 3*blockSize)
	gens := []uint32{1, 7, 3}
	fillRun(run, seed, 100, gens)
	if bad := checkRun(run, seed, 100, gens); bad != 0 {
		t.Fatalf("intact run: %d bad blocks", bad)
	}
	if !checkBlock(run[blockSize:], seed, 101, 7) {
		t.Fatal("intact block rejected")
	}
	if checkBlock(run[blockSize:], seed, 101, 6) {
		t.Fatal("block accepted against an older generation")
	}
	if checkBlock(run[blockSize:], seed, 102, 7) {
		t.Fatal("block accepted at another address")
	}
	if checkBlock(run[blockSize:], seed+1, 101, 7) {
		t.Fatal("block accepted under another seed")
	}
	run[blockSize+blockSize/2] ^= 0x10
	if checkBlock(run[blockSize:], seed, 101, 7) {
		t.Fatal("corrupted block accepted")
	}
	if bad := checkRun(run, seed, 100, gens); bad != 1 {
		t.Fatalf("run with one corrupted block: %d bad blocks, want 1", bad)
	}
	if bad := checkRun(run, seed, 100, []uint32{1, 0, 3}); bad != 0 {
		t.Fatalf("block of unknown content was checked: %d bad blocks", bad)
	}
}

func TestDummyBandAtDefaults(t *testing.T) {
	exp, lo, hi := dummyBand(50, 1, 256, 100000)
	// 49/200 fire probability times E[round(Exp(1))] = e^-0.5/(1-e^-1).
	want := 49.0 / 200 * math.Exp(-0.5) / (1 - math.Exp(-1))
	if math.Abs(exp-want) > 1e-9 {
		t.Fatalf("expected rate %v, want %v", exp, want)
	}
	if !(lo < exp && exp < hi) || hi-lo > 0.2 {
		t.Fatalf("band [%v, %v] around %v", lo, hi, exp)
	}
	if exp/2 >= lo {
		t.Fatalf("band [%v, %v] admits half the expected rate %v", lo, hi, exp)
	}
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// reported returns the metrics a run reports, by name, from an empty phase.
func reported(t *testing.T) (e2e, layer metricSet) {
	t.Helper()
	p := &phase{elapsed: time.Second}
	e2e, _ = endToEnd(p, 0.1)
	layer, _ = perLayer(specs[0], p, p, ladder{}, band{})
	return e2e, layer
}

func TestMetricNames(t *testing.T) {
	e2e, layer := reported(t)
	for _, name := range append(sortedNames(e2e), sortedNames(layer)...) {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, metricName)
		}
	}
	for name := range layer {
		if _, dup := e2e[name]; dup {
			t.Errorf("metric %q is both end-to-end and per-layer", name)
		}
	}
}

func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		sp := specByName(w.Name)
		switch {
		case sp == nil:
			t.Errorf("BENCHMARK.json workload %q is not a perfbench workload", w.Name)
		case sp.why != w.Why:
			t.Errorf("workload %q: BENCHMARK.json and the run record give different reasons", w.Name)
		}
	}
	if len(names) != len(specs) {
		t.Errorf("BENCHMARK.json lists workloads %v, perfbench has %s", names, workloadNames())
	}
	e2e, layer := reported(t)
	check := func(kind string, got metricSet, listed map[string][2]string) {
		for name, m := range got {
			l, ok := listed[name]
			switch {
			case !ok:
				t.Errorf("%s metric %q is reported but not listed", kind, name)
			case l[0] != m.Unit:
				t.Errorf("%s metric %q: unit %q listed, %q reported", kind, name, l[0], m.Unit)
			case l[1] != "higher" && l[1] != "lower":
				t.Errorf("%s metric %q: direction %q", kind, name, l[1])
			}
		}
		for name := range listed {
			if _, ok := got[name]; !ok {
				t.Errorf("%s metric %q is listed but not reported", kind, name)
			}
		}
	}
	listed := map[string][2]string{}
	for _, m := range bf.EndToEnd {
		listed[m.Name] = [2]string{m.Unit, m.Better}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end-to-end", e2e, listed)
	if _, ok := listed["setup_s"]; !ok {
		t.Error("setup_s is not listed")
	}
	listed = map[string][2]string{}
	for _, m := range bf.PerLayer {
		listed[m.Name] = [2]string{m.Unit, m.Better}
	}
	check("per-layer", layer, listed)
}

func sortedNames(m metricSet) []string {
	var s []string
	for n := range m {
		s = append(s, n)
	}
	sort.Strings(s)
	return s
}
