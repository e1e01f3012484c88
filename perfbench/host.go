package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// record is the run record printed before the result: what ran, where,
// and on which sources.
type record struct {
	Workload        string             `json:"workload"`
	Why             string             `json:"why"`
	Seed            uint64             `json:"seed"`
	Seconds         float64            `json:"seconds"`
	Commit          string             `json:"commit"`
	SourceSHA256    string             `json:"source_sha256"`
	NProc           int                `json:"nproc"`
	GOMAXPROCS      int                `json:"gomaxprocs"`
	GoVersion       string             `json:"go_version"`
	Backend         string             `json:"backend"`
	TempDirFS       string             `json:"temp_dir_fs"`
	DeviceBytes     uint64             `json:"device_bytes"`
	WorkingSetBytes uint64             `json:"working_set_bytes"`
	Clients         int                `json:"clients"`
	SetupS          []float64          `json:"setup_s_each"`
	ElapsedS        float64            `json:"elapsed_s"`
	Latency         map[string]summary `json:"latency"`
	// The deniability guard: dummy blocks per public provision since
	// Setup, as the policy asked for them and as the pool wrote them, and
	// the band both must lie in.
	DummyPolicyRate float64    `json:"dummy_per_provision_policy"`
	DummyPoolRate   float64    `json:"dummy_per_provision_pool"`
	DummyBand       [2]float64 `json:"dummy_band"`
	Provisions      uint64     `json:"public_provisions"`
}

func printRecord(sp *spec, seed uint64, dur time.Duration, dir string, setups []float64, sums map[string]summary, p *phase, guard band) {
	rec := record{
		Workload: sp.name, Why: sp.why, Seed: seed, Seconds: dur.Seconds(),
		Commit: gitCommit(), SourceSHA256: sourceDigest(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Backend: sp.backend, TempDirFS: fsType(dir),
		DeviceBytes: sp.deviceBytes, WorkingSetBytes: sp.workingSet, Clients: sp.clients,
		SetupS: setups, ElapsedS: p.elapsed.Seconds(), Latency: sums,
		DummyPolicyRate: guard.policyRate, DummyPoolRate: guard.poolRate, DummyBand: [2]float64{guard.lo, guard.hi}, Provisions: guard.decisions,
	}
	b, err := json.Marshal(map[string]record{"record": rec})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding record: %v\n", err)
		return
	}
	fmt.Println(string(b))
}

// gitCommit reads the checked-out commit from .git without running git;
// a checkout that is not a repository reports "none", and the source
// digest identifies it instead.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sha, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file of the checkout.
func sourceDigest() string {
	var paths []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
