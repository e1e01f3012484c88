package experiments

import (
	"fmt"
	"strings"
	"time"

	"mobiceal/internal/adversary"
	"mobiceal/internal/android"
	"mobiceal/internal/core"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/vclock"
	"mobiceal/internal/workload"
	"mobiceal/internal/xcrypto"
)

// GameRow is one configuration of the empirical multi-snapshot game.
type GameRow struct {
	System       string
	HiddenBlocks int
	Trials       int
	Advantage    float64
}

// SecurityGame runs the Sec. III-C game empirically: MobiCeal at several
// hidden-write sizes (deniability should hold while hidden traffic stays
// within the dummy-plausible envelope, and the paper's usage guidance keeps
// users there) and MobiPluto (where the adversary should win outright).
func SecurityGame(trials int, seed uint64) ([]GameRow, error) {
	if trials == 0 {
		trials = 20
	}
	if seed == 0 {
		seed = 0x47414d45
	}
	var rows []GameRow
	for _, hidden := range []int{20, 40, 80} {
		res, err := adversary.RunMobiCealGame(adversary.GameConfig{
			Trials:       trials,
			Seed:         seed,
			PublicBlocks: 200,
			HiddenBlocks: hidden,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: mobiceal game: %w", err)
		}
		rows = append(rows, GameRow{
			System: "MobiCeal", HiddenBlocks: hidden,
			Trials: res.Trials, Advantage: res.Advantage,
		})
	}
	res, err := adversary.RunMobiPlutoGame(adversary.GameConfig{
		Trials:       trials,
		Seed:         seed + 1,
		PublicBlocks: 200,
		HiddenBlocks: 40,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: mobipluto game: %w", err)
	}
	rows = append(rows, GameRow{
		System: "MobiPluto", HiddenBlocks: 40,
		Trials: res.Trials, Advantage: res.Advantage,
	})
	return rows, nil
}

// FormatGame renders the game results.
func FormatGame(rows []GameRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %14s %8s %12s\n", "System", "Hidden blocks", "Trials", "Advantage")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %14d %8d %12.3f\n", r.System, r.HiddenBlocks, r.Trials, r.Advantage)
	}
	return b.String()
}

// RandRow is one content class in the randomness study.
type RandRow struct {
	Class    string
	Samples  int
	PassRate float64 // fraction passing LooksRandom
}

// RandomnessStudy backs Lemma VI.1's indistinguishability claim: dummy
// noise, XTS ciphertext of hidden data and the initial-fill background all
// pass the adversary's randomness tests at the same rate, while plaintext
// classes fail them.
func RandomnessStudy(samples int, seed uint64) ([]RandRow, error) {
	if samples == 0 {
		samples = 200
	}
	ent := prng.NewSeededEntropy(seed)
	key, err := prng.Bytes(ent, 64)
	if err != nil {
		return nil, err
	}
	xts, err := xcrypto.NewXTS(key)
	if err != nil {
		return nil, err
	}
	src := prng.NewSource(seed)

	classes := []struct {
		name string
		gen  func(i int, dst []byte) error
	}{
		{"dummy-noise", func(_ int, dst []byte) error {
			return xcrypto.FillNoise(ent, dst)
		}},
		{"xts-ciphertext", func(i int, dst []byte) error {
			plain := make([]byte, len(dst))
			if _, err := src.Read(plain); err != nil {
				return err
			}
			return xts.EncryptSector(uint64(i), dst, plain)
		}},
		{"xts-of-zeros", func(i int, dst []byte) error {
			plain := make([]byte, len(dst))
			return xts.EncryptSector(uint64(i), dst, plain)
		}},
		{"ascii-text", func(_ int, dst []byte) error {
			text := []byte("The quick brown fox jumps over the lazy dog. ")
			for j := 0; j < len(dst); j++ {
				dst[j] = text[j%len(text)]
			}
			return nil
		}},
		{"zeros", func(_ int, dst []byte) error {
			for j := range dst {
				dst[j] = 0
			}
			return nil
		}},
	}
	rows := make([]RandRow, 0, len(classes))
	buf := make([]byte, blockSize)
	for _, c := range classes {
		pass := 0
		for i := 0; i < samples; i++ {
			if err := c.gen(i, buf); err != nil {
				return nil, fmt.Errorf("experiments: generating %s: %w", c.name, err)
			}
			if adversary.LooksRandom(buf) {
				pass++
			}
		}
		rows = append(rows, RandRow{
			Class: c.name, Samples: samples,
			PassRate: float64(pass) / float64(samples),
		})
	}
	return rows, nil
}

// FormatRandomness renders the randomness study.
func FormatRandomness(rows []RandRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %8s %10s\n", "Content class", "Samples", "Pass rate")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %8d %9.1f%%\n", r.Class, r.Samples, r.PassRate*100)
	}
	return b.String()
}

// AllocRow is one allocator variant in the layout ablation.
type AllocRow struct {
	Allocator string
	MaxRun    int
	Detected  bool
}

// runDetectionThreshold is the layout detector's alarm: dummy writes of
// size > ~16 blocks are astronomically rare (P[Exp(1) > 16] ~ 1e-7), so a
// same-volume physical run longer than this cannot be explained as one
// dummy write.
const runDetectionThreshold = 16

// AblationAllocator compares random versus sequential allocation under an
// identical hidden-heavy workload, reproducing the Sec. IV-B argument for
// random allocation: the layout run detector fires only on the sequential
// variant.
func AblationAllocator(seed uint64) ([]AllocRow, error) {
	if seed == 0 {
		seed = 0x414c4c4f
	}
	var rows []AllocRow
	for _, sequential := range []bool{false, true} {
		name := "random"
		if sequential {
			name = "sequential"
		}
		dev := storage.NewMemDevice(blockSize, 8192)
		sys, err := core.Setup(dev, core.Config{
			NumVolumes:      6,
			KDFIter:         8,
			Entropy:         prng.NewSeededEntropy(seed),
			Seed:            seed,
			SeedSet:         true,
			SequentialAlloc: sequential,
		}, "decoy", []string{"hidden"})
		if err != nil {
			return nil, fmt.Errorf("experiments: allocator ablation setup: %w", err)
		}
		pub, err := sys.OpenPublic("decoy")
		if err != nil {
			return nil, err
		}
		pubFS, err := pub.Format()
		if err != nil {
			return nil, err
		}
		hid, err := sys.OpenHidden("hidden")
		if err != nil {
			return nil, err
		}
		hidFS, err := hid.Format()
		if err != nil {
			return nil, err
		}
		// Small public traffic, then a large hidden file — the Sec. IV-B
		// worst case.
		if _, err := workload.SeqWrite(pubFS, "p", 20*blockSize, 0, seed+1); err != nil {
			return nil, err
		}
		if _, err := workload.SeqWrite(hidFS, "h", 400*blockSize, 0, seed+2); err != nil {
			return nil, err
		}
		if err := sys.Commit(); err != nil {
			return nil, err
		}
		info, err := core.Layout(dev)
		if err != nil {
			return nil, err
		}
		mem, ok := interface{}(dev).(*storage.MemDevice)
		if !ok {
			return nil, fmt.Errorf("experiments: snapshot requires MemDevice")
		}
		view, err := adversary.InspectPool(mem.Snapshot(), info.MetaBlocks, info.DataBlocks)
		if err != nil {
			return nil, err
		}
		maxRun := view.MaxSameVolumeRun(core.PublicVolumeID)
		rows = append(rows, AllocRow{
			Allocator: name,
			MaxRun:    maxRun,
			Detected:  maxRun > runDetectionThreshold,
		})
	}
	return rows, nil
}

// FormatAllocator renders the allocator ablation.
func FormatAllocator(rows []AllocRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %10s\n", "Allocator", "Max run", "Detected")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10d %10v\n", r.Allocator, r.MaxRun, r.Detected)
	}
	return b.String()
}

// DummyRateRow is one (lambda, x) configuration in the dummy-rate ablation.
type DummyRateRow struct {
	Lambda        float64
	X             int
	WriteAmp      float64 // dummy blocks per public provisioned block
	SpacePct      float64 // dummy share of allocated space
	ThroughputMBs float64 // MC-P sequential write throughput
}

// AblationDummyRate sweeps the dummy-write parameters, quantifying the
// Sec. IV-A trade-off between obfuscation volume and I/O cost.
func AblationDummyRate(seed uint64, lambdas []float64, xs []int) ([]DummyRateRow, error) {
	if seed == 0 {
		seed = 0x44554d59
	}
	if len(lambdas) == 0 {
		lambdas = []float64{0.5, 1, 2, 4}
	}
	if len(xs) == 0 {
		xs = []int{50}
	}
	var rows []DummyRateRow
	for _, lambda := range lambdas {
		for _, x := range xs {
			var clock vclock.Clock
			meter := vclock.NewMeter(&clock, vclock.Nexus4())
			dev := storage.NewMemDevice(blockSize, 16384)
			sys, err := core.Setup(dev, core.Config{
				NumVolumes: 8,
				Lambda:     lambda,
				X:          x,
				KDFIter:    8,
				Entropy:    prng.NewSeededEntropy(seed),
				Seed:       seed,
				SeedSet:    true,
				Meter:      meter,
			}, "decoy", nil)
			if err != nil {
				return nil, fmt.Errorf("experiments: dummy ablation setup: %w", err)
			}
			pub, err := sys.OpenPublic("decoy")
			if err != nil {
				return nil, err
			}
			fs, err := pub.Format()
			if err != nil {
				return nil, err
			}
			clock.Reset()
			sw := vclock.NewStopwatch(&clock)
			size := int64(8) << 20
			n, err := workload.SeqWrite(fs, "w", size, 0, seed+1)
			if err != nil {
				return nil, err
			}
			mbps := throughputKBps(n, sw.Elapsed()) / 1024
			dummy := sys.Pool().DummyBlocksWritten()
			pubMapped, err := sys.Pool().MappedBlocks(core.PublicVolumeID)
			if err != nil {
				return nil, err
			}
			total := sys.Pool().AllocatedBlocks()
			row := DummyRateRow{
				Lambda:        lambda,
				X:             x,
				ThroughputMBs: mbps,
			}
			if pubMapped > 0 {
				row.WriteAmp = float64(dummy) / float64(pubMapped)
			}
			if total > 0 {
				row.SpacePct = float64(dummy) / float64(total) * 100
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// FormatDummyRate renders the dummy-rate ablation.
func FormatDummyRate(rows []DummyRateRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %5s %12s %10s %14s\n",
		"lambda", "x", "dummy/pub", "space %", "MC-P MB/s")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8.2f %5d %12.3f %9.1f%% %14.2f\n",
			r.Lambda, r.X, r.WriteAmp, r.SpacePct, r.ThroughputMBs)
	}
	return b.String()
}

// VolumeCountRow is one n in the volume-count ablation.
type VolumeCountRow struct {
	NumVolumes int
	Init       time.Duration
	Boot       time.Duration
	SetupCost  uint64 // blocks consumed by setup (cover blocks etc.)
}

// AblationVolumeCount sweeps n, the number of virtual volumes (Sec. IV-C):
// more volumes buy more deniability levels and a bigger dummy-target space,
// at the price of longer initialization and boot (one LVM create / activate
// per volume) — the trade-off behind the paper's n choice.
func AblationVolumeCount(seed uint64, ns []int) ([]VolumeCountRow, error) {
	if seed == 0 {
		seed = 0x4e564f4c
	}
	if len(ns) == 0 {
		ns = []int{2, 4, 8, 16, 32}
	}
	rows := make([]VolumeCountRow, 0, len(ns))
	for _, n := range ns {
		var clock vclock.Clock
		meter := vclock.NewMeter(&clock, vclock.Nexus4())
		phone := android.NewMobiCealPhone(
			storage.NewMemDevice(blockSize, 16384), core.Config{
				NumVolumes: n,
				KDFIter:    16,
				Entropy:    prng.NewSeededEntropy(seed),
				Seed:       seed,
				SeedSet:    true,
			}, meter, NominalUserdataBytes)
		sw := vclock.NewStopwatch(&clock)
		if err := phone.Initialize("decoy", []string{"hidden"}); err != nil {
			return nil, fmt.Errorf("experiments: n=%d init: %w", n, err)
		}
		initTime := sw.Elapsed()
		sw = vclock.NewStopwatch(&clock)
		if err := phone.Boot("decoy"); err != nil {
			return nil, err
		}
		rows = append(rows, VolumeCountRow{
			NumVolumes: n,
			Init:       initTime,
			Boot:       sw.Elapsed(),
			SetupCost:  phone.System().Pool().AllocatedBlocks(),
		})
	}
	return rows, nil
}

// FormatVolumeCount renders the volume-count ablation.
func FormatVolumeCount(rows []VolumeCountRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %12s %10s %16s\n", "n", "Init", "Boot", "Setup blocks")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %12s %10s %16d\n",
			r.NumVolumes,
			r.Init.Round(time.Second),
			r.Boot.Round(10*time.Millisecond),
			r.SetupCost)
	}
	return b.String()
}

// GCRow is one policy variant of the garbage-collection study.
type GCRow struct {
	Policy         string
	Reclaimed      uint64
	DummyRemaining uint64
	HiddenExposed  bool
}

// GCStudy demonstrates why GC must reclaim only a *random fraction* of
// dummy space (Sec. IV-D): reclaiming all of it leaves the hidden volume as
// the only surviving non-public footprint, which a snapshot correlation
// identifies immediately.
func GCStudy(seed uint64) ([]GCRow, error) {
	if seed == 0 {
		seed = 0x4743
	}
	run := func(full bool) (GCRow, error) {
		dev := storage.NewMemDevice(blockSize, 8192)
		sys, err := core.Setup(dev, core.Config{
			NumVolumes: 6,
			KDFIter:    8,
			Entropy:    prng.NewSeededEntropy(seed),
			Seed:       seed,
			SeedSet:    true,
		}, "decoy", []string{"hidden"})
		if err != nil {
			return GCRow{}, err
		}
		pub, err := sys.OpenPublic("decoy")
		if err != nil {
			return GCRow{}, err
		}
		pubFS, err := pub.Format()
		if err != nil {
			return GCRow{}, err
		}
		hid, err := sys.OpenHidden("hidden")
		if err != nil {
			return GCRow{}, err
		}
		hidFS, err := hid.Format()
		if err != nil {
			return GCRow{}, err
		}
		if _, err := workload.SeqWrite(pubFS, "p", 600*blockSize, 0, seed+1); err != nil {
			return GCRow{}, err
		}
		if _, err := workload.SeqWrite(hidFS, "h", 50*blockSize, 0, seed+2); err != nil {
			return GCRow{}, err
		}
		if err := sys.Commit(); err != nil {
			return GCRow{}, err
		}
		hiddenID := hid.ID()

		var reclaimed uint64
		if full {
			// Pathological policy: reclaim every dummy block.
			for id := 2; id <= sys.NumVolumes(); id++ {
				if id == hiddenID {
					continue
				}
				vbs, err := sys.Pool().MappedVBlocks(id)
				if err != nil {
					return GCRow{}, err
				}
				thin, err := sys.Pool().Thin(id)
				if err != nil {
					return GCRow{}, err
				}
				for _, vb := range vbs {
					if vb == 0 {
						continue
					}
					if err := thin.Discard(0, vb, 1); err != nil {
						return GCRow{}, err
					}
					reclaimed++
				}
			}
			if err := sys.Commit(); err != nil {
				return GCRow{}, err
			}
		} else {
			report, err := sys.GC([]int{hiddenID}, prng.NewSource(seed+3))
			if err != nil {
				return GCRow{}, err
			}
			reclaimed = report.Reclaimed
		}

		// Adversary: after GC, count non-public volumes that still hold
		// more than the setup cover block. If exactly one survives, the
		// hidden volume is exposed.
		survivors := 0
		var dummyRemaining uint64
		for id := 2; id <= sys.NumVolumes(); id++ {
			mapped, err := sys.Pool().MappedBlocks(id)
			if err != nil {
				return GCRow{}, err
			}
			if mapped > 1 {
				survivors++
			}
			if id != hiddenID {
				dummyRemaining += mapped
			}
		}
		name := "random-fraction"
		if full {
			name = "reclaim-all"
		}
		return GCRow{
			Policy:         name,
			Reclaimed:      reclaimed,
			DummyRemaining: dummyRemaining,
			HiddenExposed:  survivors <= 1,
		}, nil
	}

	randomRow, err := run(false)
	if err != nil {
		return nil, fmt.Errorf("experiments: gc random: %w", err)
	}
	fullRow, err := run(true)
	if err != nil {
		return nil, fmt.Errorf("experiments: gc full: %w", err)
	}
	return []GCRow{randomRow, fullRow}, nil
}

// FormatGC renders the GC study.
func FormatGC(rows []GCRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %10s %16s %14s\n",
		"Policy", "Reclaimed", "Dummy remaining", "Hidden exposed")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %10d %16d %14v\n",
			r.Policy, r.Reclaimed, r.DummyRemaining, r.HiddenExposed)
	}
	return b.String()
}
