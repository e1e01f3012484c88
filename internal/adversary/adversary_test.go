package adversary

import (
	"bytes"
	"math"
	"testing"

	"mobiceal/internal/core"
	"mobiceal/internal/prng"
	"mobiceal/internal/storage"
	"mobiceal/internal/thinp"
	"mobiceal/internal/xcrypto"
)

const blockSize = 4096

func TestRandomnessTestsOnNoise(t *testing.T) {
	ent := prng.NewSeededEntropy(1)
	block := make([]byte, blockSize)
	for i := 0; i < 20; i++ {
		if err := xcrypto.FillNoise(ent, block); err != nil {
			t.Fatal(err)
		}
		if !LooksRandom(block) {
			t.Fatalf("noise block %d flagged non-random (monobit %.2f, chi %.1f)",
				i, MonobitZ(block), ChiSquareBytes(block))
		}
	}
}

func TestRandomnessTestsOnStructuredData(t *testing.T) {
	zeros := make([]byte, blockSize)
	if LooksRandom(zeros) {
		t.Fatal("all-zero block passed randomness tests")
	}
	text := bytes.Repeat([]byte("This is plaintext content. "), 200)[:blockSize]
	if LooksRandom(text) {
		t.Fatal("ASCII text passed randomness tests")
	}
	if math.Abs(MonobitZ(zeros)) < 5 {
		t.Fatal("monobit did not reject zeros")
	}
}

func TestRandomnessTestOnCiphertext(t *testing.T) {
	// XTS ciphertext of structured plaintext must look random — the
	// property that makes hidden data deniable as dummy noise.
	key := make([]byte, 64)
	key[5] = 9
	x, err := xcrypto.NewXTS(key)
	if err != nil {
		t.Fatal(err)
	}
	plain := make([]byte, blockSize) // zeros: worst-case structure
	ct := make([]byte, blockSize)
	if err := x.EncryptSector(42, ct, plain); err != nil {
		t.Fatal(err)
	}
	if !LooksRandom(ct) {
		t.Fatal("XTS ciphertext flagged non-random")
	}
}

func newMobiCeal(t testing.TB, seed uint64) (*core.System, *storage.MemDevice) {
	t.Helper()
	dev := storage.NewMemDevice(blockSize, 4096)
	sys, err := core.Setup(dev, core.Config{
		NumVolumes: 6,
		KDFIter:    8,
		Entropy:    prng.NewSeededEntropy(seed),
		Seed:       seed,
		SeedSet:    true,
	}, "decoy", []string{"hidden"})
	if err != nil {
		t.Fatalf("Setup: %v", err)
	}
	return sys, dev
}

func TestFindSignatureCarving(t *testing.T) {
	// Store recognizable plaintext in both volumes; the carving pass over
	// the raw image must find nothing (everything is encrypted at rest).
	sys, dev := newMobiCeal(t, 25)
	marker := []byte("JFIF-EXIF-MAGIC-MARKER-0xDEADBEEF")
	for _, open := range []func() (*core.Volume, error){
		func() (*core.Volume, error) { return sys.OpenPublic("decoy") },
		func() (*core.Volume, error) { return sys.OpenHidden("hidden") },
	} {
		vol, err := open()
		if err != nil {
			t.Fatal(err)
		}
		fs, err := vol.Format()
		if err != nil {
			t.Fatal(err)
		}
		f, err := fs.Create("photo.jpg")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(bytes.Repeat(marker, 200), 0); err != nil {
			t.Fatal(err)
		}
		if err := fs.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Commit(); err != nil {
		t.Fatal(err)
	}
	if hits := FindSignature(dev.Snapshot(), marker); len(hits) != 0 {
		t.Fatalf("plaintext marker found in %d raw blocks", len(hits))
	}
	// Sanity: the scan does find the marker on an unencrypted device.
	raw := storage.NewMemDevice(blockSize, 16)
	block := make([]byte, blockSize)
	copy(block[100:], marker)
	if err := storage.WriteBlocks(raw, 3, block); err != nil {
		t.Fatal(err)
	}
	hits := FindSignature(raw.Snapshot(), marker)
	if len(hits) != 1 || hits[0] != 3 {
		t.Fatalf("control scan hits = %v", hits)
	}
	if hits := FindSignature(raw.Snapshot(), nil); hits != nil {
		t.Fatalf("empty pattern hits = %v", hits)
	}
}

func TestInspectPoolMatchesLiveState(t *testing.T) {
	sys, dev := newMobiCeal(t, 2)
	pub, err := sys.OpenPublic("decoy")
	if err != nil {
		t.Fatal(err)
	}
	fs, err := pub.Format()
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("x")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 50*blockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(); err != nil {
		t.Fatal(err)
	}
	info, err := core.Layout(dev)
	if err != nil {
		t.Fatal(err)
	}
	view, err := InspectPool(dev.Snapshot(), info.MetaBlocks, info.DataBlocks)
	if err != nil {
		t.Fatal(err)
	}
	if len(view.VolumeIDs) != 6 {
		t.Fatalf("VolumeIDs = %v", view.VolumeIDs)
	}
	livePub, err := sys.Pool().MappedBlocks(core.PublicVolumeID)
	if err != nil {
		t.Fatal(err)
	}
	if view.MappedCount[core.PublicVolumeID] != livePub {
		t.Fatalf("public mapped: view %d, live %d",
			view.MappedCount[core.PublicVolumeID], livePub)
	}
	if view.Allocated.Allocated() != sys.Pool().AllocatedBlocks() {
		t.Fatalf("allocated: view %d, live %d",
			view.Allocated.Allocated(), sys.Pool().AllocatedBlocks())
	}
}

func TestMobiCealDiffHasNoUnaccountableChanges(t *testing.T) {
	sys, dev := newMobiCeal(t, 3)
	pub, err := sys.OpenPublic("decoy")
	if err != nil {
		t.Fatal(err)
	}
	pubFS, err := pub.Format()
	if err != nil {
		t.Fatal(err)
	}
	hid, err := sys.OpenHidden("hidden")
	if err != nil {
		t.Fatal(err)
	}
	hidFS, err := hid.Format()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(); err != nil {
		t.Fatal(err)
	}
	d0 := dev.Snapshot()

	// Both hidden and public writes happen between snapshots.
	if err := writeFile(hidFS, "secret", 30, 4); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(pubFS, "cover", 120, 5); err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(); err != nil {
		t.Fatal(err)
	}
	d1 := dev.Snapshot()

	info, err := core.Layout(dev)
	if err != nil {
		t.Fatal(err)
	}
	report, err := AnalyzeDiff(d0, d1, info.MetaBlocks, info.DataBlocks, core.PublicVolumeID)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Unaccountable) != 0 {
		t.Fatalf("MobiCeal produced %d unaccountable changes", len(report.Unaccountable))
	}
	if report.PublicChanged == 0 || report.NonPublicChanged == 0 {
		t.Fatalf("report = %+v: expected both public and non-public changes", report)
	}
	if report.NonRandomChanged != 0 {
		t.Fatalf("%d changed blocks look non-random — plaintext leak", report.NonRandomChanged)
	}
}

func TestHiddenChangesIndistinguishableFromDummy(t *testing.T) {
	// Two MobiCeal devices, same public workload; one also stores hidden
	// data. The per-block evidence available to the adversary (ownership
	// class + randomness) must be identical in kind: all non-public
	// changes are random-looking allocated blocks in both worlds.
	for _, withHidden := range []bool{false, true} {
		sys, dev := newMobiCeal(t, 6)
		pub, err := sys.OpenPublic("decoy")
		if err != nil {
			t.Fatal(err)
		}
		pubFS, err := pub.Format()
		if err != nil {
			t.Fatal(err)
		}
		hid, err := sys.OpenHidden("hidden")
		if err != nil {
			t.Fatal(err)
		}
		hidFS, err := hid.Format()
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Commit(); err != nil {
			t.Fatal(err)
		}
		d0 := dev.Snapshot()
		if withHidden {
			if err := writeFile(hidFS, "s", 25, 7); err != nil {
				t.Fatal(err)
			}
		}
		if err := writeFile(pubFS, "p", 100, 8); err != nil {
			t.Fatal(err)
		}
		if err := sys.Commit(); err != nil {
			t.Fatal(err)
		}
		d1 := dev.Snapshot()
		info, err := core.Layout(dev)
		if err != nil {
			t.Fatal(err)
		}
		report, err := AnalyzeDiff(d0, d1, info.MetaBlocks, info.DataBlocks, core.PublicVolumeID)
		if err != nil {
			t.Fatal(err)
		}
		if len(report.Unaccountable) != 0 || report.NonRandomChanged != 0 {
			t.Fatalf("withHidden=%v: report %+v leaks evidence", withHidden, report)
		}
	}
}

func TestGCBetweenSnapshotsStaysDeniable(t *testing.T) {
	// Garbage collection frees dummy blocks between two captures. Freed
	// blocks keep their noise content (no wipe — wiping would mark them),
	// so the data-area diff stays empty and only metadata changes, which
	// the user explains as routine GC.
	sys, dev := newMobiCeal(t, 21)
	pub, err := sys.OpenPublic("decoy")
	if err != nil {
		t.Fatal(err)
	}
	pubFS, err := pub.Format()
	if err != nil {
		t.Fatal(err)
	}
	hid, err := sys.OpenHidden("hidden")
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFile(pubFS, "traffic", 200, 22); err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(); err != nil {
		t.Fatal(err)
	}
	d0 := dev.Snapshot()

	report, err := sys.GC([]int{hid.ID()}, prng.NewSource(23))
	if err != nil {
		t.Fatal(err)
	}
	if report.Reclaimed == 0 {
		t.Skip("no dummy blocks to reclaim with this seed")
	}
	d1 := dev.Snapshot()

	info, err := core.Layout(dev)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := AnalyzeDiff(d0, d1, info.MetaBlocks, info.DataBlocks, core.PublicVolumeID)
	if err != nil {
		t.Fatal(err)
	}
	if diff.Changed != 0 {
		t.Fatalf("GC changed %d data blocks (should only touch metadata)", diff.Changed)
	}
	if len(diff.Unaccountable) != 0 {
		t.Fatalf("GC produced %d unaccountable changes", len(diff.Unaccountable))
	}
	if diff.MetaChanged == 0 {
		t.Fatal("GC committed no metadata change (commit missing?)")
	}
}

func TestLayoutRunDetectorSeparatesAllocators(t *testing.T) {
	run := func(alloc thinp.Allocator) int {
		data := storage.NewMemDevice(blockSize, 2048)
		meta := storage.NewMemDevice(blockSize, thinp.MetaBlocksNeeded(2048, blockSize))
		pool, err := thinp.CreatePool(data, meta, thinp.Options{
			Allocator: alloc,
			Entropy:   prng.NewSeededEntropy(9),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Volume 1 public, volume 2 "hidden": interleave a little public
		// traffic with a big hidden file, the Sec. IV-B scenario.
		for id := 1; id <= 2; id++ {
			if err := pool.CreateThin(id, 2048); err != nil {
				t.Fatal(err)
			}
		}
		pub, err := pool.Thin(1)
		if err != nil {
			t.Fatal(err)
		}
		hid, err := pool.Thin(2)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, blockSize)
		for i := uint64(0); i < 10; i++ {
			if err := storage.WriteBlocks(pub, i, buf); err != nil {
				t.Fatal(err)
			}
		}
		for i := uint64(0); i < 200; i++ { // large hidden file
			if err := storage.WriteBlocks(hid, i, buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := pool.Commit(); err != nil {
			t.Fatal(err)
		}
		// Build the view directly from the live pool (equivalent to
		// parsing the committed mapping tables from a snapshot).
		v := &MetaView{Owner: map[uint64]int{}, MappedCount: map[int]uint64{}}
		for _, id := range pool.ThinIDs() {
			pbs, err := pool.PhysicalBlocks(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, pb := range pbs {
				v.Owner[pb] = id
			}
			v.MappedCount[id] = uint64(len(pbs))
		}
		return v.MaxSameVolumeRun(1)
	}
	seqRun := run(thinp.NewSequentialAllocator())
	randRun := run(thinp.NewRandomAllocator(prng.NewSource(10)))
	if seqRun < 100 {
		t.Fatalf("sequential allocation: max run %d, expected a long hidden run", seqRun)
	}
	if randRun > 20 {
		t.Fatalf("random allocation: max run %d, expected short runs", randRun)
	}
}

func TestAnalyzeSeriesOverManyCheckpoints(t *testing.T) {
	// The introduction's journalist was inspected seven times; deniability
	// must survive the joint view of all captures.
	sys, dev := newMobiCeal(t, 20)
	pub, err := sys.OpenPublic("decoy")
	if err != nil {
		t.Fatal(err)
	}
	pubFS, err := pub.Format()
	if err != nil {
		t.Fatal(err)
	}
	hid, err := sys.OpenHidden("hidden")
	if err != nil {
		t.Fatal(err)
	}
	hidFS, err := hid.Format()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(); err != nil {
		t.Fatal(err)
	}
	snaps := []*storage.Snapshot{dev.Snapshot()}
	for epoch := 0; epoch < 5; epoch++ {
		sys.Policy().Refresh() // time passes between inspections
		if epoch%2 == 0 {
			if err := writeFile(hidFS, "s"+string(rune('0'+epoch)), 10, uint64(epoch)); err != nil {
				t.Fatal(err)
			}
		}
		if err := writeFile(pubFS, "p"+string(rune('0'+epoch)), 60, uint64(100+epoch)); err != nil {
			t.Fatal(err)
		}
		if err := sys.Commit(); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, dev.Snapshot())
	}
	info, err := core.Layout(dev)
	if err != nil {
		t.Fatal(err)
	}
	verdict, err := AnalyzeSeries(snaps, info.MetaBlocks, info.DataBlocks, core.PublicVolumeID)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdict.Reports) != 5 {
		t.Fatalf("reports = %d", len(verdict.Reports))
	}
	if verdict.Compromised {
		t.Fatalf("series verdict compromised: %d unaccountable, %d non-random",
			verdict.TotalUnaccountable, verdict.TotalNonRandom)
	}
}

func TestDummyCountSuspicion(t *testing.T) {
	// Balanced usage: suspicion well under 1.
	if s := DummyCountSuspicion(1000, 400, 1); s >= 1 {
		t.Fatalf("balanced suspicion = %v", s)
	}
	// Pathological usage: huge hidden data, no public cover.
	if s := DummyCountSuspicion(10, 5000, 1); s <= 1 {
		t.Fatalf("pathological suspicion = %v", s)
	}
	if s := DummyCountSuspicion(0, 0, 1); s != 0 {
		t.Fatalf("empty suspicion = %v", s)
	}
	if s := DummyCountSuspicion(0, 10, 1); !math.IsInf(s, 1) {
		t.Fatalf("zero-public suspicion = %v", s)
	}
}

func TestMobiCealGameAdvantageSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("game runs many full system setups")
	}
	result, err := RunMobiCealGame(GameConfig{
		Trials:       30,
		Seed:         11,
		PublicBlocks: 200,
		HiddenBlocks: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Theorem VI.2: negligible advantage. Empirically with 30 trials we
	// allow sampling noise but must stay far from the trivial win.
	if result.Advantage > 0.30 {
		t.Fatalf("MobiCeal adversary advantage %.2f (%d/%d correct)",
			result.Advantage, result.Correct, result.Trials)
	}
}

func TestMobiPlutoGameAdversaryWins(t *testing.T) {
	if testing.Short() {
		t.Skip("game runs many full system setups")
	}
	result, err := RunMobiPlutoGame(GameConfig{
		Trials:       20,
		Seed:         12,
		PublicBlocks: 200,
		HiddenBlocks: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Hidden writes are unaccountable: the adversary should win nearly
	// every game.
	if result.Advantage < 0.35 {
		t.Fatalf("MobiPluto adversary advantage only %.2f (%d/%d correct)",
			result.Advantage, result.Correct, result.Trials)
	}
}
