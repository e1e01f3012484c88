// Command pdadv is the multi-snapshot adversary's forensics tool: it
// correlates device snapshots the way the paper's threat model prescribes
// (Sec. III-A) and reports what a border-checkpoint examiner could learn.
//
// Usage:
//
//	pdadv inspect -image disk.img
//	pdadv diff    -a snap1.img -b snap2.img
//	pdadv carve   -image disk.img -pattern JFIF
//
// inspect parses the (plaintext) pool metadata of a single image: volume
// table, allocation counts, layout-run analysis and dummy-count suspicion.
// diff correlates two snapshots: changed blocks, accountability
// classification, randomness of new content. On a correctly behaving
// MobiCeal device the verdict is "no evidence"; against hidden-volume
// schemes like MobiPluto it finds unaccountable changes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"mobiceal/internal/adversary"
	"mobiceal/internal/core"
	"mobiceal/internal/storage"
)

const blockSize = 4096

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pdadv:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return errors.New("usage: pdadv <inspect|diff> [flags]")
	}
	switch args[0] {
	case "inspect":
		return cmdInspect(args[1:])
	case "diff":
		return cmdDiff(args[1:])
	case "carve":
		return cmdCarve(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// cmdCarve scans an image for a plaintext signature (file magic, known
// document fragments) — the carving pass of a forensic examination.
func cmdCarve(args []string) error {
	fs := flag.NewFlagSet("carve", flag.ContinueOnError)
	image := fs.String("image", "", "device image path")
	pattern := fs.String("pattern", "", "plaintext byte pattern to scan for")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *image == "" || *pattern == "" {
		return errors.New("carve: -image and -pattern are required")
	}
	snap, err := loadSnapshot(*image)
	if err != nil {
		return err
	}
	hits := adversary.FindSignature(snap, []byte(*pattern))
	if len(hits) == 0 {
		fmt.Printf("pattern %q: not found in %d blocks — everything at rest is ciphertext/noise\n",
			*pattern, snap.NumBlocks())
		return nil
	}
	fmt.Printf("pattern %q found in %d block(s):", *pattern, len(hits))
	for i, idx := range hits {
		if i == 16 {
			fmt.Printf(" … (%d more)", len(hits)-16)
			break
		}
		fmt.Printf(" %d", idx)
	}
	fmt.Println("\nVERDICT: plaintext at rest — encryption coverage is broken")
	return nil
}

// loadSnapshot reads an image file into an immutable snapshot.
func loadSnapshot(path string) (*storage.Snapshot, error) {
	dev, err := storage.OpenFileDevice(path, blockSize)
	if err != nil {
		return nil, err
	}
	defer func() { _ = dev.Close() }()
	mem := storage.NewMemDevice(blockSize, dev.NumBlocks())
	buf := make([]byte, blockSize)
	for i := uint64(0); i < dev.NumBlocks(); i++ {
		if err := storage.ReadBlocks(dev, i, buf); err != nil {
			return nil, err
		}
		if err := storage.WriteBlocks(mem, i, buf); err != nil {
			return nil, err
		}
	}
	return mem.Snapshot(), nil
}

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	image := fs.String("image", "", "device image path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *image == "" {
		return errors.New("inspect: -image is required")
	}
	snap, err := loadSnapshot(*image)
	if err != nil {
		return err
	}
	info, err := core.Layout(snap)
	if err != nil {
		return err
	}
	view, err := adversary.InspectPool(snap, info.MetaBlocks, info.DataBlocks)
	if err != nil {
		return err
	}
	fmt.Printf("layout: %d metadata + %d data + %d footer blocks\n",
		info.MetaBlocks, info.DataBlocks, info.FooterBlocks)
	fmt.Printf("allocated: %d / %d data blocks\n",
		view.Allocated.Allocated(), view.Allocated.Size())
	var public, nonPublic uint64
	fmt.Println("volumes:")
	for _, id := range view.VolumeIDs {
		kind := "non-public (hidden or dummy — indistinguishable)"
		if id == core.PublicVolumeID {
			kind = "public"
			public = view.MappedCount[id]
		} else {
			nonPublic += view.MappedCount[id]
		}
		fmt.Printf("  V%-3d %8d blocks mapped   %s\n", id, view.MappedCount[id], kind)
	}
	maxRun := view.MaxSameVolumeRun(core.PublicVolumeID)
	fmt.Printf("layout analysis: longest same-volume physical run = %d\n", maxRun)
	if maxRun > 16 {
		fmt.Println("  SUSPICIOUS: run too long to be a single dummy write")
	} else {
		fmt.Println("  consistent with random allocation + dummy writes")
	}
	suspicion := adversary.DummyCountSuspicion(public, nonPublic, 1)
	fmt.Printf("dummy-count suspicion: %.3f (>1 means the dummy story cannot explain the data)\n", suspicion)
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	a := fs.String("a", "", "earlier snapshot image")
	b := fs.String("b", "", "later snapshot image")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *a == "" || *b == "" {
		return errors.New("diff: -a and -b are required")
	}
	snapA, err := loadSnapshot(*a)
	if err != nil {
		return err
	}
	snapB, err := loadSnapshot(*b)
	if err != nil {
		return err
	}
	info, err := core.Layout(snapB)
	if err != nil {
		return err
	}
	report, err := adversary.AnalyzeDiff(snapA, snapB, info.MetaBlocks, info.DataBlocks, core.PublicVolumeID)
	if err != nil {
		return err
	}
	fmt.Printf("changed data blocks:      %d\n", report.Changed)
	fmt.Printf("changed metadata blocks:  %d\n", report.MetaChanged)
	fmt.Printf("  owned by public volume: %d\n", report.PublicChanged)
	fmt.Printf("  owned by other volumes: %d (dummy or hidden — deniable)\n", report.NonPublicChanged)
	fmt.Printf("  unaccountable:          %d\n", len(report.Unaccountable))
	fmt.Printf("  non-random content:     %d\n", report.NonRandomChanged)
	switch {
	case len(report.Unaccountable) > 0:
		fmt.Println("VERDICT: deniability COMPROMISED — writes outside the allocation machinery")
	case report.NonRandomChanged > 0:
		fmt.Println("VERDICT: suspicious — structured content appeared in changed blocks")
	default:
		fmt.Println("VERDICT: no evidence — every change is accountable as public or dummy writes")
	}
	return nil
}
