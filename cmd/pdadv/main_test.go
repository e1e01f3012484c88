package main

import (
	"os"
	"path/filepath"
	"testing"

	"mobiceal"
)

// buildImage creates a MobiCeal image on disk, returning paths to two
// snapshot files with public (and optionally hidden) writes between them.
func buildImage(t *testing.T, dir string, withHidden bool) (snap1, snap2 string) {
	t.Helper()
	image := filepath.Join(dir, "disk.img")
	dev, err := mobiceal.CreateImage(image, blockSize, 8192)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := dev.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	sys, err := mobiceal.Setup(dev, mobiceal.Config{NumVolumes: 6, KDFIter: 8},
		"decoy", []string{"hidden"})
	if err != nil {
		t.Fatal(err)
	}
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
	if err := dev.Sync(0); err != nil {
		t.Fatal(err)
	}

	snap1 = filepath.Join(dir, "snap1.img")
	copyFile(t, image, snap1)

	if withHidden {
		f, err := hidFS.Create("secret")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(make([]byte, 20*blockSize), 0); err != nil {
			t.Fatal(err)
		}
		if err := hidFS.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	f, err := pubFS.Create("cover")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 100*blockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := pubFS.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := sys.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := dev.Sync(0); err != nil {
		t.Fatal(err)
	}
	snap2 = filepath.Join(dir, "snap2.img")
	copyFile(t, image, snap2)
	return snap1, snap2
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	data, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, data, 0o600); err != nil {
		t.Fatal(err)
	}
}

func TestPdadvDiffOnMobiCealImage(t *testing.T) {
	dir := t.TempDir()
	snap1, snap2 := buildImage(t, dir, true)
	if err := run([]string{"diff", "-a", snap1, "-b", snap2}); err != nil {
		t.Fatalf("diff: %v", err)
	}
}

func TestPdadvInspect(t *testing.T) {
	dir := t.TempDir()
	_, snap2 := buildImage(t, dir, false)
	if err := run([]string{"inspect", "-image", snap2}); err != nil {
		t.Fatalf("inspect: %v", err)
	}
}

func TestPdadvCarve(t *testing.T) {
	dir := t.TempDir()
	_, snap2 := buildImage(t, dir, true)
	if err := run([]string{"carve", "-image", snap2, "-pattern", "SECRETMARKER"}); err != nil {
		t.Fatalf("carve: %v", err)
	}
}

func TestPdadvUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"nonsense"},
		{"diff"},
		{"diff", "-a", "missing.img", "-b", "missing.img"},
		{"inspect"},
		{"inspect", "-image", "missing.img"},
		{"carve"},
		{"carve", "-image", "missing.img", "-pattern", "x"},
	} {
		if err := run(args); err == nil {
			t.Fatalf("run(%v) succeeded", args)
		}
	}
}
