package main

import (
	"fmt"
	"os"
	"time"

	"mobiceal"
	"mobiceal/internal/storage"
)

const (
	decoyPassword  = "perfbench-decoy"
	hiddenPassword = "perfbench-hidden"
)

// system is a MobiCeal system with its public and hidden volume open.
type system struct {
	cfg   mobiceal.Config
	dev   mobiceal.Device
	image *storage.FileDevice // the file backend, nil on memory
	path  string
	sys   *mobiceal.System
	pub   *mobiceal.Volume
	hid   *mobiceal.Volume
}

// config is what every workload runs with: the seed from the command line
// and a user's defaults for everything else.
func config(seed uint64) mobiceal.Config { return mobiceal.Config{Seed: seed, SeedSet: true} }

// newMemSystem sets a system up on a fresh memory device of devBytes and
// returns it with the time Setup and opening both volumes took.
func newMemSystem(seed, devBytes uint64) (*system, time.Duration, error) {
	return newSystem(&system{cfg: config(seed), dev: mobiceal.NewMemDevice(blockSize, devBytes/blockSize)})
}

// newFileSystem does the same on a fresh buffered image file in dir.
func newFileSystem(seed, devBytes uint64, dir string) (*system, time.Duration, error) {
	f, err := os.CreateTemp(dir, "image-*.img")
	if err != nil {
		return nil, 0, err
	}
	path := f.Name()
	if err := f.Close(); err != nil {
		return nil, 0, err
	}
	img, err := mobiceal.CreateImage(path, blockSize, devBytes/blockSize)
	if err != nil {
		os.Remove(path)
		return nil, 0, err
	}
	s, d, err := newSystem(&system{cfg: config(seed), dev: img, image: img, path: path})
	if err != nil {
		img.Close()
		os.Remove(path)
	}
	return s, d, err
}

func newSystem(s *system) (*system, time.Duration, error) {
	t0 := time.Now()
	sys, err := mobiceal.Setup(s.dev, s.cfg, decoyPassword, []string{hiddenPassword})
	if err != nil {
		return nil, 0, err
	}
	s.sys = sys
	if err := s.openVolumes(); err != nil {
		sys.Close()
		return nil, 0, err
	}
	return s, time.Since(t0), nil
}

func (s *system) openVolumes() error {
	pub, err := s.sys.OpenPublic(decoyPassword)
	if err != nil {
		return err
	}
	hid, err := s.sys.OpenHidden(hiddenPassword)
	if err != nil {
		return err
	}
	s.pub, s.hid = pub, hid
	return nil
}

// reopen closes the system (which makes everything submitted durable),
// reopens the image file when there is one, and loads the system and both
// volumes again from what is on the device.
func (s *system) reopen() error {
	if err := s.sys.Close(); err != nil {
		return fmt.Errorf("closing system: %w", err)
	}
	if s.image != nil {
		if err := s.image.Close(); err != nil {
			return fmt.Errorf("closing image: %w", err)
		}
		img, err := mobiceal.OpenImage(s.path, blockSize)
		if err != nil {
			return fmt.Errorf("reopening image: %w", err)
		}
		s.image, s.dev = img, img
	}
	sys, err := mobiceal.Open(s.dev, s.cfg)
	if err != nil {
		return fmt.Errorf("reopening system: %w", err)
	}
	s.sys = sys
	return s.openVolumes()
}

func (s *system) close() {
	if err := s.sys.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: closing system: %v\n", err)
	}
	if s.image != nil {
		s.image.Close()
		os.Remove(s.path)
	}
}

// checkPool runs the thin pool's integrity check.
func (s *system) checkPool() error {
	if err := s.sys.Pool().CheckIntegrity(); err != nil {
		return fmt.Errorf("pool integrity: %w", err)
	}
	return nil
}
