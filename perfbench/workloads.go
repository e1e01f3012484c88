package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mobiceal"
	"mobiceal/internal/minifs"
	"mobiceal/internal/storage"
)

const (
	kib = 1 << 10
	mib = 1 << 20
)

// specs lists the workloads. Each exists to load a different part of the
// stack; the why of each is printed in the run record.
var specs = []*spec{
	{
		name:    "seq_fresh",
		why:     "Fig. 4 path: 1 MiB writes (4 in flight) to never-mapped blocks, read back, discard, GC; first-touch provisioning and dummy writes, XTS-bound, ioq and commit idle",
		backend: "mem", clients: 1, depth: seqDepth, volumes: 1,
		deviceBytes: 512 * mib, workingSet: seqBlocks * blockSize,
		open: openSeqFresh,
	},
	{
		name:    "fsync_small",
		why:     "app-database pattern: 4-16 KiB fresh writes each followed by Flush, public and hidden clients sharing one commit door; commit and group commit dominate",
		backend: "mem", clients: 2, depth: 1, volumes: 2,
		deviceBytes: 256 * mib, workingSet: 2 * fsyncLimit * blockSize,
		open: openFsyncSmall,
	},
	{
		name:    "rand_rw_file",
		why:     "buffered file image: 70/30 random 4-64 KiB reads and overwrites over a provisioned 256 MiB region; busy ioq and file syscalls, no provisioning or dummy writes",
		backend: "file", clients: 2, depth: 1, volumes: 1,
		deviceBytes: 512 * mib, workingSet: rrBlocks * blockSize,
		open: openRandRW,
	},
	{
		name:    "fs_files",
		why:     "minifs on 64 MiB slices of the public and hidden volumes: create, write, sync, read back, remove; thin overwrites plus journal and commit",
		backend: "mem", clients: 2, depth: 1, volumes: 2, fs: true,
		deviceBytes: 256 * mib, workingSet: 2 * fsBlocks * blockSize,
		open: openFSFiles,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return strings.Join(names, ", ")
}

// opSpanName names the span of one request kind; file-system workloads
// call minifs, the others call the volume API of core.
func opSpanName(sp *spec, k opKind) string {
	if sp.fs {
		return [...]string{"minifs.write", "minifs.read", "minifs.sync", "minifs.remove"}[k]
	}
	return [...]string{"core.write", "core.read", "core.flush", "core.trim"}[k]
}

// contentSeed gives each client's data its own content key.
func contentSeed(seed uint64, client int) uint64 {
	return seed ^ uint64(client+1)*0xd1b54a32d192ed03
}

// pending is one submitted request whose reply the client has not taken.
type pending struct {
	f     *mobiceal.Future
	t0    time.Time
	start uint64
	buf   []byte
}

// --- seq_fresh -------------------------------------------------------------

const (
	seqBase   = 4096 // first block of the extent on the public volume
	seqBlocks = 64 * mib / blockSize
	seqReq    = mib / blockSize
	seqDepth  = 4
)

// seqFresh writes a never-mapped 64 MiB extent of the public volume with
// seqDepth 1 MiB writes in flight, flushes, reads it back at the same
// depth, discards it, flushes, and runs GC: one round.
type seqFresh struct {
	*system
	seed  uint64
	gen   uint32
	bufs  [seqDepth][]byte
	liveB atomic.Uint64
}

func openSeqFresh(sp *spec, seed uint64, _ string) (env, time.Duration, error) {
	s, d, err := newMemSystem(seed, sp.deviceBytes)
	if err != nil {
		return nil, 0, err
	}
	w := &seqFresh{system: s, seed: contentSeed(seed, 0)}
	for i := range w.bufs {
		w.bufs[i] = make([]byte, seqReq*blockSize)
	}
	return w, d, nil
}

func (w *seqFresh) base() *system { return w.system }
func (w *seqFresh) live() uint64  { return w.liveB.Load() }

func (w *seqFresh) warm(r *runner) error {
	c := r.newClient(0, 1000)
	w.round(c, true)
	if c.failed > 0 || c.mismatches > 0 {
		return fmt.Errorf("warm-up round: %d failed requests, %d bad blocks", c.failed, c.mismatches)
	}
	return nil
}

func (w *seqFresh) client(c *client) {
	for !c.r.expired() {
		w.round(c, true)
	}
}

// round runs one round; with discard false it leaves the extent written
// and flushed.
func (w *seqFresh) round(c *client, discard bool) {
	w.gen++
	req := c.nextReq()
	w.pass(c, true, req)
	t0 := time.Now()
	c.done(opFlush, t0, 0, w.pub.Flush().Wait(), req)
	w.pass(c, false, req)
	if !discard {
		return
	}
	t0 = time.Now()
	if c.done(opTrim, t0, 0, w.pub.SubmitDiscard(seqBase, seqBlocks).Wait(), req) {
		w.liveB.Store(0)
	}
	t0 = time.Now()
	c.done(opFlush, t0, 0, w.pub.Flush().Wait(), req)
	c.gc(req)
}

// pass writes or reads the whole extent with seqDepth requests in flight.
func (w *seqFresh) pass(c *client, write bool, req uint64) {
	var q []pending
	finish := func(p pending) {
		err := p.f.Wait()
		if write {
			if c.done(opWrite, p.t0, len(p.buf), err, req) {
				w.liveB.Add(seqReq)
			}
			return
		}
		if c.done(opRead, p.t0, len(p.buf), err, req) {
			bad := 0
			for b := 0; b < seqReq; b++ {
				if !checkBlock(p.buf[b*blockSize:], w.seed, p.start+uint64(b), w.gen) {
					bad++
				}
			}
			if bad > 0 {
				c.mismatch("seq_fresh read", bad)
			}
		}
	}
	for i := 0; i < seqBlocks/seqReq; i++ {
		if len(q) == seqDepth {
			finish(q[0])
			q = q[1:]
		}
		buf := w.bufs[i%seqDepth]
		start := uint64(seqBase + i*seqReq)
		var f *mobiceal.Future
		t0 := time.Now()
		if write {
			for b := 0; b < seqReq; b++ {
				fillBlock(buf[b*blockSize:], w.seed, start+uint64(b), w.gen)
			}
			t0 = time.Now()
			f = w.pub.SubmitWrite(start, buf)
		} else {
			f = w.pub.SubmitRead(start, buf)
		}
		c.record(write, start, seqReq)
		q = append(q, pending{f: f, t0: t0, start: start, buf: buf})
	}
	for _, p := range q {
		finish(p)
	}
}

func (w *seqFresh) check(r *runner) error {
	// Leave one written, flushed extent as the live set to survive a reopen.
	c := r.newClient(0, 1001)
	w.round(c, false)
	if c.failed > 0 || c.mismatches > 0 {
		return fmt.Errorf("final round: %d failed requests, %d bad blocks", c.failed, c.mismatches)
	}
	if err := w.checkPool(); err != nil {
		return err
	}
	if err := w.reopen(); err != nil {
		return err
	}
	buf := w.bufs[0]
	for start := uint64(seqBase); start < seqBase+seqBlocks; start += seqReq {
		if err := w.pub.SubmitRead(start, buf).Wait(); err != nil {
			return fmt.Errorf("reading back after reopen: %w", err)
		}
		for b := uint64(0); b < seqReq; b++ {
			if !checkBlock(buf[b*blockSize:], w.seed, start+b, w.gen) {
				return fmt.Errorf("block %d differs after reopen", start+b)
			}
		}
	}
	return w.checkPool()
}

// --- fsync_small -----------------------------------------------------------

const (
	fsyncBase  = 64    // first block each client writes
	fsyncLimit = 32768 // the client's cursor wraps here
	fsyncLive  = 256   // live extents each client keeps
	fsyncGC    = 256   // client 0 runs GC every fsyncGC of its writes
)

type extent struct {
	start uint64
	n     int
	gen   uint32 // 0 when the write failed
}

// fsyncSmall has client 0 on the public volume and client 1 on the hidden
// one. Each writes 4-16 KiB to fresh blocks and flushes; past fsyncLive
// extents it reads its oldest back, verifies it and trims it.
type fsyncSmall struct {
	*system
	seed   uint64
	vols   [2]*mobiceal.Volume
	fifos  [2][]extent
	liveB  atomic.Int64
	cursor [2]uint64
	gen    [2]uint32
}

func openFsyncSmall(sp *spec, seed uint64, _ string) (env, time.Duration, error) {
	s, d, err := newMemSystem(seed, sp.deviceBytes)
	if err != nil {
		return nil, 0, err
	}
	w := &fsyncSmall{system: s, seed: seed, vols: [2]*mobiceal.Volume{s.pub, s.hid}}
	w.cursor = [2]uint64{fsyncBase, fsyncBase}
	return w, d, nil
}

func (w *fsyncSmall) base() *system { return w.system }
func (w *fsyncSmall) live() uint64  { return uint64(w.liveB.Load()) }

func (w *fsyncSmall) warm(r *runner) error {
	var wg sync.WaitGroup
	cs := [2]*client{r.newClient(0, 1000), r.newClient(1, 1000)}
	r.deadline = time.Now().Add(time.Second)
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			w.client(c)
		}(c)
	}
	wg.Wait()
	for _, c := range cs {
		if c.failed > 0 || c.mismatches > 0 {
			return fmt.Errorf("client %d: %d failed requests, %d bad blocks", c.id, c.failed, c.mismatches)
		}
	}
	return nil
}

func (w *fsyncSmall) client(c *client) {
	vol := w.vols[c.id]
	seed := contentSeed(w.seed, c.id)
	buf := make([]byte, 4*blockSize)
	rbuf := make([]byte, 4*blockSize)
	gens := make([]uint32, 4)
	fifo := w.fifos[c.id]
	cursor, gen := w.cursor[c.id], w.gen[c.id]
	var writes uint64
	for !c.r.expired() {
		req := c.nextReq()
		n := 1 + c.rng.IntN(4)
		if cursor+uint64(n) > fsyncLimit {
			cursor = fsyncBase
		}
		gen++
		for i := 0; i < n; i++ {
			gens[i] = gen
		}
		fillRun(buf, seed, cursor, gens[:n])
		t0 := time.Now()
		ext := extent{start: cursor, n: n, gen: gen}
		c.record(true, cursor, n)
		if !c.done(opWrite, t0, n*blockSize, vol.SubmitWrite(cursor, buf[:n*blockSize]).Wait(), req) {
			ext.gen = 0
		}
		cursor += uint64(n)
		fifo = append(fifo, ext)
		w.liveB.Add(int64(n))
		t0 = time.Now()
		c.done(opFlush, t0, 0, vol.Flush().Wait(), req)
		if len(fifo) > fsyncLive {
			old := fifo[0]
			fifo = fifo[1:]
			w.readCheck(c, vol, seed, old, rbuf, gens, req)
			t0 = time.Now()
			c.done(opTrim, t0, 0, vol.SubmitDiscard(old.start, uint64(old.n)).Wait(), req)
			w.liveB.Add(-int64(old.n))
		}
		writes++
		if c.id == 0 && writes%fsyncGC == 0 {
			c.gc(req)
		}
	}
	w.fifos[c.id], w.cursor[c.id], w.gen[c.id] = fifo, cursor, gen
}

// readCheck reads extent e back and verifies it.
func (w *fsyncSmall) readCheck(c *client, vol *mobiceal.Volume, seed uint64, e extent, rbuf []byte, gens []uint32, req uint64) {
	b := rbuf[:e.n*blockSize]
	t0 := time.Now()
	c.record(false, e.start, e.n)
	if !c.done(opRead, t0, len(b), vol.SubmitRead(e.start, b).Wait(), req) || e.gen == 0 {
		return
	}
	for i := 0; i < e.n; i++ {
		gens[i] = e.gen
	}
	if bad := checkRun(b, seed, e.start, gens[:e.n]); bad > 0 {
		c.mismatch("fsync_small read", bad)
	}
}

func (w *fsyncSmall) check(r *runner) error {
	if err := w.checkPool(); err != nil {
		return err
	}
	if err := w.reopen(); err != nil {
		return err
	}
	w.vols = [2]*mobiceal.Volume{w.pub, w.hid}
	c := r.newClient(0, 1001)
	rbuf := make([]byte, 4*blockSize)
	gens := make([]uint32, 4)
	for id, fifo := range w.fifos {
		c.id = id
		for _, e := range fifo {
			w.readCheck(c, w.vols[id], contentSeed(w.seed, id), e, rbuf, gens, 0)
		}
	}
	if c.failed > 0 || c.mismatches > 0 {
		return fmt.Errorf("after reopen: %d failed reads, %d bad blocks", c.failed, c.mismatches)
	}
	return w.checkPool()
}

// --- rand_rw_file ----------------------------------------------------------

const (
	rrBase   = 1024 // first block of the region on the public volume
	rrBlocks = 256 * mib / blockSize
	rrChunk  = 64 * kib / blockSize // the region is split into chunks that alternate between clients
	rrFlush  = 64                   // each client flushes every rrFlush writes
)

// rrSizes are the request sizes in blocks, drawn uniformly.
var rrSizes = [...]int{1, 1, 4, 16}

// randRW runs two clients over a provisioned 256 MiB region of the public
// volume on a file image: 70% reads, 30% overwrites at uniform random
// offsets. Chunks alternate between the clients so that each block's
// last write is known without locking.
type randRW struct {
	*system
	seed uint64
	gens []uint32
}

func openRandRW(sp *spec, seed uint64, dir string) (env, time.Duration, error) {
	s, d, err := newFileSystem(seed, sp.deviceBytes, dir)
	if err != nil {
		return nil, 0, err
	}
	return &randRW{system: s, seed: contentSeed(seed, 0), gens: make([]uint32, rrBlocks)}, d, nil
}

func (w *randRW) base() *system { return w.system }
func (w *randRW) live() uint64  { return rrBlocks }

// warm provisions the whole region with 1 MiB writes, four in flight.
func (w *randRW) warm(r *runner) error {
	var q []pending
	bufs := make([][]byte, seqDepth)
	for i := range bufs {
		bufs[i] = make([]byte, mib)
	}
	per := mib / blockSize
	for i := 0; i < rrBlocks/per; i++ {
		if len(q) == seqDepth {
			if err := q[0].f.Wait(); err != nil {
				return err
			}
			q = q[1:]
		}
		buf := bufs[i%seqDepth]
		for b := 0; b < per; b++ {
			w.gens[i*per+b] = 1
			fillBlock(buf[b*blockSize:], w.seed, uint64(i*per+b), 1)
		}
		q = append(q, pending{f: w.pub.SubmitWrite(uint64(rrBase+i*per), buf)})
	}
	for _, p := range q {
		if err := p.f.Wait(); err != nil {
			return err
		}
	}
	return w.pub.Flush().Wait()
}

func (w *randRW) client(c *client) {
	buf := make([]byte, 16*blockSize)
	var writes uint64
	chunks := rrBlocks / rrChunk / 2
	for !c.r.expired() {
		req := c.nextReq()
		n := rrSizes[c.rng.IntN(len(rrSizes))]
		off := (2*c.rng.IntN(chunks)+c.id)*rrChunk + c.rng.IntN(rrChunk-n+1)
		gens := w.gens[off : off+n]
		b := buf[:n*blockSize]
		start := uint64(rrBase + off)
		if c.rng.IntN(10) < 7 {
			t0 := time.Now()
			c.record(false, start, n)
			if c.done(opRead, t0, len(b), w.pub.SubmitRead(start, b).Wait(), req) {
				if bad := checkRun(b, w.seed, uint64(off), gens); bad > 0 {
					c.mismatch("rand_rw_file read", bad)
				}
			}
			continue
		}
		for i := range gens {
			gens[i]++
			if gens[i] == 0 {
				gens[i] = 1
			}
		}
		fillRun(b, w.seed, uint64(off), gens)
		t0 := time.Now()
		c.record(true, start, n)
		if !c.done(opWrite, t0, len(b), w.pub.SubmitWrite(start, b).Wait(), req) {
			clear(gens)
		}
		writes++
		if writes%rrFlush == 0 {
			t0 = time.Now()
			c.done(opFlush, t0, 0, w.pub.Flush().Wait(), req)
		}
	}
}

func (w *randRW) check(r *runner) error {
	if err := w.checkPool(); err != nil {
		return err
	}
	if err := w.reopen(); err != nil {
		return err
	}
	buf := make([]byte, mib)
	per := mib / blockSize
	for i := 0; i < rrBlocks/per; i++ {
		if err := w.pub.SubmitRead(uint64(rrBase+i*per), buf).Wait(); err != nil {
			return fmt.Errorf("reading back after reopen: %w", err)
		}
		if bad := checkRun(buf, w.seed, uint64(i*per), w.gens[i*per:(i+1)*per]); bad > 0 {
			return fmt.Errorf("%d blocks differ after reopen", bad)
		}
	}
	return w.checkPool()
}

// --- fs_files --------------------------------------------------------------

const (
	fsBase      = 1024 // first volume block of each file system's slice
	fsBlocks    = 64 * mib / blockSize
	fsInodes    = 512
	fsLiveFiles = 200
	fsMaxBlocks = 256 * kib / blockSize
)

type fileRec struct {
	name string
	id   uint64
	n    int
}

// fsFiles gives each client its own minifs, bounded to a 64 MiB slice of
// the public or the hidden volume. A client creates and writes a file,
// syncs, reads a random live file back and verifies it, and removes its
// oldest file past fsLiveFiles.
type fsFiles struct {
	*system
	seed   uint64
	fss    [2]*minifs.FS
	files  [2][]fileRec
	nextID [2]uint64
	liveB  atomic.Int64
}

func openFSFiles(sp *spec, seed uint64, _ string) (env, time.Duration, error) {
	s, d, err := newMemSystem(seed, sp.deviceBytes)
	if err != nil {
		return nil, 0, err
	}
	w := &fsFiles{system: s, seed: seed}
	t0 := time.Now()
	for i, v := range []*mobiceal.Volume{s.pub, s.hid} {
		slice, err := storage.NewSliceDevice(v.Device(), fsBase, fsBlocks)
		if err != nil {
			s.close()
			return nil, 0, err
		}
		if w.fss[i], err = minifs.Format(slice, fsInodes); err != nil {
			s.close()
			return nil, 0, err
		}
	}
	return w, d + time.Since(t0), nil
}

func (w *fsFiles) base() *system { return w.system }
func (w *fsFiles) live() uint64  { return uint64(w.liveB.Load()) }

// warm fills each file system with 1 MiB files, syncs, and removes them,
// so that every block of both slices is mapped before the timed phase.
func (w *fsFiles) warm(*runner) error {
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, fs := range w.fss {
		wg.Add(1)
		go func(i int, fs *minifs.FS) {
			defer wg.Done()
			errs[i] = fillAndEmpty(fs)
		}(i, fs)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func fillAndEmpty(fs *minifs.FS) error {
	buf := make([]byte, mib)
	var names []string
	for fs.FreeBlocks() > 2*mib/blockSize {
		name := fmt.Sprintf("warm%05d", len(names))
		f, err := fs.Create(name)
		if err != nil {
			return err
		}
		names = append(names, name)
		if _, err := f.WriteAt(buf, 0); err != nil {
			return err
		}
	}
	if err := fs.Sync(); err != nil {
		return err
	}
	for _, n := range names {
		if err := fs.Remove(n); err != nil {
			return err
		}
	}
	return fs.Sync()
}

func (w *fsFiles) client(c *client) {
	fs := w.fss[c.id]
	seed := contentSeed(w.seed, c.id)
	buf := make([]byte, fsMaxBlocks*blockSize)
	rbuf := make([]byte, fsMaxBlocks*blockSize)
	files := w.files[c.id]
	for !c.r.expired() {
		req := c.nextReq()
		w.nextID[c.id]++
		rec := fileRec{id: w.nextID[c.id], n: 1 + c.rng.IntN(fsMaxBlocks)}
		rec.name = fmt.Sprintf("f%09d", rec.id)
		b := buf[:rec.n*blockSize]
		for i := 0; i < rec.n; i++ {
			fillBlock(b[i*blockSize:], seed, rec.id<<8|uint64(i), 1)
		}
		t0 := time.Now()
		c.record(true, rec.id*fsMaxBlocks, rec.n)
		f, err := fs.Create(rec.name)
		if err == nil {
			_, err = f.WriteAt(b, 0)
			if err != nil {
				fs.Remove(rec.name)
			}
		}
		if c.done(opWrite, t0, len(b), err, req) {
			files = append(files, rec)
			w.liveB.Add(int64(rec.n))
		}
		t0 = time.Now()
		c.done(opFlush, t0, 0, fs.Sync(), req)
		if len(files) > 0 {
			w.readCheck(c, fs, seed, files[c.rng.IntN(len(files))], rbuf, req)
		}
		if len(files) > fsLiveFiles {
			old := files[0]
			files = files[1:]
			t0 = time.Now()
			c.done(opTrim, t0, 0, fs.Remove(old.name), req)
			w.liveB.Add(-int64(old.n))
		}
	}
	w.files[c.id] = files
}

// readCheck reads file rec whole and verifies it.
func (w *fsFiles) readCheck(c *client, fs *minifs.FS, seed uint64, rec fileRec, rbuf []byte, req uint64) {
	b := rbuf[:rec.n*blockSize]
	t0 := time.Now()
	c.record(false, rec.id*fsMaxBlocks, rec.n)
	f, err := fs.Open(rec.name)
	if err == nil {
		_, err = f.ReadAt(b, 0)
	}
	if !c.done(opRead, t0, len(b), err, req) {
		return
	}
	bad := 0
	for i := 0; i < rec.n; i++ {
		if !checkBlock(b[i*blockSize:], seed, rec.id<<8|uint64(i), 1) {
			bad++
		}
	}
	if bad > 0 {
		c.mismatch("fs_files read "+rec.name, bad)
	}
}

func (w *fsFiles) check(r *runner) error {
	for i, fs := range w.fss {
		if err := fs.Sync(); err != nil {
			return fmt.Errorf("fs %d sync: %w", i, err)
		}
		if err := fs.CheckIntegrity(); err != nil {
			return fmt.Errorf("fs %d integrity: %w", i, err)
		}
	}
	if err := w.checkPool(); err != nil {
		return err
	}
	if err := w.reopen(); err != nil {
		return err
	}
	c := r.newClient(0, 1001)
	rbuf := make([]byte, fsMaxBlocks*blockSize)
	for i, v := range []*mobiceal.Volume{w.pub, w.hid} {
		slice, err := storage.NewSliceDevice(v.Device(), fsBase, fsBlocks)
		if err != nil {
			return err
		}
		fs, err := minifs.Mount(slice)
		if err != nil {
			return fmt.Errorf("remounting fs %d: %w", i, err)
		}
		if err := fs.CheckIntegrity(); err != nil {
			return fmt.Errorf("fs %d integrity after reopen: %w", i, err)
		}
		if got, want := len(fs.List()), len(w.files[i]); got != want {
			return fmt.Errorf("fs %d holds %d files after reopen, want %d", i, got, want)
		}
		c.id = i
		for _, rec := range w.files[i] {
			w.readCheck(c, fs, contentSeed(w.seed, i), rec, rbuf, 0)
		}
		w.fss[i] = fs
	}
	if c.failed > 0 || c.mismatches > 0 {
		return fmt.Errorf("after reopen: %d failed reads, %d bad blocks", c.failed, c.mismatches)
	}
	return w.checkPool()
}
